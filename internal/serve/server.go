// Package serve turns the WideLeak study engine into a service: an HTTP
// JSON API over a bounded job queue and worker pool, with a
// content-addressed result cache, structured per-job event logs
// (polled or streamed as server-sent events), Prometheus-text metrics,
// load shedding, and graceful drain.
//
// API surface (see cmd/wideleakd for the daemon):
//
//	POST   /v1/studies               submit {seed, probes, profiles, faults, concurrency}
//	GET    /v1/studies               list jobs, newest first
//	GET    /v1/studies/{id}          job status
//	DELETE /v1/studies/{id}          cancel a queued or running job
//	GET    /v1/studies/{id}/table    results (?format=txt|csv|json)
//	GET    /v1/studies/{id}/events   structured probe event log (?stream=1 for SSE)
//	GET    /metrics                  Prometheus text exposition
//	GET    /healthz                  liveness (503 while draining)
//
// plus the batch endpoints documented in batch.go. A study is a job of
// one spec and a batch a job of N; both share one queue, one worker
// pool, one runner and one frame log.
//
// Identical canonical requests (same seed, probes, profiles and fault
// schedule — wideleak.RunSpec.Key) are served from the cache with zero
// new device work; a full queue sheds load with 429 + Retry-After; and
// Shutdown drains every queued and in-flight job before returning.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpkit"
	"repro/internal/lru"
	"repro/internal/netsim"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// Cache-provenance headers. The daemon stamps them so a fleet router or
// load harness can attribute every response to the tier that produced
// it without scraping /metrics:
//
//   - HeaderCacheTier on POST /v1/studies: "hit" (tier-1 result cache,
//     job born done), "coalesced" (attached to an identical live job),
//     or "miss" (a fresh run was queued).
//   - HeaderWorldCache on done-job responses (submit hits, status,
//     table): "miss" when the run that produced the bytes built a world,
//     "hit" when it needed none (every cell was memoized).
const (
	HeaderCacheTier  = "X-Wideleak-Cache"
	HeaderWorldCache = "X-Wideleak-World-Cache"
)

// Config sizes the server. Zero values select the defaults.
type Config struct {
	// Workers is the worker pool size (default GOMAXPROCS). Studies and
	// batches share it.
	Workers int
	// QueueSize bounds the backlog of accepted-but-not-running jobs,
	// studies and batches alike (default 16). Submissions beyond it are
	// shed with HTTP 429.
	QueueSize int
	// CacheSize bounds the LRU result cache (default 64 entries).
	CacheSize int
	// CellCacheSize bounds the probe-cell LRU (default 4096 outcomes)
	// that makes the result tier cell-aware: a request whose cells are
	// all resident is reassembled with zero device work even when its
	// exact RunSpec was never served before.
	CellCacheSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.CellCacheSize <= 0 {
		c.CellCacheSize = 4096
	}
	return c
}

// Server owns the job table, queue, worker pool, cache and metrics.
// Create with New, expose via Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics

	// cache is tier 1: canonical request key (wideleak.RunSpec.Key) →
	// fully encoded job result. Identical canonical requests are served
	// from here without re-running any device work.
	cache *lru.Cache[string, *jobResult]

	// cells is the sub-result memoization tier between the result cache
	// and the process-wide key store (wideleak.SharedKeyPool): completed
	// (world, profile, probe) outcomes by CellKey. It makes the result
	// tier cell-aware — a probe-subset request recombines resident cells
	// instead of re-running — and it is what lets a batch share work
	// across overlapping specs.
	cells *wideleak.CellCache

	mu       sync.Mutex
	jobs     *httpkit.JobTable[*Job] // studies and batches by ID, in submission order
	active   map[string]*Job         // canonical key → live study (coalescing)
	queue    chan *Job
	draining bool
	seq      int64 // study IDs issued
	batchSeq int64 // batch IDs issued

	inFlight atomic.Int64
	wg       sync.WaitGroup

	// testHookJobStart, when set, runs at the top of every worker job —
	// tests use it to hold jobs in the queued state deterministically.
	testHookJobStart func(*Job)
	// cancelAtStart cancels every job at the top of its run
	// (CancelJobsAtStart).
	cancelAtStart atomic.Bool
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		cache:  lru.New[string, *jobResult](cfg.CacheSize),
		cells:  wideleak.NewCellCache(cfg.CellCacheSize),
		jobs:   newJobTable(maxJobRecords),
		active: make(map[string]*Job),
		queue:  make(chan *Job, cfg.QueueSize),
	}
	s.metrics = newMetrics(
		func() int { return len(s.queue) },
		func() int { return int(s.inFlight.Load()) },
	)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Prewarm kills the cold start for a seed before the first request
// arrives: it pre-mints up to n of the seed's device RSA keys into the
// seed's pool in the process-wide key store (n <= 0 means all of them)
// on parallelism workers. Keys are byte-identical to lazily minted ones,
// so prewarming is invisible to results. Returns the number of keys
// resident for the seed.
//
// Prewarm is idempotent and safe to run concurrently with traffic; the
// daemon calls it at boot (see wideleakd -prewarm) and logs the warm-up
// duration.
func (s *Server) Prewarm(ctx context.Context, seed string, n, parallelism int) (int, error) {
	c, err := wideleak.RunSpec{Seed: seed}.Canonicalize()
	if err != nil {
		return 0, err
	}
	ids := wideleak.DeviceStableIDs(nil)
	if n > 0 && n < len(ids) {
		ids = ids[:n]
	}
	pool := wideleak.SharedKeyPool(c.Seed)
	err = pool.Prewarm(ctx, ids, parallelism)
	return pool.Size(), err
}

// Shutdown drains the server: no further submissions are accepted (503),
// every queued and in-flight job runs to completion, then the worker
// pool exits. If ctx expires first, in-flight jobs are cancelled and
// Shutdown returns the context error once the workers wind down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs.All() {
			j.requestCancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// CancelJobsAtStart makes the server cancel every job it dequeues before
// the job does any engine work, so the job ends canceled. It is for
// exercising the HTTP surface (fuzzing, in this package and through the
// fleet router) without running studies; it is safe to call while the
// server serves.
func (s *Server) CancelJobsAtStart() { s.cancelAtStart.Store(true) }

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one queued job end to end.
func (s *Server) runJob(job *Job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if hook := s.testHookJobStart; hook != nil {
		hook(job)
	}
	if s.cancelAtStart.Load() {
		job.requestCancel()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !job.start(cancel) {
		// Cancelled while still queued; nothing to run.
		s.clearActive(job)
		return
	}

	res, err := s.execute(ctx, job)
	s.clearActive(job)
	switch {
	case err == nil:
		if job.Key != "" {
			s.cache.Put(job.Key, res)
		}
		job.finish(JobDone, res, "")
	case errors.Is(err, context.Canceled):
		job.finish(JobCanceled, nil, err.Error())
	default:
		job.finish(JobFailed, nil, err.Error())
	}
}

// execute runs every spec of the job as one matrix under the job's
// context, through the server's cell cache. A study's probe events
// become its frames; a batch's completed rows become its frames (its
// probe events only feed the metrics). Network retries reach the
// per-host retry counters either way.
//
// Because single studies go through the same matrix scheduler, the
// result tier is cell-aware: when every cell a spec needs is already
// memoized (a probe subset of an earlier run), the table is reassembled
// with zero device work — no world built, no observation executed.
func (s *Server) execute(ctx context.Context, job *Job) (*jobResult, error) {
	var (
		builtMu sync.Mutex
		built   []*wideleak.World
	)
	sink := s.metrics.ObserveEvent
	if !job.batch {
		sink = func(ev probe.Event) { s.metrics.ObserveEvent(job.recordEvent(ev)) }
	}
	opts := wideleak.BatchOptions{
		Concurrency: job.concurrency,
		Cache:       s.cells,
		BuildStudy: func(spec wideleak.RunSpec) (*wideleak.Study, error) {
			study, err := spec.Build()
			if err != nil {
				return nil, err
			}
			study.SetEventSink(sink)
			// SetEventSink installed the sink's own retry forwarder on the
			// network; compose the per-host metrics adapter alongside it.
			network := study.World.Network
			network.SetRetryObserver(netsim.CombineRetryObservers(network.RetryObserver(), s.metrics.RetryObserver()))
			builtMu.Lock()
			built = append(built, study.World)
			builtMu.Unlock()
			return study, nil
		},
	}
	if job.batch {
		opts.OnRow = func(u wideleak.RowUpdate) {
			job.appendRow(renderRow(u.Spec, u.Row))
			s.metrics.addBatchRow()
		}
	}
	wallStart := time.Now()
	batch, err := wideleak.ExecuteBatch(ctx, job.Specs, opts)
	if err != nil {
		return nil, err
	}

	res := &jobResult{
		tables:          make([]map[string][]byte, len(batch.Tables)),
		frames:          job.snapshotFrames(),
		stats:           batch.Stats,
		wall:            time.Since(wallStart),
		cellsRecombined: batch.Stats.CellsExecuted == 0 && batch.Stats.WorldsBuilt == 0,
	}
	for i, table := range batch.Tables {
		res.rows += len(table.Rows)
		res.tables[i] = make(map[string][]byte, len(wideleak.TableFormats()))
		for _, format := range wideleak.TableFormats() {
			out, err := table.Encode(format)
			if err != nil {
				return nil, fmt.Errorf("serve: encode spec %d as %s: %w", i, format, err)
			}
			res.tables[i][format] = out
		}
	}
	for _, world := range built {
		res.virtual += world.Clock().Now()
	}
	s.metrics.addCellStats(batch.Stats)
	if res.cellsRecombined {
		s.metrics.addCellRecombined()
	}
	return res, nil
}

// clearActive drops the job from the coalescing index.
func (s *Server) clearActive(job *Job) {
	s.mu.Lock()
	if s.active[job.Key] == job {
		delete(s.active, job.Key)
	}
	s.mu.Unlock()
}

// maxJobRecords bounds the job table: past it, registering a job drops
// the oldest terminal records (see httpkit.JobTable), whose IDs then
// answer 410. At the benchmark's highest rate (~2000 cache-hit jobs a
// second) that keeps a finished job readable for about two seconds.
const maxJobRecords = 4096

func newJobTable(max int) *httpkit.JobTable[*Job] {
	return httpkit.NewJobTable(max,
		func(j *Job) string { return j.ID },
		func(j *Job) bool { return j.State().terminal() })
}

// newJobLocked mints a queued job; the caller holds s.mu. Its ID is
// issued when it is registered.
func (s *Server) newJobLocked(specs []wideleak.RunSpec, key string, concurrency int, batch bool) *Job {
	return &Job{
		Key:         key,
		Specs:       specs,
		batch:       batch,
		concurrency: concurrency,
		metrics:     s.metrics,
		state:       JobQueued,
		submitted:   time.Now(),
	}
}

// registerLocked issues the job's ID — s000001-<key prefix> for a
// study, b000001 for a batch, one sequence each — and adds it to the
// table; the caller holds s.mu. Only registered jobs take a sequence
// number, so every number up to the last one issued named a job.
func (s *Server) registerLocked(job *Job) {
	if job.batch {
		s.batchSeq++
		job.ID = fmt.Sprintf("b%06d", s.batchSeq)
	} else {
		s.seq++
		job.ID = fmt.Sprintf("s%06d-%.8s", s.seq, job.Key)
	}
	s.jobs.Add(job)
}

// enqueueLocked registers a job and hands it to the worker pool. A full
// queue sheds the job instead: it is never registered, and the caller
// answers with writeShed. The caller holds s.mu (so the queue is open).
func (s *Server) enqueueLocked(job *Job) bool {
	// Every send happens under s.mu, so a queue with room now still has
	// room after the job is registered.
	if len(s.queue) == cap(s.queue) {
		s.metrics.addShed()
		return false
	}
	s.registerLocked(job)
	s.queue <- job
	return true
}

// writeShed answers a submission the full queue refused.
func writeShed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpkit.WriteError(w, http.StatusTooManyRequests, "job queue is full")
}

// lookup resolves the {id} path value to a study (batch false) or a
// batch (batch true). It answers 410 for an ID this server issued and
// has since dropped from its job table, and 404 for any other unknown
// ID.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, batch bool) *Job {
	id := r.PathValue("id")
	prefix, seq := "s", &s.seq
	if batch {
		prefix, seq = "b", &s.batchSeq
	}
	s.mu.Lock()
	job, ok := s.jobs.Get(id)
	issued := *seq
	s.mu.Unlock()
	if ok && job.batch == batch {
		return job
	}
	if n, ok := httpkit.IDSeq(id, prefix); ok && n <= issued {
		httpkit.WriteError(w, http.StatusGone, noun(batch)+" "+id+" is over and no longer held")
		return nil
	}
	httpkit.WriteError(w, http.StatusNotFound, "no such "+noun(batch))
	return nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /v1/studies", s.handleList(false))
	mux.HandleFunc("GET /v1/studies/{id}", s.handleStatus(false))
	mux.HandleFunc("DELETE /v1/studies/{id}", s.handleCancel(false))
	mux.HandleFunc("GET /v1/studies/{id}/table", s.handleTable(false))
	mux.HandleFunc("GET /v1/studies/{id}/events", s.handleFrames(false))
	mux.HandleFunc("POST /v1/batches", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches", s.handleList(true))
	mux.HandleFunc("GET /v1/batches/{id}", s.handleStatus(true))
	mux.HandleFunc("DELETE /v1/batches/{id}", s.handleCancel(true))
	mux.HandleFunc("GET /v1/batches/{id}/rows", s.handleFrames(true))
	mux.HandleFunc("GET /v1/batches/{id}/tables/{spec}", s.handleTable(true))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// SubmitResponse is the wire shape of POST /v1/studies.
type SubmitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Cached    bool     `json:"cached"`
	Coalesced bool     `json:"coalesced,omitempty"`
	StatusURL string   `json:"status_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec wideleak.RunSpec
	if !httpkit.DecodeJSON(w, r, 1<<20, &spec) {
		return
	}
	canonical, err := spec.Canonicalize()
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := canonical.Key()
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpkit.WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	// Content-addressed cache: an identical canonical request is served
	// without any device work — the job is born done, carrying the
	// producing run's frames. The provenance headers let a fleet harness
	// attribute the hit to its cache tier.
	if res, ok := s.cache.Get(key); ok {
		job := s.newJobLocked([]wideleak.RunSpec{canonical}, key, 0, false)
		job.cached = true
		job.state = JobDone
		job.result = res
		job.frames = res.frames
		s.registerLocked(job)
		s.metrics.addCacheHit()
		s.mu.Unlock()
		w.Header().Set(HeaderCacheTier, "hit")
		w.Header().Set(HeaderWorldCache, worldCacheLabel(res.cellsRecombined))
		httpkit.WriteJSON(w, http.StatusOK, SubmitResponse{
			ID: job.ID, State: JobDone, Cached: true, StatusURL: job.path(),
		})
		return
	}

	// Coalesce with an identical queued/running job instead of doing the
	// same device work twice.
	if live := s.active[key]; live != nil {
		state := live.State()
		s.metrics.addCoalesced()
		s.mu.Unlock()
		w.Header().Set(HeaderCacheTier, "coalesced")
		httpkit.WriteJSON(w, http.StatusAccepted, SubmitResponse{
			ID: live.ID, State: state, Coalesced: true, StatusURL: live.path(),
		})
		return
	}

	job := s.newJobLocked([]wideleak.RunSpec{canonical}, key, canonical.Concurrency, false)
	if !s.enqueueLocked(job) {
		s.mu.Unlock()
		writeShed(w)
		return
	}
	s.active[key] = job
	s.metrics.addSubmitted()
	s.metrics.addCacheMiss()
	s.mu.Unlock()
	w.Header().Set(HeaderCacheTier, "miss")
	w.Header().Set("Location", job.path())
	httpkit.WriteJSON(w, http.StatusAccepted, SubmitResponse{
		ID: job.ID, State: JobQueued, StatusURL: job.path(),
	})
}

// handleList lists studies (or batches), newest first.
func (s *Server) handleList(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var out []any
		s.mu.Lock()
		jobs := s.jobs.All()
		for i := len(jobs) - 1; i >= 0; i-- {
			if job := jobs[i]; job.batch == batch {
				out = append(out, job.status())
			}
		}
		s.mu.Unlock()
		if out == nil {
			out = []any{}
		}
		httpkit.WriteJSON(w, http.StatusOK, out)
	}
}

func (s *Server) handleStatus(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if job := s.lookup(w, r, batch); job != nil {
			setProvenanceHeaders(w, job)
			httpkit.WriteJSON(w, http.StatusOK, job.status())
		}
	}
}

func (s *Server) handleCancel(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		if !job.requestCancel() {
			httpkit.WriteError(w, http.StatusConflict, fmt.Sprintf("%s is already %s", noun(batch), job.State()))
			return
		}
		s.clearActive(job)
		httpkit.WriteJSON(w, http.StatusAccepted, map[string]any{"id": job.ID, "state": job.State()})
	}
}

// handleTable serves one spec's table of a done job: a study's only
// table, or the batch table the {spec} index names.
func (s *Server) handleTable(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		idx := 0
		if batch {
			var err error
			idx, err = strconv.Atoi(r.PathValue("spec"))
			if err != nil || idx < 0 || idx >= len(job.Specs) {
				httpkit.WriteError(w, http.StatusNotFound, fmt.Sprintf("batch has specs 0..%d", len(job.Specs)-1))
				return
			}
		}
		format := r.URL.Query().Get("format")
		if format == "" || format == "text" {
			format = "txt"
		}
		res := job.snapshotResult()
		if res == nil {
			httpkit.WriteError(w, http.StatusConflict, fmt.Sprintf("%s is %s, not done", noun(batch), job.State()))
			return
		}
		setProvenanceHeaders(w, job)
		out, ok := res.tables[idx][format]
		if !ok {
			httpkit.WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (supported: txt, csv, json)", format))
			return
		}
		switch format {
		case "json":
			w.Header().Set("Content-Type", "application/json")
		case "csv":
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		w.Write(out)
	}
}

// handleFrames serves a job's frame log — a study's probe events, a
// batch's rows — as a JSON array of what is logged so far, or with
// ?stream=1 as server-sent events until the job is terminal.
func (s *Server) handleFrames(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := s.lookup(w, r, batch)
		if job == nil {
			return
		}
		if r.URL.Query().Get("stream") != "" {
			streamFrames(w, r, job)
			return
		}
		out := []byte{'['}
		for i, f := range job.snapshotFrames() {
			if i > 0 {
				out = append(out, ',')
			}
			out = append(out, f.data...)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(out, ']'))
	}
}

// streamFrames serves the frame log as server-sent events: every frame
// from the first, then live frames as they are logged, then a final
// `event: done` carrying the terminal state. Each reader keeps its own
// position in the append-only log, so a stalled reader only falls
// behind: it never loses a frame, and it never holds up the job.
func streamFrames(w http.ResponseWriter, r *http.Request, job *Job) {
	stream, ok := httpkit.NewEventStream(w)
	if !ok {
		return
	}
	for pos := 0; ; {
		frames, state, wake := job.framesFrom(pos)
		for _, f := range frames {
			if stream.Send(f.event, f.data) != nil {
				return
			}
		}
		pos += len(frames)
		switch {
		case wake != nil:
			select {
			case <-wake:
			case <-r.Context().Done():
				return
			}
		case len(frames) == 0:
			stream.Done(string(state))
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteMetrics(w, s.metrics.Render())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		httpkit.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	httpkit.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// setProvenanceHeaders stamps a done study's cache attribution onto the
// response; live jobs get no provenance (it is unknown until they run),
// and batches are never result-cached, so they get none either.
func setProvenanceHeaders(w http.ResponseWriter, job *Job) {
	cached, recombined, ok := job.provenance()
	if !ok || job.batch {
		return
	}
	if cached {
		w.Header().Set(HeaderCacheTier, "hit")
	} else {
		w.Header().Set(HeaderCacheTier, "miss")
	}
	w.Header().Set(HeaderWorldCache, worldCacheLabel(recombined))
}
