package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpkit"
	"repro/internal/serve"
	"repro/internal/wideleak"
)

// Fleet-level response headers stamped by the router.
const (
	// HeaderReplica names the replica that served (or is running) the
	// request — the affinity tests assert it. A batch submission names
	// the replica of each of its parts, comma-separated, in part order.
	HeaderReplica = "X-Fleet-Replica"
	// HeaderRoute is "owner" when a submission landed on its ring owner,
	// "spill" when it (or any of a batch's parts) walked to a successor.
	HeaderRoute = "X-Fleet-Route"
)

// Ring and health constants.
const (
	// vnodes is the virtual-node count per replica on the hash ring.
	vnodes = 128
	// loadFactor bounds per-replica load during placement: a part skips
	// past an owner whose outstanding proxied requests exceed
	// loadFactor × fleet average + 1.
	loadFactor = 1.25
	// healthTimeout bounds one active health probe.
	healthTimeout = time.Second
)

// Options tunes the router. Zero values select the defaults.
type Options struct {
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	return o
}

// Member names one wideleakd replica for the router.
type Member struct {
	ID  string // stable ring identity ("r0", "r1", ...)
	URL string // base URL, e.g. "http://127.0.0.1:43127"
}

// replica is the router's live view of one member.
type replica struct {
	id   string
	base string

	healthy  atomic.Bool
	inflight atomic.Int64 // outstanding proxied requests (the load bound's input)
}

func (r *replica) isHealthy() bool { return r.healthy.Load() }

// fleetJob is the router's record of one submitted job. A study is one
// part posted to /v1/studies; a batch is split by the ring owner of its
// specs' worlds into parts posted to /v1/batches. A study keeps nothing
// beyond its part: its spec lives in the part's body.
type fleetJob struct {
	id    string
	batch bool
	specs []wideleak.RunSpec // a batch's canonical specs, in fleet spec order
	parts []*fleetPart
}

// fleetPart is one placement of a job: the canonical body it posts (a
// study spec or a sub-batch), replayed on failover, the fleet spec
// indexes a batch part runs in its local order, and where it currently
// lives.
type fleetPart struct {
	worldKey string // ring address
	body     []byte
	specIdx  []int // nil for a study

	mu        sync.Mutex // guards replicaID/remoteID/cancelled/over across failovers
	replicaID string
	remoteID  string
	cancelled bool // a DELETE took effect or could not reach the replica; never rerun
	over      bool // a replica answer showed the part terminal (or no longer held)
}

func (p *fleetPart) location() (replicaID, remoteID string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicaID, p.remoteID
}

// isCancelled reports whether a DELETE took effect or could not reach
// the part's replica.
func (p *fleetPart) isCancelled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cancelled
}

// observe records a state a replica reported for the part; a terminal
// one makes the part over.
func (p *fleetPart) observe(state serve.JobState) {
	if state == serve.JobDone || state == serve.JobFailed || state == serve.JobCanceled {
		p.markOver()
	}
}

func (p *fleetPart) markOver() {
	p.mu.Lock()
	p.over = true
	p.mu.Unlock()
}

// terminal reports whether every part of the job is over. The router
// learns that only from replica answers it relays (a terminal status, a
// table, a stream that ran to its end, an ID the replica no longer
// holds), so a job nobody reads again stays live in its table.
func (j *fleetJob) terminal() bool {
	for _, p := range j.parts {
		p.mu.Lock()
		over := p.over
		p.mu.Unlock()
		if !over {
			return false
		}
	}
	return true
}

// locate finds the part running fleet spec idx and the spec's index
// there.
func (j *fleetJob) locate(idx int) (*fleetPart, int) {
	for _, part := range j.parts {
		for local, fi := range part.specIdx {
			if fi == idx {
				return part, local
			}
		}
	}
	return nil, 0
}

// collection is the API path a job kind lives under, on the router and
// on every replica alike.
func collection(batch bool) string {
	if batch {
		return "/v1/batches"
	}
	return "/v1/studies"
}

// Router is the fleet front end: it owns the ring, the replica health
// view, the fleet job table and the fleet metrics. Create with
// NewRouter, expose via Handler, stop with Close.
type Router struct {
	opts    Options
	ring    *ring
	metrics *Metrics

	client       *http.Client // proxying (no overall timeout: SSE streams)
	healthClient *http.Client

	replicas map[string]*replica // fixed at construction, read without a lock

	mu       sync.Mutex // guards jobs and the sequences
	jobs     *httpkit.JobTable[*fleetJob]
	seq      int64 // fleet study IDs issued
	batchSeq int64 // fleet batch IDs issued

	closed chan struct{}
	wg     sync.WaitGroup
}

// NewRouter builds a router over a fixed member set and starts the
// active health loop.
func NewRouter(members []Member, opts Options) (*Router, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	opts = opts.withDefaults()
	ids := make([]string, 0, len(members))
	replicas := make(map[string]*replica, len(members))
	for _, m := range members {
		if m.ID == "" || m.URL == "" {
			return nil, fmt.Errorf("fleet: member needs both id and url, got %+v", m)
		}
		if _, dup := replicas[m.ID]; dup {
			return nil, fmt.Errorf("fleet: duplicate member id %q", m.ID)
		}
		ids = append(ids, m.ID)
		rep := &replica{id: m.ID, base: strings.TrimRight(m.URL, "/")}
		rep.healthy.Store(true)
		replicas[m.ID] = rep
	}
	rt := &Router{
		opts:     opts,
		ring:     newRing(ids, vnodes),
		replicas: replicas,
		jobs:     newJobTable(maxJobRecords),
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost:   64,
			ResponseHeaderTimeout: 2 * time.Minute,
		}},
		healthClient: &http.Client{Timeout: healthTimeout},
		closed:       make(chan struct{}),
	}
	rt.metrics = newFleetMetrics(
		rt.perReplica(func(rep *replica) int64 {
			if rep.isHealthy() {
				return 1
			}
			return 0
		}),
		rt.perReplica(func(rep *replica) int64 { return rep.inflight.Load() }),
		rt.ring.shares)
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop. In-flight proxied requests finish on
// their own.
func (rt *Router) Close() {
	select {
	case <-rt.closed:
	default:
		close(rt.closed)
	}
	rt.wg.Wait()
}

// Metrics exposes the fleet instrumentation.
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// Sequence returns the ring-walk order for a world key: element 0 is
// the owner, element 1 the spill successor. Tests assert against it.
func (rt *Router) Sequence(worldKey string) []string { return rt.ring.sequence(worldKey) }

// OwnerOf returns the replica owning a world key.
func (rt *Router) OwnerOf(worldKey string) string { return rt.ring.owner(worldKey) }

// HealthyIDs lists the replicas the router currently considers healthy.
func (rt *Router) HealthyIDs() []string {
	var ids []string
	for id, rep := range rt.replicas {
		if rep.isHealthy() {
			ids = append(ids, id)
		}
	}
	return ids
}

// perReplica samples one value per replica for a live gauge.
func (rt *Router) perReplica(value func(*replica) int64) func() map[string]int64 {
	return func() map[string]int64 {
		out := make(map[string]int64, len(rt.replicas))
		for id, rep := range rt.replicas {
			out[id] = value(rep)
		}
		return out
	}
}

// healthLoop actively probes every replica's /healthz on a fixed period.
// Passive observations (transport errors while proxying) flip health
// immediately; the active loop both detects silent death and revives a
// replica that recovered.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.closed:
			return
		case <-ticker.C:
		}
		var wg sync.WaitGroup
		for _, rep := range rt.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rt.probe(rep)
			}(rep)
		}
		wg.Wait()
	}
}

// probe runs one active health check. Any failure condemns the replica
// at once; draining replicas answer 503 and stop getting traffic.
func (rt *Router) probe(rep *replica) {
	resp, err := rt.healthClient.Get(rep.base + "/healthz")
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	drainBody(resp)
	rep.healthy.Store(resp.StatusCode == http.StatusOK)
}

// lost records a transport failure talking to a replica: it is counted
// and condemned until a health probe or a placement revives it.
func (rt *Router) lost(rep *replica) {
	rt.metrics.addProxyError(rep.id)
	rep.healthy.Store(false)
}

// Handler returns the fleet HTTP front end. The API mirrors wideleakd's,
// with fleet-level job IDs.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", rt.handleSubmit)
	mux.HandleFunc("GET /v1/studies", rt.handleList(false))
	mux.HandleFunc("GET /v1/studies/{id}", rt.handleStudy(""))
	mux.HandleFunc("DELETE /v1/studies/{id}", rt.handleStudy(""))
	mux.HandleFunc("GET /v1/studies/{id}/table", rt.handleStudy("/table"))
	mux.HandleFunc("GET /v1/studies/{id}/events", rt.handleStudy("/events"))
	mux.HandleFunc("POST /v1/batches", rt.handleBatchSubmit)
	mux.HandleFunc("GET /v1/batches", rt.handleList(true))
	mux.HandleFunc("GET /v1/batches/{id}", rt.handleBatchStatus)
	mux.HandleFunc("DELETE /v1/batches/{id}", rt.handleBatchCancel)
	mux.HandleFunc("GET /v1/batches/{id}/rows", rt.handleBatchRows)
	mux.HandleFunc("GET /v1/batches/{id}/tables/{spec}", rt.handleBatchTable)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	return rt.timed(mux)
}

// timed wraps the mux with the fleet latency histogram.
func (rt *Router) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start).Seconds()
		rt.metrics.observeRequest(elapsed)
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/studies") {
			rt.metrics.observeSubmit(elapsed)
		}
	})
}

// statusError is a failure the router answers with its own HTTP status.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

var (
	errAllShed   = &statusError{http.StatusTooManyRequests, "every replica shed the submission"}
	errNoReplica = &statusError{http.StatusServiceUnavailable, "no healthy replica"}
)

// fail answers a routing failure: a statusError with its status, a
// fleet-wide shed with 429 + Retry-After, anything else with 502.
func (rt *Router) fail(w http.ResponseWriter, err error) {
	switch err {
	case errAllShed:
		rt.metrics.addShed()
		w.Header().Set("Retry-After", "1")
	case errNoReplica:
		rt.metrics.addUnroutable()
	}
	status := http.StatusBadGateway
	if se, ok := err.(*statusError); ok {
		status = se.status
	}
	httpkit.WriteError(w, status, err.Error())
}

// fleetSubmitResponse is the router's wire shape for POST /v1/studies —
// wideleakd's, with the fleet job ID substituted and the replica named.
type fleetSubmitResponse struct {
	serve.SubmitResponse
	Replica string `json:"replica"`
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
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
	worldKey, err := canonical.WorldKey()
	if err != nil {
		httpkit.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, err := json.Marshal(canonical)
	if err != nil {
		httpkit.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}

	job := &fleetJob{parts: []*fleetPart{{worldKey: worldKey, body: body}}}
	placed, ok := rt.submit(w, r, job, key)
	if !ok {
		return
	}
	p := placed[0]
	copyProvenanceHeaders(w.Header(), p.header)
	remote := p.remote
	remote.ID, remote.StatusURL = job.id, "/v1/studies/"+job.id
	httpkit.WriteJSON(w, p.status, fleetSubmitResponse{SubmitResponse: remote, Replica: p.rep.id})
}

// placement is where one part landed, with the replica's answer.
type placement struct {
	rep    *replica
	spill  bool // landed off the world key's ring owner
	remote serve.SubmitResponse
	header http.Header
	status int
}

// submit places every part of a new job on the ring, then registers the
// job under a fleet ID — f000001-<key prefix> for a study, fb000001 for
// a batch, one sequence each — and stamps the route headers. A job
// exists whole or not at all: when a part cannot be placed, the parts
// already placed are cancelled and the refusal is answered.
func (rt *Router) submit(w http.ResponseWriter, r *http.Request, job *fleetJob, key string) ([]placement, bool) {
	placed := make([]placement, 0, len(job.parts))
	for _, part := range job.parts {
		p, err := rt.place(r.Context(), job.batch, part)
		if err != nil {
			rt.cancelParts(context.Background(), job, job.parts[:len(placed)])
			rt.fail(w, err)
			return nil, false
		}
		part.replicaID, part.remoteID = p.rep.id, p.remote.ID
		part.observe(p.remote.State) // a result-cache hit is born done
		placed = append(placed, p)
	}

	rt.mu.Lock()
	if job.batch {
		rt.batchSeq++
		job.id = fmt.Sprintf("fb%06d", rt.batchSeq)
	} else {
		rt.seq++
		job.id = fmt.Sprintf("f%06d-%.8s", rt.seq, key)
	}
	rt.jobs.Add(job)
	rt.mu.Unlock()

	ids := make([]string, len(placed))
	route := "owner"
	for i, p := range placed {
		ids[i] = p.rep.id
		if p.spill {
			route = "spill"
		}
	}
	w.Header().Set(HeaderReplica, strings.Join(ids, ","))
	w.Header().Set(HeaderRoute, route)
	return placed, true
}

// place puts one part on the ring: its canonical body is posted to the
// world key's owner first, then — on a transport error, a 429 shed or a
// 503 drain — to each successor in ring order. It is the one placement
// path for studies, batch parts and failovers, and counts each landing
// in wideleakfleet_routed_total (and _spilled_total when off-owner).
func (rt *Router) place(ctx context.Context, batch bool, part *fleetPart) (placement, error) {
	sawShed := false
	for _, rep := range rt.submitOrder(part.worldKey) {
		resp, err := rt.forward(ctx, rep, http.MethodPost, collection(batch), bytes.NewReader(part.body))
		if err != nil {
			rt.lost(rep)
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			drainBody(resp)
			rt.metrics.addReplicaShed(rep.id)
			sawShed = true
		case http.StatusServiceUnavailable:
			drainBody(resp)
			rep.healthy.Store(false) // draining: let the health loop confirm
		case http.StatusOK, http.StatusAccepted:
			p := placement{rep: rep, spill: rep.id != rt.ring.owner(part.worldKey), header: resp.Header, status: resp.StatusCode}
			err := json.NewDecoder(resp.Body).Decode(&p.remote)
			drainBody(resp)
			if err != nil || p.remote.ID == "" {
				rep.healthy.Store(false)
				continue
			}
			rep.healthy.Store(true)
			rt.metrics.addRouted(rep.id, p.spill)
			return p, nil
		default:
			// The replica answered coherently but negatively (400, ...).
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			drainBody(resp)
			if e.Error == "" {
				e.Error = http.StatusText(resp.StatusCode)
			}
			return placement{}, &statusError{resp.StatusCode, e.Error}
		}
	}
	if sawShed {
		return placement{}, errAllShed
	}
	return placement{}, errNoReplica
}

// submitOrder builds the attempt order for a world key: healthy replicas
// in ring-walk order, rotated past any over-loaded prefix (bounded-load
// consistent hashing); the skipped prefix stays reachable as a last
// resort. With no healthy replica at all, every replica is tried in ring
// order — a passive success revives one.
func (rt *Router) submitOrder(worldKey string) []*replica {
	seq := rt.ring.sequence(worldKey)
	healthy := make([]*replica, 0, len(seq))
	all := make([]*replica, 0, len(seq))
	for _, id := range seq {
		rep := rt.replicas[id]
		all = append(all, rep)
		if rep.isHealthy() {
			healthy = append(healthy, rep)
		}
	}
	if len(healthy) == 0 {
		return all
	}
	var total int64
	for _, rep := range healthy {
		total += rep.inflight.Load()
	}
	limit := int64(loadFactor*float64(total)/float64(len(healthy))) + 1
	start := 0
	for i, rep := range healthy {
		if rep.inflight.Load() <= limit {
			start = i
			break
		}
	}
	order := make([]*replica, 0, len(healthy))
	order = append(order, healthy[start:]...)
	return append(order, healthy[:start]...)
}

// proxy sends one request to the replica holding a part: method on the
// part's replica-side job path plus suffix. When that replica is gone —
// marked unhealthy, or a transport error — the part fails over and the
// request is retried once on its new replica. It is the one proxy path
// for every job endpoint. A DELETE never fails over: a cancel must not
// rerun the job it cancels. It marks the part cancelled when it took
// effect (202) or could not be delivered, so no later request reruns it.
func (rt *Router) proxy(ctx context.Context, job *fleetJob, part *fleetPart, method, suffix string) (*http.Response, *replica, error) {
	resubmit := method != http.MethodDelete
	for attempt := 0; attempt < 2; attempt++ {
		repID, remoteID := part.location()
		rep := rt.replicas[repID]
		if resubmit && !rep.isHealthy() {
			if err := rt.failover(ctx, job.batch, part); err != nil {
				return nil, nil, err
			}
			continue
		}
		resp, err := rt.forward(ctx, rep, method, collection(job.batch)+"/"+remoteID+suffix, nil)
		if !resubmit && (err != nil || resp.StatusCode == http.StatusAccepted) {
			part.mu.Lock()
			part.cancelled = true
			part.mu.Unlock()
		}
		if err == nil {
			if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone {
				part.markOver() // the replica no longer holds the job
			}
			return resp, rep, nil
		}
		if ctx.Err() != nil {
			return nil, nil, ctx.Err() // client went away, not replica death
		}
		rt.lost(rep)
		if !resubmit {
			return nil, nil, &statusError{http.StatusServiceUnavailable, fmt.Sprintf("replica %s lost: %v", rep.id, err)}
		}
		if err := rt.failover(ctx, job.batch, part); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, &statusError{http.StatusBadGateway, "replica lost and failover did not converge"}
}

// failover reroutes a part whose replica died: its canonical body is
// placed again through the ring (the dead replica is unhealthy, so the
// walk lands on its successor) and the part is remapped. Determinism
// makes the rerun byte-identical, so the client never notices beyond
// latency. A cancelled part is never rerun: it answers 503.
func (rt *Router) failover(ctx context.Context, batch bool, part *fleetPart) error {
	part.mu.Lock()
	defer part.mu.Unlock()
	// Another request may have failed this part over already; if its
	// current replica is healthy again, just retry against it.
	if rt.replicas[part.replicaID].isHealthy() {
		return nil
	}
	if part.cancelled {
		return &statusError{http.StatusServiceUnavailable, fmt.Sprintf("replica %s lost; the part was cancelled, so it is not resubmitted", part.replicaID)}
	}
	p, err := rt.place(ctx, batch, part)
	if err != nil {
		return &statusError{http.StatusServiceUnavailable, fmt.Sprintf("replica lost and failover failed: %v", err)}
	}
	part.replicaID, part.remoteID = p.rep.id, p.remote.ID
	rt.metrics.addFailover()
	return nil
}

// getPart proxies a GET of one part's path plus suffix, failing over as
// needed, and decodes the replica's 200 JSON answer into v.
func (rt *Router) getPart(ctx context.Context, job *fleetJob, part *fleetPart, suffix string, v any) error {
	resp, rep, err := rt.proxy(ctx, job, part, http.MethodGet, suffix)
	if err != nil {
		return err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica %s answered %d", rep.id, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// cancelParts cancels parts where they run, never resubmitting one
// whose replica is gone. Every part is tried; the first part that could
// not be reached is reported.
func (rt *Router) cancelParts(ctx context.Context, job *fleetJob, parts []*fleetPart) error {
	var first error
	for _, part := range parts {
		resp, _, err := rt.proxy(ctx, job, part, http.MethodDelete, "")
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		drainBody(resp)
	}
	return first
}

// forward performs one proxied request against a replica, accounting
// its in-flight load.
func (rt *Router) forward(ctx context.Context, rep *replica, method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, rep.base+path, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rep.inflight.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		rep.inflight.Add(-1)
		return nil, err
	}
	// The caller owns resp.Body; wrap Close to release the load slot when
	// the body is fully consumed or abandoned.
	resp.Body = &accountedBody{ReadCloser: resp.Body, release: func() { rep.inflight.Add(-1) }}
	return resp, nil
}

// accountedBody releases a replica load slot exactly once on Close.
type accountedBody struct {
	io.ReadCloser
	once    sync.Once
	release func()
}

func (b *accountedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.release)
	return err
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// maxJobRecords bounds the fleet job table: past it, registering a job
// drops the oldest terminal records (see httpkit.JobTable), whose IDs
// then answer 410.
const maxJobRecords = 4096

func newJobTable(max int) *httpkit.JobTable[*fleetJob] {
	return httpkit.NewJobTable(max,
		func(j *fleetJob) string { return j.id },
		(*fleetJob).terminal)
}

// lookup resolves the {id} path value to a study (batch false) or a
// batch (batch true). It answers 410 for a fleet ID the router issued
// and has since dropped from its job table, and 404 for any other
// unknown ID.
func (rt *Router) lookup(w http.ResponseWriter, r *http.Request, batch bool) *fleetJob {
	id := r.PathValue("id")
	noun, prefix, seq := "study", "f", &rt.seq
	if batch {
		noun, prefix, seq = "batch", "fb", &rt.batchSeq
	}
	rt.mu.Lock()
	job, ok := rt.jobs.Get(id)
	issued := *seq
	rt.mu.Unlock()
	if ok && job.batch == batch {
		return job
	}
	if n, ok := httpkit.IDSeq(id, prefix); ok && n <= issued {
		httpkit.WriteError(w, http.StatusGone, noun+" "+id+" is over and no longer held")
		return nil
	}
	httpkit.WriteError(w, http.StatusNotFound, "no such "+noun)
	return nil
}

// handleStudy relays a study's status, table, events or cancel to the
// replica holding its one part.
func (rt *Router) handleStudy(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job := rt.lookup(w, r, false)
		if job == nil {
			return
		}
		path := suffix
		if r.URL.RawQuery != "" {
			path += "?" + r.URL.RawQuery
		}
		part := job.parts[0]
		resp, rep, err := rt.proxy(r.Context(), job, part, r.Method, path)
		if err != nil && r.Method == http.MethodGet && part.isCancelled() {
			relayCancelledStudy(w, r, job, suffix, err)
			return
		}
		if err != nil {
			rt.fail(w, err)
			return
		}
		if r.Method != http.MethodGet || resp.StatusCode != http.StatusOK {
			relayResponse(w, resp, rep.id)
			return
		}
		// A table is served only for a done study, and an event stream
		// ends only once the study is terminal.
		switch suffix {
		case "":
			part.observe(relayStudyStatus(w, resp, rep.id, job.id))
		case "/table":
			relayResponse(w, resp, rep.id)
			part.markOver()
		default:
			if complete := relayResponse(w, resp, rep.id); complete && r.URL.Query().Get("stream") != "" {
				part.markOver()
			}
		}
	}
}

// relayCancelledStudy answers a read of a cancelled study whose replica
// cannot be reached. The study never runs again, so it cannot end any
// other way: the router answers as that replica would for a canceled
// study (status canceled, table 409, an event log with no frames) and
// counts the part over. err says why the replica was not read.
func relayCancelledStudy(w http.ResponseWriter, r *http.Request, job *fleetJob, suffix string, err error) {
	part := job.parts[0]
	repID, _ := part.location()
	w.Header().Set(HeaderReplica, repID)
	switch suffix {
	case "":
		st := serve.StudyStatus{ID: job.id, State: serve.JobCanceled, Error: err.Error()}
		// The body is the canonical spec the router encoded at submit.
		_ = json.Unmarshal(part.body, &st.Request)
		httpkit.WriteJSON(w, http.StatusOK, st)
	case "/table":
		httpkit.WriteError(w, http.StatusConflict, "study is "+string(serve.JobCanceled)+", not done")
	default:
		if r.URL.Query().Get("stream") == "" {
			httpkit.WriteJSON(w, http.StatusOK, []json.RawMessage{})
		} else if stream, ok := httpkit.NewEventStream(w); ok {
			stream.Done(string(serve.JobCanceled))
		}
	}
	part.markOver()
}

// relayResponse copies a replica response to the client, flushing
// eagerly for event streams so SSE stays live through the router. It
// reports whether the whole body reached the client: for an event
// stream, that the replica ended it.
func relayResponse(w http.ResponseWriter, resp *http.Response, replicaID string) bool {
	defer resp.Body.Close()
	relayHeaders(w, resp, replicaID)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		return flushCopy(w, resp.Body)
	}
	_, err := io.Copy(w, resp.Body)
	return err == nil
}

// relayStudyStatus relays a replica's study status document with the
// replica-local job ID and URLs rewritten to the fleet job's, so every
// link in it resolves through the router, and returns the study's
// state.
func relayStudyStatus(w http.ResponseWriter, resp *http.Response, replicaID, fleetID string) serve.JobState {
	defer resp.Body.Close()
	var st serve.StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		httpkit.WriteError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", replicaID, err))
		return ""
	}
	st.ID = fleetID
	if st.TableURL != "" {
		st.TableURL = "/v1/studies/" + fleetID + "/table"
	}
	if st.EventsURL != "" {
		st.EventsURL = "/v1/studies/" + fleetID + "/events"
	}
	relayHeaders(w, resp, replicaID)
	httpkit.WriteJSON(w, resp.StatusCode, st)
	return st.State
}

// relayHeaders copies the replica headers a client may act on and names
// the replica.
func relayHeaders(w http.ResponseWriter, resp *http.Response, replicaID string) {
	copyProvenanceHeaders(w.Header(), resp.Header)
	for _, h := range []string{"Content-Type", "Cache-Control", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(HeaderReplica, replicaID)
}

// flushCopy streams body to the client, flushing after every chunk, and
// reports whether it copied everything up to the body's clean end.
func flushCopy(w http.ResponseWriter, body io.Reader) bool {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return err == io.EOF
		}
	}
}

// copyProvenanceHeaders forwards the daemon's cache-attribution headers.
func copyProvenanceHeaders(dst, src http.Header) {
	for _, h := range []string{serve.HeaderCacheTier, serve.HeaderWorldCache} {
		if v := src.Get(h); v != "" {
			dst.Set(h, v)
		}
	}
}

// replicaListing is one replica's slice of the fleet-wide listing of
// studies or batches.
type replicaListing struct {
	Replica string          `json:"replica"`
	Error   string          `json:"error,omitempty"`
	Studies json.RawMessage `json:"studies,omitempty"`
	Batches json.RawMessage `json:"batches,omitempty"`
}

// handleList gathers every replica's listing of studies (or batches),
// in ring member order.
func (rt *Router) handleList(batch bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		out := make([]replicaListing, 0, len(rt.ring.ids))
		for _, id := range rt.ring.ids {
			out = append(out, rt.listing(r.Context(), rt.replicas[id], batch))
		}
		httpkit.WriteJSON(w, http.StatusOK, out)
	}
}

func (rt *Router) listing(ctx context.Context, rep *replica, batch bool) replicaListing {
	entry := replicaListing{Replica: rep.id}
	if !rep.isHealthy() {
		entry.Error = "unhealthy"
		return entry
	}
	resp, err := rt.forward(ctx, rep, http.MethodGet, collection(batch), nil)
	if err != nil {
		rt.lost(rep)
		entry.Error = err.Error()
		return entry
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil || resp.StatusCode != http.StatusOK:
		entry.Error = fmt.Sprintf("status %d", resp.StatusCode)
	case batch:
		entry.Batches = raw
	default:
		entry.Studies = raw
	}
	return entry
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteMetrics(w, rt.metrics.Render())
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy := len(rt.HealthyIDs())
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	httpkit.WriteJSON(w, status, map[string]any{
		"status":   map[bool]string{true: "ok", false: "no healthy replica"}[healthy > 0],
		"healthy":  healthy,
		"replicas": len(rt.replicas),
	})
}
