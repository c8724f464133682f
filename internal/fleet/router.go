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
	// request — the affinity tests assert it.
	HeaderReplica = "X-Fleet-Replica"
	// HeaderRoute is "owner" when the submission landed on its ring
	// owner, "spill" when it walked to a successor.
	HeaderRoute = "X-Fleet-Route"
)

// Options tunes the router. Zero values select the defaults.
type Options struct {
	// VNodes is the virtual-node count per replica on the hash ring
	// (default 128).
	VNodes int
	// LoadFactor bounds per-replica load during routing: a submission
	// skips past an owner whose outstanding proxied requests exceed
	// LoadFactor × fleet average + 1 (default 1.25).
	LoadFactor float64
	// HealthInterval is the active /healthz probe period (default 500ms).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive failures (active or passive)
	// flip a replica to unhealthy (default 1: any transport error).
	FailThreshold int
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 128
	}
	if o.LoadFactor <= 1 {
		o.LoadFactor = 1.25
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 500 * time.Millisecond
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = time.Second
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 1
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

	healthy     atomic.Bool
	consecFails atomic.Int64
	inflight    atomic.Int64 // outstanding proxied requests (the load bound's input)
}

func (r *replica) isHealthy() bool { return r.healthy.Load() }

// fleetJob is the router's record of one submitted study: the canonical
// spec (for failover resubmission) and where it currently lives.
type fleetJob struct {
	id       string // fleet-level ID the client holds
	key      string // canonical RunSpec.Key
	worldKey string // ring address
	specBody []byte // canonical spec JSON, replayed on failover

	mu        sync.Mutex // guards replicaID/remoteID across failovers
	replicaID string
	remoteID  string
}

func (j *fleetJob) location() (replicaID, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replicaID, j.remoteID
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

	mu       sync.Mutex
	replicas map[string]*replica
	jobs     map[string]*fleetJob
	batches  map[string]*fleetBatch
	seq      int64

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
		ring:     newRing(ids, opts.VNodes),
		replicas: replicas,
		jobs:     make(map[string]*fleetJob),
		batches:  make(map[string]*fleetBatch),
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConnsPerHost:   64,
			ResponseHeaderTimeout: 2 * time.Minute,
		}},
		healthClient: &http.Client{Timeout: opts.HealthTimeout},
		closed:       make(chan struct{}),
	}
	rt.metrics = newFleetMetrics(rt.healthSnapshot, rt.inflightSnapshot, rt.ring.shares)
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
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var ids []string
	for id, rep := range rt.replicas {
		if rep.isHealthy() {
			ids = append(ids, id)
		}
	}
	return ids
}

// replica looks a member up by ID (nil when unknown).
func (rt *Router) replica(id string) *replica {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.replicas[id]
}

func (rt *Router) healthSnapshot() map[string]int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.replicas))
	for id, rep := range rt.replicas {
		out[id] = 0
		if rep.isHealthy() {
			out[id] = 1
		}
	}
	return out
}

func (rt *Router) inflightSnapshot() map[string]int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[string]int64, len(rt.replicas))
	for id, rep := range rt.replicas {
		out[id] = rep.inflight.Load()
	}
	return out
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
		rt.mu.Lock()
		reps := make([]*replica, 0, len(rt.replicas))
		for _, rep := range rt.replicas {
			reps = append(reps, rep)
		}
		rt.mu.Unlock()
		var wg sync.WaitGroup
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rt.probe(rep)
			}(rep)
		}
		wg.Wait()
	}
}

func (rt *Router) probe(rep *replica) {
	resp, err := rt.healthClient.Get(rep.base + "/healthz")
	if err != nil {
		rt.noteFailure(rep)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rt.noteFailure(rep) // draining replicas answer 503 and stop getting traffic
		return
	}
	rt.noteSuccess(rep)
}

func (rt *Router) noteFailure(rep *replica) {
	if rep.consecFails.Add(1) >= int64(rt.opts.FailThreshold) {
		rep.healthy.Store(false)
	}
}

func (rt *Router) noteSuccess(rep *replica) {
	rep.consecFails.Store(0)
	rep.healthy.Store(true)
}

// Handler returns the fleet HTTP front end. The API mirrors wideleakd's,
// with fleet-level job IDs.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", rt.handleSubmit)
	mux.HandleFunc("GET /v1/studies", rt.handleList)
	mux.HandleFunc("GET /v1/studies/{id}", rt.handleJob(""))
	mux.HandleFunc("DELETE /v1/studies/{id}", rt.handleJob(""))
	mux.HandleFunc("GET /v1/studies/{id}/table", rt.handleJob("/table"))
	mux.HandleFunc("GET /v1/studies/{id}/events", rt.handleJob("/events"))
	mux.HandleFunc("POST /v1/batches", rt.handleBatchSubmit)
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

	rep, remote, hdr, status, routeErr := rt.submitToReplica(r.Context(), worldKey, body)
	switch routeErr {
	case nil:
	case errAllShed:
		rt.metrics.addShed()
		w.Header().Set("Retry-After", "1")
		httpkit.WriteError(w, http.StatusTooManyRequests, "every replica shed the submission")
		return
	case errNoReplica:
		rt.metrics.addUnroutable()
		httpkit.WriteError(w, http.StatusServiceUnavailable, "no healthy replica")
		return
	default:
		// A non-shed replica response the fleet cannot improve on (e.g. a
		// 400 the local canonicalization missed); relay it.
		httpkit.WriteError(w, status, routeErr.Error())
		return
	}

	rt.mu.Lock()
	rt.seq++
	job := &fleetJob{
		id:        fmt.Sprintf("f%06d-%.8s", rt.seq, key),
		key:       key,
		worldKey:  worldKey,
		specBody:  body,
		replicaID: rep.id,
		remoteID:  remote.ID,
	}
	rt.jobs[job.id] = job
	rt.mu.Unlock()

	owner := rt.ring.owner(worldKey)
	route := "owner"
	if rep.id != owner {
		route = "spill"
	}
	rt.metrics.addRouted(rep.id, rep.id != owner)
	copyProvenanceHeaders(w.Header(), hdr)
	w.Header().Set(HeaderReplica, rep.id)
	w.Header().Set(HeaderRoute, route)
	remote.ID, remote.StatusURL = job.id, "/v1/studies/"+job.id
	httpkit.WriteJSON(w, status, fleetSubmitResponse{SubmitResponse: remote, Replica: rep.id})
}

var (
	errAllShed   = fmt.Errorf("fleet: every candidate replica shed")
	errNoReplica = fmt.Errorf("fleet: no healthy replica")
)

// submitToReplica routes a canonical spec onto the ring: the world key's
// owner first, then — on transport failure, 429 shed, or 503 drain —
// each successor in ring order. Bounded load skips an owner whose
// outstanding requests exceed LoadFactor × fleet average + 1.
func (rt *Router) submitToReplica(ctx context.Context, worldKey string, body []byte) (*replica, serve.SubmitResponse, http.Header, int, error) {
	candidates := rt.submitOrder(worldKey)
	if len(candidates) == 0 {
		return nil, serve.SubmitResponse{}, nil, 0, errNoReplica
	}
	sawShed := false
	for _, rep := range candidates {
		resp, err := rt.forward(ctx, rep, http.MethodPost, "/v1/studies", bytes.NewReader(body))
		if err != nil {
			rt.metrics.addProxyError(rep.id)
			rt.noteFailure(rep)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			drainBody(resp)
			rt.metrics.addReplicaShed(rep.id)
			sawShed = true
			continue
		case resp.StatusCode == http.StatusServiceUnavailable:
			drainBody(resp)
			rt.noteFailure(rep) // draining: let the health loop confirm
			continue
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
			var remote serve.SubmitResponse
			err := json.NewDecoder(resp.Body).Decode(&remote)
			hdr := resp.Header
			status := resp.StatusCode
			drainBody(resp)
			if err != nil || remote.ID == "" {
				rt.noteFailure(rep)
				continue
			}
			rt.noteSuccess(rep)
			return rep, remote, hdr, status, nil
		default:
			// The replica answered coherently but negatively (400, ...).
			var e struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&e)
			status := resp.StatusCode
			drainBody(resp)
			if e.Error == "" {
				e.Error = http.StatusText(status)
			}
			return nil, serve.SubmitResponse{}, nil, status, fmt.Errorf("%s", e.Error)
		}
	}
	if sawShed {
		return nil, serve.SubmitResponse{}, nil, 0, errAllShed
	}
	return nil, serve.SubmitResponse{}, nil, 0, errNoReplica
}

// submitOrder builds the attempt order for a world key: healthy replicas
// in ring-walk order, rotated past any over-loaded prefix (bounded-load
// consistent hashing); the skipped prefix stays reachable as a last
// resort. With no healthy replica at all, every replica is tried in ring
// order — a passive success revives one.
func (rt *Router) submitOrder(worldKey string) []*replica {
	seq := rt.ring.sequence(worldKey)
	rt.mu.Lock()
	healthy := make([]*replica, 0, len(seq))
	all := make([]*replica, 0, len(seq))
	for _, id := range seq {
		rep := rt.replicas[id]
		all = append(all, rep)
		if rep.isHealthy() {
			healthy = append(healthy, rep)
		}
	}
	rt.mu.Unlock()
	if len(healthy) == 0 {
		return all
	}
	var total int64
	for _, rep := range healthy {
		total += rep.inflight.Load()
	}
	limit := int64(rt.opts.LoadFactor*float64(total)/float64(len(healthy))) + 1
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

// handleJob proxies one fleet job's status/table/events/cancel to the
// replica currently running it, failing over to a ring successor when
// that replica is gone.
func (rt *Router) handleJob(suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.mu.Lock()
		job := rt.jobs[r.PathValue("id")]
		rt.mu.Unlock()
		if job == nil {
			httpkit.WriteError(w, http.StatusNotFound, "no such study")
			return
		}
		// One failover attempt per request: if the job's replica is gone,
		// resubmit its spec to the ring successor, then proxy there.
		for attempt := 0; attempt < 2; attempt++ {
			repID, remoteID := job.location()
			rep := rt.replica(repID)
			if rep == nil {
				httpkit.WriteError(w, http.StatusInternalServerError, "job mapped to unknown replica")
				return
			}
			if !rep.isHealthy() {
				if !rt.failover(r.Context(), job, w) {
					return
				}
				continue
			}
			path := "/v1/studies/" + remoteID + suffix
			if r.URL.RawQuery != "" {
				path += "?" + r.URL.RawQuery
			}
			resp, err := rt.forward(r.Context(), rep, r.Method, path, nil)
			if err != nil {
				if r.Context().Err() != nil {
					return // client went away, not replica death
				}
				rt.metrics.addProxyError(rep.id)
				rt.noteFailure(rep)
				if !rt.failover(r.Context(), job, w) {
					return
				}
				continue
			}
			if suffix == "" && r.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
				relayStudyStatus(w, resp, rep.id, job.id)
			} else {
				relayResponse(w, resp, rep.id)
			}
			return
		}
		httpkit.WriteError(w, http.StatusBadGateway, "replica lost and failover did not converge")
	}
}

// failover reroutes a job whose replica died: its canonical spec is
// resubmitted through the ring (the dead replica is unhealthy, so the
// walk lands on its successor) and the job is remapped. Determinism
// makes the rerun byte-identical, so the client never notices beyond
// latency. Reports false after writing an error response.
func (rt *Router) failover(ctx context.Context, job *fleetJob, w http.ResponseWriter) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	// Another request may have failed this job over already; if its
	// current replica is healthy again, just retry against it.
	if cur := rt.replica(job.replicaID); cur != nil && cur.isHealthy() {
		return true
	}
	rep, remote, _, _, err := rt.submitToReplica(ctx, job.worldKey, job.specBody)
	if err != nil {
		httpkit.WriteError(w, http.StatusServiceUnavailable, fmt.Sprintf("replica lost and failover failed: %v", err))
		return false
	}
	job.replicaID = rep.id
	job.remoteID = remote.ID
	rt.metrics.addFailover()
	rt.metrics.addRouted(rep.id, rep.id != rt.ring.owner(job.worldKey))
	return true
}

// relayResponse copies a replica response to the client, flushing
// eagerly for event streams so SSE stays live through the router.
func relayResponse(w http.ResponseWriter, resp *http.Response, replicaID string) {
	defer resp.Body.Close()
	relayHeaders(w, resp, replicaID)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		flushCopy(w, resp.Body)
		return
	}
	io.Copy(w, resp.Body)
}

// relayStudyStatus relays a replica's study status document with the
// replica-local job ID and URLs rewritten to the fleet job's, so every
// link in it resolves through the router.
func relayStudyStatus(w http.ResponseWriter, resp *http.Response, replicaID, fleetID string) {
	defer resp.Body.Close()
	var st serve.StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		httpkit.WriteError(w, http.StatusBadGateway, fmt.Sprintf("replica %s: %v", replicaID, err))
		return
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

// flushCopy streams body to the client, flushing after every chunk.
func flushCopy(w http.ResponseWriter, body io.Reader) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
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

// replicaStudies is one replica's slice of the fleet-wide listing.
type replicaStudies struct {
	Replica string          `json:"replica"`
	Error   string          `json:"error,omitempty"`
	Studies json.RawMessage `json:"studies,omitempty"`
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]replicaStudies, 0, len(rt.ring.ids))
	for _, id := range rt.ring.ids {
		rep := rt.replica(id)
		entry := replicaStudies{Replica: rep.id}
		if !rep.isHealthy() {
			entry.Error = "unhealthy"
			out = append(out, entry)
			continue
		}
		resp, err := rt.forward(r.Context(), rep, http.MethodGet, "/v1/studies", nil)
		if err != nil {
			rt.noteFailure(rep)
			entry.Error = err.Error()
			out = append(out, entry)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			entry.Error = fmt.Sprintf("status %d", resp.StatusCode)
		} else {
			entry.Studies = raw
		}
		out = append(out, entry)
	}
	httpkit.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	httpkit.WriteMetrics(w, rt.metrics.Render())
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	healthy := len(rt.HealthyIDs())
	rt.mu.Lock()
	total := len(rt.replicas)
	rt.mu.Unlock()
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	httpkit.WriteJSON(w, status, map[string]any{
		"status":   map[bool]string{true: "ok", false: "no healthy replica"}[healthy > 0],
		"healthy":  healthy,
		"replicas": total,
	})
}
