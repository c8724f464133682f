package serve

import (
	"strings"
	"sync"

	"repro/internal/httpkit"
	"repro/internal/manifest"
	"repro/internal/netsim"
	"repro/internal/ott"
	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
	"repro/internal/wvcrypto"
)

// Metrics is the daemon's instrumentation: hand-rolled counters, gauges
// and histograms rendered in the Prometheus text exposition format, fed
// from the study engine's probe.Event stream and the network layer's
// RetryObserver. Everything is safe for concurrent use.
type Metrics struct {
	mu sync.Mutex

	submitted   int64
	shed        int64
	coalesced   int64
	cacheHits   int64
	cacheMisses int64
	degraded    int64

	cellsCached     int64            // probe cells satisfied from the cell LRU
	cellsExecuted   int64            // probe cells that actually ran
	cellRecombined  int64            // jobs reassembled purely from memoized cells
	batchRows       int64            // rows completed by batch runs
	batchesFinished map[string]int64 // terminal state → count
	deviceCells     map[string]int64 // device profile → fixture cells manufactured
	manifestsServed map[string]int64 // manifest dialect → CDN manifest serves

	jobs    map[string]int64 // terminal state → count
	retries map[string]int64 // host → masked transient attempts

	probeWall    *httpkit.Histogram
	probeVirtual *httpkit.Histogram

	// queueDepth and inFlight are sampled live at render time.
	queueDepth func() int
	inFlight   func() int
}

func newMetrics(queueDepth, inFlight func() int) *Metrics {
	return &Metrics{
		jobs:            make(map[string]int64),
		retries:         make(map[string]int64),
		batchesFinished: make(map[string]int64),
		deviceCells:     make(map[string]int64),
		manifestsServed: make(map[string]int64),
		// Probe wall times are sub-second on the simulator; virtual times
		// accumulate injected latency and backoff, so their buckets reach
		// into minutes.
		probeWall:    httpkit.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5),
		probeVirtual: httpkit.NewHistogram(.005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120),
		queueDepth:   queueDepth,
		inFlight:     inFlight,
	}
}

// ObserveEvent folds one probe pipeline event into the metrics: finished
// and degraded probes feed the wall/virtual duration histograms (and the
// degraded counter). Retry events are deliberately NOT counted here —
// retries reach the metrics exactly once, through the RetryObserver
// adapter composed onto the network, so wiring both paths (as the
// server does) cannot double-count.
func (m *Metrics) ObserveEvent(ev probe.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case probe.EventProbeFinished:
		m.probeWall.Observe(ev.Wall.Seconds())
		m.probeVirtual.Observe(ev.Virtual.Seconds())
	case probe.EventProbeDegraded:
		m.degraded++
		m.probeWall.Observe(ev.Wall.Seconds())
		m.probeVirtual.Observe(ev.Virtual.Seconds())
	}
}

// RetryObserver returns a netsim adapter counting masked transient
// attempts per host — installed alongside the study's own observer via
// netsim.CombineRetryObservers, so the event log and the metrics both
// see every retry.
func (m *Metrics) RetryObserver() netsim.RetryObserver {
	return func(host string, attempt int, err error) {
		m.mu.Lock()
		m.retries[host]++
		m.mu.Unlock()
	}
}

func (m *Metrics) addSubmitted() { m.add(&m.submitted) }
func (m *Metrics) addShed()      { m.add(&m.shed) }
func (m *Metrics) addCoalesced() { m.add(&m.coalesced) }
func (m *Metrics) addCacheHit()  { m.add(&m.cacheHits) }
func (m *Metrics) addCacheMiss() { m.add(&m.cacheMisses) }

// addCellStats folds one matrix run's sharing counters into the cell
// tier's metrics, including the device-axis dimension: fixture cells the
// batch's built worlds actually manufactured, per device profile.
func (m *Metrics) addCellStats(st wideleak.BatchStats) {
	m.mu.Lock()
	m.cellsCached += int64(st.CellsCached)
	m.cellsExecuted += int64(st.CellsExecuted)
	for profile, n := range st.DeviceCells {
		m.deviceCells[profile] += int64(n)
	}
	for dialect, n := range st.ManifestsServed {
		m.manifestsServed[dialect] += int64(n)
	}
	m.mu.Unlock()
}

func (m *Metrics) addCellRecombined() { m.add(&m.cellRecombined) }

// addBatchRow counts one streamed batch row.
func (m *Metrics) addBatchRow() { m.add(&m.batchRows) }

// batchFinished counts one batch reaching a terminal state.
func (m *Metrics) batchFinished(state JobState) {
	m.mu.Lock()
	m.batchesFinished[string(state)]++
	m.mu.Unlock()
}

func (m *Metrics) add(field *int64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// jobFinished counts one job reaching a terminal state.
func (m *Metrics) jobFinished(state JobState) {
	m.mu.Lock()
	m.jobs[string(state)]++
	m.mu.Unlock()
}

// Render produces the Prometheus text exposition. Output is stable:
// metric families in fixed order, label values sorted.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	httpkit.Counter(&b, "wideleakd_jobs_submitted_total", "Study submissions accepted into the queue.", m.submitted)
	httpkit.Counter(&b, "wideleakd_jobs_shed_total", "Submissions rejected with 429 because the queue was full.", m.shed)
	httpkit.Counter(&b, "wideleakd_jobs_coalesced_total", "Submissions attached to an identical in-flight job.", m.coalesced)
	httpkit.Counter(&b, "wideleakd_cache_hits_total", "Submissions served from the result cache with no device work.", m.cacheHits)
	httpkit.Counter(&b, "wideleakd_cache_misses_total", "Submissions that had to run the study.", m.cacheMisses)
	httpkit.Counter(&b, "wideleakd_rsa_keys_minted_total", "2048-bit Device RSA keys generated by this process's key pools (zero on warmed paths); replicas spawned in one process share it.", provision.KeysMinted())
	sign, decrypt := wvcrypto.PrivateKeyOps()
	httpkit.Labeled(&b, "counter", "wideleakd_rsa_private_ops_total", "Device RSA private-key operations (PSS sign, OAEP decrypt) called by this process, memo hits included; replicas spawned in one process share it.", "op", map[string]int64{"sign": sign, "decrypt": decrypt})
	signHits, decryptHits := wvcrypto.PrivateKeyMemoHits()
	httpkit.Labeled(&b, "counter", "wideleakd_rsa_private_memo_hits_total", "Device RSA private-key operations answered by the process-wide private-key memo without an exponentiation; replicas spawned in one process share it.", "op", map[string]int64{"sign": signHits, "decrypt": decryptHits})
	manifestCalls, manifestHits := manifest.ParseMemoStats()
	keyCalls, keyHits := wvcrypto.KeyParseMemoStats()
	httpkit.Labeled(&b, "counter", "wideleakd_decode_memo_calls_total", "Manifest parses (through a registered dialect) and Device RSA key parses called by this process, memo hits included; the count is process-wide, so replicas spawned in one process share it.", "kind", map[string]int64{"manifest": manifestCalls, "rsa_key": keyCalls})
	httpkit.Labeled(&b, "counter", "wideleakd_decode_memo_hits_total", "Manifest and Device RSA key parses answered by the process-wide parse memos without decoding; the count is process-wide, so replicas spawned in one process share it.", "kind", map[string]int64{"manifest": manifestHits, "rsa_key": keyHits})
	titleCalls, titleHits := ott.TitleStoreStats()
	httpkit.Counter(&b, "wideleakd_title_store_calls_total", "OTT deployments that looked up their packaged titles in the process-wide title store; the count is process-wide, so replicas spawned in one process share it.", titleCalls)
	httpkit.Counter(&b, "wideleakd_title_store_hits_total", "Title-store lookups answered with an app's already packaged titles, so the deployment packaged nothing; the count is process-wide, so replicas spawned in one process share it.", titleHits)
	httpkit.Counter(&b, "wideleakd_probe_degraded_total", "Probe runs that exhausted transport retries and degraded.", m.degraded)
	httpkit.Counter(&b, "wideleakd_cells_cached_total", "Probe cells satisfied from the memoized cell LRU.", m.cellsCached)
	httpkit.Counter(&b, "wideleakd_cells_executed_total", "Probe cells that actually ran a probe.", m.cellsExecuted)
	httpkit.Counter(&b, "wideleakd_jobs_cell_recombined_total", "Jobs reassembled purely from memoized cells (zero device work below tier 1).", m.cellRecombined)
	httpkit.Counter(&b, "wideleakd_batch_rows_total", "Rows completed by batch runs.", m.batchRows)

	httpkit.Labeled(&b, "counter", "wideleakd_device_cells_total", "Fixture device cells manufactured by built worlds, by device profile.", "profile", m.deviceCells)
	httpkit.Labeled(&b, "counter", "wideleakd_manifests_served_total", "CDN manifests served by built worlds, by manifest dialect.", "dialect", m.manifestsServed)
	httpkit.Labeled(&b, "counter", "wideleakd_batches_total", "Batches finished, by terminal state.", "state", m.batchesFinished)
	httpkit.Labeled(&b, "counter", "wideleakd_jobs_total", "Jobs finished, by terminal state.", "state", m.jobs)
	httpkit.Labeled(&b, "counter", "wideleakd_netsim_retries_total", "Masked transient transport faults, by host.", "host", m.retries)

	httpkit.Gauge(&b, "wideleakd_queue_depth", "Jobs waiting in the queue.", int64(m.queueDepth()))
	httpkit.Gauge(&b, "wideleakd_jobs_inflight", "Jobs currently running on workers.", int64(m.inFlight()))

	m.probeWall.Render(&b, "wideleakd_probe_wall_seconds", "Wall-clock duration of one probe run.")
	m.probeVirtual.Render(&b, "wideleakd_probe_virtual_seconds", "Virtual-clock time charged to one probe run (injected latency, backoff).")
	return b.String()
}
