package fleet

import (
	"fmt"
	"maps"
	"strings"
	"sync"

	"repro/internal/httpkit"
)

// Metrics is the router's fleet-level instrumentation, rendered in the
// Prometheus text exposition format at /metrics. Per-replica counters
// carry a replica label; the latency histograms cover every proxied
// request (and submits separately, since those are the routed unit).
type Metrics struct {
	mu sync.Mutex

	routed      map[string]int64 // replica → placements landed there (studies, batch parts, failovers)
	spilled     map[string]int64 // replica → placements that spilled onto it (≠ ring owner)
	replicaShed map[string]int64 // replica → 429s it answered
	proxyErrors map[string]int64 // replica → transport failures talking to it
	batchParts  map[string]int64 // replica → batch parts placed there at submission
	shed        int64            // submits the fleet rejected: every candidate shed
	unroutable  int64            // requests with no healthy replica to try
	failovers   int64            // job parts resubmitted after their replica was lost
	batches     int64            // batch submissions fanned out across the ring

	requestSeconds *httpkit.Histogram // every proxied request, router-observed wall time
	submitSeconds  *httpkit.Histogram // POST /v1/studies only

	// live state sampled at render time
	replicaHealthy  func() map[string]int64 // 1 healthy, 0 not
	replicaInflight func() map[string]int64
	ringShares      func() map[string]float64
}

func newFleetMetrics(healthy func() map[string]int64, inflight func() map[string]int64, shares func() map[string]float64) *Metrics {
	return &Metrics{
		routed:      make(map[string]int64),
		spilled:     make(map[string]int64),
		replicaShed: make(map[string]int64),
		proxyErrors: make(map[string]int64),
		batchParts:  make(map[string]int64),
		// Warm fleet hits are sub-millisecond; a failover rerun of a cold
		// ten-app study reaches tens of seconds.
		requestSeconds:  httpkit.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30),
		submitSeconds:   httpkit.NewHistogram(.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30),
		replicaHealthy:  healthy,
		replicaInflight: inflight,
		ringShares:      shares,
	}
}

func (m *Metrics) addRouted(replica string, spill bool) {
	m.mu.Lock()
	m.routed[replica]++
	if spill {
		m.spilled[replica]++
	}
	m.mu.Unlock()
}

func (m *Metrics) addReplicaShed(replica string) { m.inc(m.replicaShed, replica) }
func (m *Metrics) addProxyError(replica string)  { m.inc(m.proxyErrors, replica) }
func (m *Metrics) addBatchPart(replica string)   { m.inc(m.batchParts, replica) }

func (m *Metrics) addBatch()      { m.add(&m.batches) }
func (m *Metrics) addShed()       { m.add(&m.shed) }
func (m *Metrics) addUnroutable() { m.add(&m.unroutable) }
func (m *Metrics) addFailover()   { m.add(&m.failovers) }

func (m *Metrics) inc(field map[string]int64, replica string) {
	m.mu.Lock()
	field[replica]++
	m.mu.Unlock()
}

func (m *Metrics) add(field *int64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// Failovers reports how many job parts were resubmitted after replica
// loss.
func (m *Metrics) Failovers() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// Routed reports per-replica placements (copy).
func (m *Metrics) Routed() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.routed)
}

// Spilled reports per-replica placements that landed off-owner (copy).
func (m *Metrics) Spilled() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.spilled)
}

func (m *Metrics) observeRequest(seconds float64) {
	m.mu.Lock()
	m.requestSeconds.Observe(seconds)
	m.mu.Unlock()
}

func (m *Metrics) observeSubmit(seconds float64) {
	m.mu.Lock()
	m.submitSeconds.Observe(seconds)
	m.mu.Unlock()
}

// Render produces the Prometheus text exposition. Output is stable:
// families in fixed order, label values sorted.
func (m *Metrics) Render() string {
	healthy := m.replicaHealthy()
	inflight := m.replicaInflight()
	shares := m.ringShares()

	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder

	httpkit.Labeled(&b, "counter", "wideleakfleet_routed_total", "Placements landed on each replica: studies and batch parts, failovers included.", "replica", m.routed)
	httpkit.Labeled(&b, "counter", "wideleakfleet_spilled_total", "Placements (studies and batch parts) that spilled onto this replica instead of the ring owner.", "replica", m.spilled)
	httpkit.Labeled(&b, "counter", "wideleakfleet_replica_shed_total", "429 responses observed from each replica.", "replica", m.replicaShed)
	httpkit.Labeled(&b, "counter", "wideleakfleet_proxy_errors_total", "Transport failures talking to each replica.", "replica", m.proxyErrors)
	httpkit.Labeled(&b, "counter", "wideleakfleet_batch_parts_total", "Batch parts (one per distinct world owner) placed on each replica at submission.", "replica", m.batchParts)

	httpkit.Counter(&b, "wideleakfleet_shed_total", "Submissions the fleet rejected because every candidate replica shed.", m.shed)
	httpkit.Counter(&b, "wideleakfleet_unroutable_total", "Requests with no healthy replica to route to.", m.unroutable)
	httpkit.Counter(&b, "wideleakfleet_failovers_total", "Study and batch parts resubmitted to a ring successor after their replica was lost.", m.failovers)
	httpkit.Counter(&b, "wideleakfleet_batches_total", "Batch submissions fanned out across the ring by world key.", m.batches)

	httpkit.Labeled(&b, "gauge", "wideleakfleet_replica_healthy", "Replica health as seen by the router (1 healthy, 0 not).", "replica", healthy)
	httpkit.Labeled(&b, "gauge", "wideleakfleet_replica_inflight", "Proxied requests currently outstanding per replica.", "replica", inflight)
	httpkit.Family(&b, "wideleakfleet_ring_share", "Fraction of the hash-ring keyspace owned by each replica.", "gauge")
	for _, replica := range httpkit.SortedKeys(shares) {
		fmt.Fprintf(&b, "wideleakfleet_ring_share{replica=%q} %.4f\n", replica, shares[replica])
	}

	m.requestSeconds.Render(&b, "wideleakfleet_request_seconds", "Router-observed wall time of every proxied request.")
	m.submitSeconds.Render(&b, "wideleakfleet_submit_seconds", "Router-observed wall time of study submissions (routing included).")
	return b.String()
}
