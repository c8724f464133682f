package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/wideleak"
)

// setups is how many times a run boots and sets up a fresh server; the
// last set-up goes on to the timed phases, and setup_s is their median.
const setups = 2

// plan sizes a run's phases. Counts are fixed per workload and run
// length, so every run does the same number of ops.
type plan struct {
	warmup int // discarded warm-up ops at the fixed rate
	fixed  int // timed ops at the fixed rate
	steps  int // capacity search: bisection steps
	perOp  int // ops per capacity step
}

// The fixed-rate phase takes fixedShare of the measured seconds and the
// capacity search the rest; the warm-up runs for warmupSeconds at the
// fixed rate.
const (
	fixedShare    = 0.77
	warmupSeconds = 1.5
	searchSteps   = 5
	searchTop     = 4.0 // the search brackets [rate, searchTop x rate]
)

// planFor sizes the phases for a run of `seconds` measured seconds.
func planFor(wl workload, seconds int) plan {
	s := float64(seconds)
	return plan{
		warmup: int(math.Ceil(wl.rate * warmupSeconds)),
		fixed:  int(math.Ceil(wl.rate * s * fixedShare)),
		steps:  searchSteps,
		// A step at twice the fixed rate, about where the search runs,
		// lasts its share of the remaining seconds.
		perOp: int(math.Ceil(2 * wl.rate * s * (1 - fixedShare) / searchSteps)),
	}
}

// bench is one run of one workload.
type bench struct {
	wl       workload
	seed     int64
	seconds  int
	fleetBin string

	stream *opStream
	plan   plan
	oracle *oracle

	warm    []op // per replica: a full study minting the seed's keys
	prime   []op // repeat: the popular set, run once into tier 1
	warmup  []op
	fixed   []op
	steps   [][]op
	arrival map[string][]float64

	attempted, failed int
	correct           bool
}

// prepare generates the op stream and renders the expected tables.
func (b *bench) prepare() error {
	var err error
	if b.stream, err = newOpStream(b.wl.name, b.seed); err != nil {
		return err
	}
	b.plan = planFor(b.wl, b.seconds)
	b.arrival = make(map[string][]float64)
	for _, spec := range b.stream.warmSpecs() {
		b.warm = append(b.warm, op{specs: []wideleak.RunSpec{spec}})
	}
	for _, spec := range b.stream.popular {
		b.prime = append(b.prime, op{specs: []wideleak.RunSpec{spec}})
	}
	gen := func(n int) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = b.stream.nextOp()
		}
		return ops
	}
	b.warmup = gen(b.plan.warmup)
	b.arrival["warmup"] = b.stream.arrivals(len(b.warmup), b.wl.rate)
	b.fixed = gen(b.plan.fixed)
	b.arrival["fixed"] = b.stream.arrivals(len(b.fixed), b.wl.rate)
	// Search steps learn their rate as the search goes, so their
	// arrivals are drawn at rate 1 and scaled.
	for k := 0; k < b.plan.steps; k++ {
		b.steps = append(b.steps, gen(b.plan.perOp))
		b.arrival[stepName(k)] = b.stream.arrivals(b.plan.perOp, 1)
	}

	var specs []wideleak.RunSpec
	for _, group := range append([][]op{b.warm, b.prime, b.warmup, b.fixed}, b.steps...) {
		for _, o := range group {
			specs = append(specs, o.specs...)
		}
	}
	t0 := time.Now()
	if b.oracle, err = buildOracle(specs, ".bench_build"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "oracle: %d distinct tables in %.2fs\n", len(b.oracle.tables), time.Since(t0).Seconds())
	b.correct = true
	return nil
}

func stepName(k int) string { return fmt.Sprintf("step%d", k+1) }

// account adds a phase's ops to the run totals.
func (b *bench) account(p *phase) {
	p.report()
	failed, _, _ := p.failed()
	b.attempted += len(p.samples)
	b.failed += failed
	if failed > 0 {
		b.correct = false
	}
}

// closedLoop runs ops back to back on both connections (set-up work
// that has no arrival schedule).
func (b *bench) closedLoop(c *client, name string, ops []op) *phase {
	p := &phase{name: name, samples: make([]sample, len(ops))}
	t0 := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				start := time.Now()
				p.samples[i] = sample{out: c.run(-1, ops[i])}
				p.samples[i].latency = time.Since(start).Seconds()
			}
		}()
	}
	for i := range ops {
		next <- i
	}
	close(next)
	wg.Wait()
	p.wall = time.Since(t0).Seconds()
	return p
}

// setUp boots a server and brings it to the state the timed phases
// start from: every replica's key pool holds the world seed's keys, the
// repeat set is primed into tier 1, and a warm-up phase at the fixed rate
// has run and been discarded. It returns the seconds from process start
// to the end of set-up.
func (b *bench) setUp() (*server, *client, float64, error) {
	srv, err := startServer(b.fleetBin)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(srv.router, b.oracle, nil)
	warm := b.closedLoop(c, "warm-keys", b.warm)
	for i, s := range warm.samples {
		if s.out.err == "" && s.out.replica != replicaIDs[i] {
			s.out.err = fmt.Sprintf("warm study landed on %s, want %s", s.out.replica, replicaIDs[i])
			warm.samples[i] = s
		}
	}
	b.account(warm)
	if err := b.checkKeyPools(srv); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	if len(b.prime) > 0 {
		b.account(b.closedLoop(c, "prime", b.prime))
	}
	b.account(c.drive("warmup", b.wl.rate, b.warmup, b.arrival["warmup"], -1))
	return srv, c, time.Since(srv.started).Seconds(), nil
}

// checkKeyPools confirms that the warm studies minted device keys on
// every replica, the same number on each: a full default study needs
// every key any op of the workloads asks for.
func (b *bench) checkKeyPools(srv *server) error {
	minted := make(map[string]float64)
	for id, base := range srv.replicas {
		samples, err := scrape(base + "/metrics")
		if err != nil {
			return err
		}
		minted[id] = samples["wideleakd_rsa_keys_minted_total"]
	}
	first := minted[replicaIDs[0]]
	for id, n := range minted {
		if n == 0 || n != first {
			return fmt.Errorf("warming minted %v device keys on %s, %v on %s", n, id, first, replicaIDs[0])
		}
	}
	return nil
}

// endToEnd is the untraced run: set up `setups` times, then time the
// fixed-rate phase and the capacity search on the last server.
func (b *bench) endToEnd() (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	var setupS []float64
	var srv *server
	var c *client
	for k := 0; k < setups; k++ {
		var err error
		var took float64
		srv, c, took, err = b.setUp()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took)
		fmt.Fprintf(os.Stderr, "setup %d: %.3fs\n", k+1, took)
		if k < setups-1 {
			c.close()
			srv.stop()
		}
	}
	defer srv.stop()
	defer c.close()

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0 := stealTime()
	fixed := c.drive("fixed", b.wl.rate, b.fixed, b.arrival["fixed"], 0)
	fmt.Fprintf(os.Stderr, "fixed phase: the host stole %.2fs of CPU\n", (stealTime() - steal0).Seconds())
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	b.account(fixed)

	capacity := b.searchCapacity(c, fixed)
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	hwm, err := srv.status("VmHWM")
	if err != nil {
		return nil, err
	}
	if mints := delta(after, before, "wideleakd_rsa_keys_minted_total"); mints != 0 {
		fmt.Fprintf(os.Stderr, "warning: %v RSA keys minted during timed phases\n", mints)
	}
	b.checkTiers(before, after)

	lat := fixed.latencies()
	res := &result{
		Correct:   b.correct,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setupS), "s"},
			"latency_p50_ms": {percentile(lat, 0.5), "ms"},
			"latency_p90_ms": {percentile(lat, 0.9), "ms"},
			"capacity_rps":   {capacity, "1/s"},
			"cpu_ms_per_op":  {(cpu1 - cpu0).Seconds() * 1000 / float64(len(b.fixed)), "ms"},
			"peak_rss_mb":    {hwm / 1024, "MB"},
		},
	}
	return res, nil
}

// keepPace is the least share of the offered rate a phase's ops must go
// out at for its backlog to count as steady.
const keepPace = 0.95

// checkTiers holds the timed phases to the cache tiers their workload
// must exercise, from the replicas' counters: a batch carries no
// per-op tier header, so a batch answered from any cache tier — a
// result-cache hit, a warmed world or a memoized cell — fails every op
// of the timed phases; so does a study of the never-seen fresh stream
// that any tier served.
func (b *bench) checkTiers(before, after map[string]float64) {
	if b.wl.name == "repeat" {
		return // every op's submit header was checked to be a tier-1 hit
	}
	served := delta(after, before, "wideleakd_cache_hits_total") +
		delta(after, before, "wideleakd_world_cache_hits_total") +
		delta(after, before, "wideleakd_cells_cached_total") +
		delta(after, before, "wideleakd_jobs_cell_recombined_total")
	if served == 0 {
		return
	}
	timed := len(b.fixed) + len(b.steps)*b.plan.perOp
	fmt.Fprintf(os.Stderr, "tiers: %v cache-tier answers on a never-seen op stream; failing the %d timed ops\n", served, timed)
	b.failed += timed
	b.correct = false
}

// passRatio scores a phase against the capacity criteria; below 1 it
// passes. It is the larger of p90/limit and keepPace x offered rate /
// start rate, and at least 1 when an op failed.
func (b *bench) passRatio(p *phase) float64 {
	failed, _, _ := p.failed()
	x := percentile(p.latencies(), 0.9) / b.wl.limitMS
	x = math.Max(x, keepPace*p.rate/p.startRate())
	if failed > 0 {
		x = math.Max(x, 1)
	}
	return x
}

// searchCapacity finds the highest offered rate whose phase keeps p90
// within the workload's limit with no failed op and no growing backlog
// (ops go out at no less than keepPace of the offered rate). It bisects
// in log(rate), one phase of plan.perOp ops per step: from [rate,
// searchTop x rate] when the fixed rate passes, from [rate/searchTop,
// rate] when it does not, so every run makes the same steps. It then
// interpolates in log(rate) where the score crosses 1 between the
// highest passing and the lowest failing rate, so the figure moves
// smoothly rather than in bisection steps.
func (b *bench) searchCapacity(c *client, fixed *phase) float64 {
	lo, xlo := b.wl.rate, b.passRatio(fixed)
	hi, xhi := b.wl.rate*searchTop, math.Inf(1)
	sustained := fixed.startRate() // the rate the highest passing phase kept up
	if xlo >= 1 {
		fmt.Fprintf(os.Stderr, "capacity: the fixed rate misses the limit (score %.3f)\n", xlo)
		lo, hi, xhi = b.wl.rate/searchTop, b.wl.rate, xlo
		xlo = math.NaN()
	}
	for k := 0; k < b.plan.steps; k++ {
		rate := math.Sqrt(lo * hi)
		arrivals := make([]float64, len(b.arrival[stepName(k)]))
		for i, at := range b.arrival[stepName(k)] {
			arrivals[i] = at / rate
		}
		p := c.drive(stepName(k), rate, b.steps[k], arrivals, 0)
		b.account(p)
		x := b.passRatio(p)
		fmt.Fprintf(os.Stderr, "capacity step %d: rate=%.2f started=%.2f/s score=%.3f\n", k+1, rate, p.startRate(), x)
		if x < 1 {
			lo, xlo, sustained = rate, x, p.startRate()
		} else {
			hi, xhi = rate, x
		}
	}
	switch {
	case math.IsInf(xhi, 1):
		return sustained // nothing failed up to the top of the bracket
	case math.IsNaN(xlo):
		return lo // nothing passed down to the bottom of the bracket
	}
	f := (1 - xlo) / (xhi - xlo)
	return math.Exp(math.Log(lo) + f*(math.Log(hi)-math.Log(lo)))
}

// median of a small sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
