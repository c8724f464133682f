package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cenc"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/monitor"
	"repro/internal/mp4"
	"repro/internal/ott"
	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wvcrypto"
)

// Sample sizes of the traced run's in-process half.
const (
	inprocOps  = 6  // ops replayed in process, layer by layer (batches: 2)
	hopPairs   = 40 // router-vs-direct pairs behind fleet.hop_ms
	keygenKeys = 4  // device keys behind provision.keygen_ms
)

// traced is the --trace 1 run. It sets a server up once and runs the
// fixed-rate phase with every other op traced: spans around the client's
// HTTP calls, with status and /metrics reads after the phase. Then it
// times the same op through the router and direct to the owner replica,
// stops the server, and replays a sample of the ops in process with spans
// around the calls into each layer's public functions. It reports the
// per-layer metrics and writes the spans to out/trace-<workload>-<seed>.json.
func (b *bench) traced(out string) (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	srv, setupClient, _, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	setupClient.close()

	tr := newTracer()
	c := newClient(srv.router, b.oracle, tr)
	defer c.close()
	m := make(map[string]metric)

	before, err := srv.counters()
	if err != nil {
		return nil, err
	}
	routerBefore, err := scrape(srv.router + "/metrics")
	if err != nil {
		return nil, err
	}
	rss0, _ := srv.status("VmRSS")
	cpu0, _ := srv.cpuTime()
	self0, _ := selfCPU()
	fixed := c.drive("fixed", b.wl.rate, b.fixed, b.arrival["fixed"], 0)
	self1, _ := selfCPU()
	cpu1, _ := srv.cpuTime()
	rss1, _ := srv.status("VmRSS")
	after, err := srv.counters()
	if err != nil {
		return nil, err
	}
	routerAfter, err := scrape(srv.router + "/metrics")
	if err != nil {
		return nil, err
	}
	b.account(fixed)

	b.httpLayers(m, c, srv, fixed, tr)
	n := float64(len(fixed.samples))
	d := func(name string) float64 { return delta(after, before, name) }
	m["serve.tier1_hit_ratio"] = metric{ratio(d("wideleakd_cache_hits_total"), d("wideleakd_cache_hits_total")+d("wideleakd_cache_misses_total")), "ratio"}
	m["serve.world_hit_ratio"] = metric{ratio(d("wideleakd_world_cache_hits_total"), d("wideleakd_world_cache_hits_total")+d("wideleakd_world_cache_misses_total")), "ratio"}
	m["serve.cell_recombined_ratio"] = metric{ratio(d("wideleakd_jobs_cell_recombined_total"), d("wideleakd_cache_misses_total")), "ratio"}
	m["serve.rss_kb_per_op"] = metric{(rss1 - rss0) / n, "KB"}
	m["serve.rsa_mints"] = metric{d("wideleakd_rsa_keys_minted_total"), "count"}
	_, shed, _ := fixed.failed()
	m["serve.shed_ratio"] = metric{float64(shed) / n, "ratio"}
	m["bench.client_cpu_share"] = metric{ratio((self1 - self0).Seconds(), (self1 - self0 + cpu1 - cpu0).Seconds()), "ratio"}
	m["fleet.replica_share_max"] = metric{replicaShareMax(routerBefore, routerAfter), "ratio"}
	spilled := sumPrefix(routerAfter, "wideleakfleet_spilled_total") - sumPrefix(routerBefore, "wideleakfleet_spilled_total")
	routed := sumPrefix(routerAfter, "wideleakfleet_routed_total") - sumPrefix(routerBefore, "wideleakfleet_routed_total")
	m["fleet.spill_ratio"] = metric{ratio(spilled, routed), "ratio"}

	hop, err := b.hop(srv, c)
	if err != nil {
		return nil, err
	}
	m["fleet.hop_ms"] = metric{hop, "ms"}
	srv.stop()

	if err := b.inProcess(m, tr); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", b.wl.name, b.seed))); err != nil {
		return nil, err
	}
	for name, v := range tr.selfTimes() {
		m["self_ms."+name] = metric{v, "ms"}
	}
	return &result{Correct: b.correct, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// httpLayers derives the client-visible serve metrics from the traced
// ops' spans and their job status, and the tracing overhead from the
// traced-vs-untraced latency of the same phase.
func (b *bench) httpLayers(m map[string]metric, c *client, srv *server, p *phase, tr *tracer) {
	m["serve.submit_ms"] = metric{tr.medianMS("http.submit"), "ms"}
	m["serve.table_get_ms"] = metric{tr.medianMS("http.table"), "ms"}

	var traced, plain, lates []float64
	var execMS, queueMS []float64
	for i, s := range p.samples {
		lates = append(lates, s.late*1000)
		if !tr.sampled(i) {
			plain = append(plain, s.latency*1000)
			continue
		}
		traced = append(traced, s.latency*1000)
		if s.out.jobPath == "" || s.out.tier == "hit" {
			continue
		}
		// Status is read after the phase, off the timed path.
		if wall, ok := wallMS(c, srv, s.out.jobPath); ok {
			execMS = append(execMS, wall)
			queueMS = append(queueMS, math.Max(0, s.out.waitMS-wall))
		}
	}
	sort.Float64s(traced)
	sort.Float64s(plain)
	sort.Float64s(lates)
	sort.Float64s(execMS)
	sort.Float64s(queueMS)
	m["serve.exec_ms"] = metric{percentile(execMS, 0.5), "ms"}
	m["serve.queue_wait_ms"] = metric{percentile(queueMS, 0.5), "ms"}
	m["bench.late_ms_p90"] = metric{percentile(lates, 0.9), "ms"}
	m["bench.trace_overhead_pct"] = metric{100 * (percentile(traced, 0.5)/percentile(plain, 0.5) - 1), "%"}
}

// wallMS reads a finished job's wall_ms. A study's status carries it; a
// fleet batch's status lists its parts, whose replica-side status does,
// and the batch took as long as its slowest part.
func wallMS(c *client, srv *server, jobPath string) (float64, bool) {
	_, raw, err := c.call(-1, "", http.MethodGet, jobPath, nil)
	if err != nil {
		return 0, false
	}
	var st struct {
		WallMS int64 `json:"wall_ms"`
		Parts  []struct {
			Replica string `json:"replica"`
			BatchID string `json:"batch_id"`
		} `json:"parts"`
	}
	if json.Unmarshal(raw, &st) != nil {
		return 0, false
	}
	wall := float64(st.WallMS)
	for _, part := range st.Parts {
		direct := newClient(srv.replicas[part.Replica], nil, nil)
		_, raw, err := direct.call(-1, "", http.MethodGet, "/v1/batches/"+part.BatchID, nil)
		direct.close()
		var ps struct {
			WallMS int64 `json:"wall_ms"`
		}
		if err != nil || json.Unmarshal(raw, &ps) != nil {
			return 0, false
		}
		wall = math.Max(wall, float64(ps.WallMS))
	}
	return wall, wall > 0
}

// hop times the same cached op through the router and straight to the
// replica owning its world, alternating, and returns the difference of
// the medians. Every spec is first submitted once through the router so
// both paths find it in the owner's result cache.
func (b *bench) hop(srv *server, c *client) (float64, error) {
	var specs []wideleak.RunSpec
	for _, o := range b.fixed {
		if !o.batch {
			specs = append(specs, o.specs[0])
		}
		if len(specs) == inprocOps {
			break
		}
	}
	if len(specs) == 0 {
		// A batch workload: its specs' worlds are built, so single
		// studies of them recombine cached cells on the owner.
		specs = append(specs, b.fixed[0].specs[:inprocOps]...)
	}
	direct := make(map[string]*client)
	for id, url := range srv.replicas {
		direct[id] = newClient(url, b.oracle, nil)
		defer direct[id].close()
	}
	var viaRouter, viaOwner []float64
	for i := 0; i < hopPairs; i++ {
		spec := specs[i%len(specs)]
		o := op{specs: []wideleak.RunSpec{spec}}
		if i < len(specs) {
			if out := c.run(-1, o); out.err != "" {
				return 0, fmt.Errorf("hop: %s", out.err)
			}
		}
		t0 := time.Now()
		out := c.run(-1, o)
		t1 := time.Now()
		if out.err != "" {
			return 0, fmt.Errorf("hop via router: %s", out.err)
		}
		owner := direct[out.replica]
		if owner == nil {
			return 0, fmt.Errorf("hop: unknown replica %q", out.replica)
		}
		dout := owner.run(-1, o)
		t2 := time.Now()
		if dout.err != "" {
			return 0, fmt.Errorf("hop direct: %s", dout.err)
		}
		viaRouter = append(viaRouter, t1.Sub(t0).Seconds()*1000)
		viaOwner = append(viaOwner, t2.Sub(t1).Seconds()*1000)
	}
	sort.Float64s(viaRouter)
	sort.Float64s(viaOwner)
	return percentile(viaRouter, 0.5) - percentile(viaOwner, 0.5), nil
}

// inProcess replays a sample of the run's ops through the engine's
// public functions, one span per call.
func (b *bench) inProcess(m map[string]metric, tr *tracer) error {
	pool, err := oraclePool(".bench_build")
	if err != nil {
		return err
	}
	ops := b.fixed
	if b.wl.name == "batch" {
		ops = ops[:2]
	} else if len(ops) > inprocOps {
		ops = ops[:inprocOps]
	}
	var retries atomic.Int64
	var faults, virtualMS, observations, needed, executed float64
	var oecc []float64
	for i, o := range ops {
		id := 1_000_000 + i
		root := tr.begin(id, -1, "inproc")
		res, studies, err := b.replayBatch(tr, id, root, o, pool, &retries)
		if err != nil {
			return err
		}
		for _, st := range studies {
			faults += float64(st.World.FaultPlan().Stats().Total())
			virtualMS += float64(st.World.Clock().Now().Microseconds()) / 1000
		}
		observations += float64(res.Stats.Observations)
		needed += float64(res.Stats.CellsNeeded)
		executed += float64(res.Stats.CellsExecuted)
		calls, err := b.replayStudy(tr, id, root, o.specs[0], pool)
		if err != nil {
			return err
		}
		oecc = append(oecc, calls)
		tr.end(root)
	}
	n := float64(len(ops))
	m["netsim.retries_per_op"] = metric{float64(retries.Load()) / n, "count"}
	m["netsim.faults_per_op"] = metric{faults / n, "count"}
	m["netsim.virtual_ms_per_op"] = metric{virtualMS / n, "ms"}
	m["wideleak.observations_per_op"] = metric{observations / n, "count"}
	m["wideleak.cells_executed_ratio"] = metric{ratio(executed, needed), "ratio"}
	sort.Float64s(oecc)
	m["oemcrypto.oecc_calls_per_play"] = metric{percentile(oecc, 0.5), "count"}

	if err := b.primitives(tr); err != nil {
		return err
	}
	for _, sm := range spanMetrics {
		if v, ok := tr.median(sm.span); ok {
			m[sm.metric] = metric{v / sm.scale, sm.unit}
		}
	}
	return nil
}

// spanMetrics maps per-layer metrics to the median duration of the span
// recorded around the public function they time.
var spanMetrics = []struct {
	metric, span, unit string
	scale              float64 // nanoseconds per unit (per key, per MB)
}{
	{"wideleak.spec_key_us", "wideleak.SpecKey", "us", 1e3},
	{"wideleak.world_build_ms", "wideleak.Build", "ms", 1e6},
	{"wideleak.fixture_ms", "wideleak.Fixture", "ms", 1e6},
	{"wideleak.probe_ms.q1", "wideleak.RunQ1", "ms", 1e6},
	{"wideleak.probe_ms.q2", "wideleak.RunQ2", "ms", 1e6},
	{"wideleak.probe_ms.q3", "wideleak.RunQ3", "ms", 1e6},
	{"wideleak.probe_ms.q4", "wideleak.RunQ4", "ms", 1e6},
	{"wideleak.snapshot_ms", "wideleak.Snapshot", "ms", 1e6},
	{"wideleak.restore_ms", "wideleak.BuildFromSnapshot", "ms", 1e6},
	{"wideleak.batch_ms", "wideleak.ExecuteBatch", "ms", 1e6},
	{"wideleak.encode_us", "wideleak.Encode", "us", 1e3},
	{"ott.play_ms", "ott.PlayCtx", "ms", 1e6},
	{"cdn.repack_us.hls", "cdn.ManifestDialect.hls", "us", 1e3},
	{"cdn.repack_us.sstr", "cdn.ManifestDialect.sstr", "us", 1e3},
	{"manifest.parse_us.dash", "manifest.ParseAny.dash", "us", 1e3},
	{"manifest.parse_us.hls", "manifest.ParseAny.hls", "us", 1e3},
	{"manifest.parse_us.sstr", "manifest.ParseAny.sstr", "us", 1e3},
	{"media.package_ms", "media.Package", "ms", 1e6},
	{"provision.keygen_ms", "provision.KeyPool.Prewarm", "ms", 1e6 * keygenKeys},
	{"wvcrypto.rsa_keygen_ms", "wvcrypto.GenerateRSAKey", "ms", 1e6},
	{"wvcrypto.cmac_us", "wvcrypto.CMAC", "us", 1e3},
	{"wvcrypto.derive_session_keys_us", "wvcrypto.DeriveSessionKeys", "us", 1e3},
	{"wvcrypto.ctr_us_per_mb", "wvcrypto.CTRStream.1MB", "us/MB", 1e3},
	{"cenc.decrypt_us_per_mb", "cenc.DecryptSegment.1MB", "us/MB", 1e3},
}

// buildStudy is the engine's build path with the oracle's key pool
// attached, so nothing is minted while layers are timed.
func buildStudy(tr *tracer, id, parent int, spec wideleak.RunSpec, pool *provision.KeyPool) (*wideleak.Study, error) {
	sp := tr.begin(id, parent, "wideleak.Build")
	study, err := spec.Build()
	if err == nil {
		err = study.World.AttachKeyPool(pool)
	}
	tr.end(sp)
	return study, err
}

// replayBatch runs an op's specs through ExecuteBatch, as the server
// does, and encodes every table.
func (b *bench) replayBatch(tr *tracer, id, parent int, o op, pool *provision.KeyPool, retries *atomic.Int64) (*wideleak.BatchResult, []*wideleak.Study, error) {
	var mu sync.Mutex
	var studies []*wideleak.Study
	sp := tr.begin(id, parent, "wideleak.ExecuteBatch")
	res, err := wideleak.ExecuteBatch(context.Background(), o.specs, wideleak.BatchOptions{
		Cache: wideleak.NewCellCache(4096),
		BuildStudy: func(spec wideleak.RunSpec) (*wideleak.Study, error) {
			study, err := buildStudy(tr, id, sp, spec, pool)
			if err != nil {
				return nil, err
			}
			study.World.Network.SetRetryObserver(func(string, int, error) { retries.Add(1) })
			mu.Lock()
			studies = append(studies, study)
			mu.Unlock()
			return study, nil
		},
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, fmt.Errorf("in-process batch: %w", err)
	}
	for i, table := range res.Tables {
		sp := tr.begin(id, parent, "wideleak.Encode")
		out, err := table.Encode("json")
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(out, b.oracle.expected(o.specs[i])) {
			return nil, nil, fmt.Errorf("in-process table %d differs from the oracle", i)
		}
	}
	return res, studies, nil
}

// replayStudy walks one spec through the engine layer by layer: spec
// addressing, world build, CDN repack and manifest parse, fixture,
// monitored playback, the four probes, snapshot and restore, and the
// title packager. It returns the _oecc calls one monitored playback made.
func (b *bench) replayStudy(tr *tracer, id, parent int, spec wideleak.RunSpec, pool *provision.KeyPool) (float64, error) {
	sp := tr.begin(id, parent, "wideleak.SpecKey")
	c, err := spec.Canonicalize()
	if err == nil {
		_, err = c.Key()
	}
	if err == nil {
		_, err = c.WorldKey()
	}
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	app := c.Profiles[0]

	// A side world for the CDN and the monitored playback, so that
	// neither warms what the probes below will fetch.
	side, err := buildStudy(tr, id, parent, c, pool)
	if err != nil {
		return 0, err
	}
	cdnSrv := side.World.Deployment(app).CDN()
	bodies := map[string][]byte{}
	if bodies["dash"], err = cdnSrv.ManifestDialect(wideleak.ContentID, "dash"); err != nil {
		return 0, err
	}
	for _, d := range []string{"hls", "sstr"} {
		sp := tr.begin(id, parent, "cdn.ManifestDialect."+d)
		bodies[d], err = cdnSrv.ManifestDialect(wideleak.ContentID, d)
		tr.end(sp)
		if err != nil {
			return 0, err
		}
	}
	for _, d := range []string{"dash", "hls", "sstr"} {
		sp := tr.begin(id, parent, "manifest.ParseAny."+d)
		_, _, err := manifest.ParseAny(bodies[d])
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", d, err)
		}
	}
	sideFixture, err := side.World.Fixture(app)
	if err != nil {
		return 0, err
	}
	cell := sideFixture.ObservationL1()
	if cell == nil {
		cell = &sideFixture.Cells[0]
	}
	mon := monitor.New()
	mon.AttachCDM(cell.Device.Engine)
	sp = tr.begin(id, parent, "ott.PlayCtx")
	report := cell.App.PlayCtx(context.Background(), wideleak.ContentID)
	tr.end(sp)
	calls := float64(len(mon.Events()))
	mon.Detach()
	if err := report.TransportErr(); err != nil {
		return 0, err
	}

	study, err := buildStudy(tr, id, parent, c, pool)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(id, parent, "wideleak.Fixture")
	_, err = study.World.Fixture(app)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	probes := []struct {
		name string
		run  func(string) error
	}{
		{"wideleak.RunQ1", func(a string) error { _, err := study.RunQ1(a); return err }},
		{"wideleak.RunQ2", func(a string) error { _, err := study.RunQ2(a); return err }},
		{"wideleak.RunQ3", func(a string) error { _, err := study.RunQ3(a); return err }},
		{"wideleak.RunQ4", func(a string) error { _, err := study.RunQ4(a); return err }},
	}
	for _, p := range probes {
		sp := tr.begin(id, parent, p.name)
		err := p.run(app)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	sp = tr.begin(id, parent, "wideleak.Snapshot")
	snap, err := study.World.Snapshot()
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin(id, parent, "wideleak.BuildFromSnapshot")
	_, err = c.BuildFromSnapshot(snap)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	var profile ott.Profile
	for _, p := range ott.Profiles() {
		if p.Name == app {
			profile = p
		}
	}
	tracks := media.GenerateTitle(wideleak.ContentID, media.DefaultGenerateOptions())
	sp = tr.begin(id, parent, "media.Package")
	_, err = media.Package(wideleak.ContentID, tracks, profile.KeyPolicy, wvcrypto.NewDeterministicReader("perfbench/package"))
	tr.end(sp)
	return calls, err
}

// primitives times the key-generation and symmetric-crypto entry points
// on fixed inputs: the world seed's first device keys, fixed reader
// labels, 1 MB buffers.
func (b *bench) primitives(tr *tracer) error {
	const id = 2_000_000
	root := tr.begin(id, -1, "primitives")
	defer tr.end(root)

	pool := wideleak.NewKeyPool("default")
	sp := tr.begin(id, root, "provision.KeyPool.Prewarm")
	err := pool.Prewarm(context.Background(), wideleak.DeviceStableIDs(nil)[:keygenKeys], 1)
	tr.end(sp)
	if err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		sp := tr.begin(id, root, "wvcrypto.GenerateRSAKey")
		_, err := wvcrypto.GenerateRSAKey(wvcrypto.NewDeterministicReader(fmt.Sprintf("perfbench/rsa-%d", i)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	key := bytes.Repeat([]byte{0x2b}, 16)
	msg := bytes.Repeat([]byte("license-request."), 32) // 512 B
	for i := 0; i < 200; i++ {
		sp := tr.begin(id, root, "wvcrypto.CMAC")
		_, err := wvcrypto.CMAC(key, msg)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin(id, root, "wvcrypto.DeriveSessionKeys")
		_, err = wvcrypto.DeriveSessionKeys(key, msg)
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	mb := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		sp := tr.begin(id, root, "wvcrypto.CTRStream.1MB")
		stream, err := wvcrypto.CTRStream(key, make([]byte, 16))
		if err == nil {
			stream.XORKeyStream(mb, mb)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
	}

	// A 1 MB segment of 64 samples, encrypted once per decrypt.
	samples := make([][]byte, 64)
	for i := range samples {
		samples[i] = bytes.Repeat([]byte{byte(i)}, 16<<10)
	}
	for i := 0; i < 8; i++ {
		seg := &mp4.MediaSegment{SequenceNumber: 1, TrackID: 1}
		for _, smp := range samples {
			seg.SampleData = append(seg.SampleData, append([]byte(nil), smp...))
		}
		enc, err := cenc.NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("perfbench/cenc"))
		if err != nil {
			return err
		}
		if err := enc.EncryptSegment(seg, 0); err != nil {
			return err
		}
		sp := tr.begin(id, root, "cenc.DecryptSegment.1MB")
		err = cenc.DecryptSegment(mp4.SchemeCENC, key, seg)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// replicaShareMax is the largest share of routed studies and batch parts
// any one replica took between two router scrapes.
func replicaShareMax(before, after map[string]float64) float64 {
	per := make(map[string]float64)
	var total float64
	for name, v := range after {
		if !strings.HasPrefix(name, "wideleakfleet_routed_total{") && !strings.HasPrefix(name, "wideleakfleet_batch_parts_total{") {
			continue
		}
		dv := v - before[name]
		per[name[strings.IndexByte(name, '{'):]] += dv
		total += dv
	}
	best := 0.0
	for _, v := range per {
		best = math.Max(best, v)
	}
	return ratio(best, total)
}

// sumPrefix sums every sample whose name (labels included) starts with
// prefix.
func sumPrefix(samples map[string]float64, prefix string) float64 {
	var sum float64
	for name, v := range samples {
		if strings.HasPrefix(name, prefix) {
			sum += v
		}
	}
	return sum
}

// selfCPU reads this process's utime+stime.
func selfCPU() (time.Duration, error) {
	raw, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(raw)
}
