package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ott"
	"repro/internal/wideleak"
)

// counterValue scrapes one counter out of the Prometheus text rendering.
func counterValue(t *testing.T, metrics, name string) string {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("counter %s not rendered", name)
	return ""
}

// worldCacheHeader reads the world provenance a done study's table is
// served with.
func worldCacheHeader(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table %s = %d", id, resp.StatusCode)
	}
	return resp.Header.Get(HeaderWorldCache)
}

// runDone submits a spec as a new study and waits for it to finish done.
func runDone(t *testing.T, ts *httptest.Server, spec wideleak.RunSpec) StudyStatus {
	t.Helper()
	st := waitTerminal(t, ts, submit(t, ts, spec, http.StatusAccepted).ID)
	if st.State != JobDone {
		t.Fatalf("job %v ended %s: %s", spec.Probes, st.State, st.Error)
	}
	return st
}

// TestServer_WorldCacheTier pins the warm tier below the result cache: a
// request that misses the result cache (different probe subset) on a
// warmed seed builds its world, answers World-Cache "miss", and
// provisions ZERO new device keys from the seed's key pool; a probe
// subset whose cells are all memoized needs no world and answers "hit".
// The seed is used by no other test, so its pool starts empty.
func TestServer_WorldCacheTier(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	pool := wideleak.SharedKeyPool("world-tier")

	// Cold run: all default probes over one app. Builds the world and
	// mints its keys into the seed's pool.
	cold := runDone(t, ts, wideleak.RunSpec{Seed: "world-tier", Profiles: []string{"Showtime"}})
	coldMints := pool.Minted()
	if coldMints == 0 {
		t.Fatal("cold run minted no keys — the key-pool assertion would be vacuous")
	}
	if cold.WorldCache != "miss" || worldCacheHeader(t, ts, cold.ID) != "miss" {
		t.Errorf("cold run world_cache = %q, want miss", cold.WorldCache)
	}

	// Warm run: a new probe — new result key, same seed. q5 is opt-in, so
	// the cold run never primed its cells: the job builds its world and
	// re-provisions nothing.
	warm := runDone(t, ts, wideleak.RunSpec{Seed: "world-tier", Profiles: []string{"Showtime"}, Probes: []string{"q5"}})
	if got := pool.Minted(); got != coldMints {
		t.Errorf("warm run minted %d new keys, want 0", got-coldMints)
	}
	if warm.WorldCache != "miss" {
		t.Errorf("warm run world_cache = %q, want miss (it built its world)", warm.WorldCache)
	}
	if got := worldCacheHeader(t, ts, warm.ID); got != "miss" {
		t.Errorf("warm run %s = %q, want miss", HeaderWorldCache, got)
	}

	// Memoized subset: q2 ran in the cold run, so every cell is resident
	// and the job needs no world at all.
	memo := runDone(t, ts, wideleak.RunSpec{Seed: "world-tier", Profiles: []string{"Showtime"}, Probes: []string{"q2"}})
	if memo.WorldCache != "hit" || memo.CellCache != "hit" {
		t.Errorf("memoized subset world_cache = %q, cell_cache = %q, want hit, hit", memo.WorldCache, memo.CellCache)
	}
	if got := worldCacheHeader(t, ts, memo.ID); got != "hit" {
		t.Errorf("memoized subset %s = %q, want hit", HeaderWorldCache, got)
	}
	if got := pool.Minted(); got != coldMints {
		t.Errorf("memoized subset minted %d new keys, want 0", got-coldMints)
	}
}

// TestServer_WorldCacheFaultIsolation: a faulted request must NOT reuse
// the fault-free run's cells (the fault schedule is world identity), yet
// the key pool is per seed, so the faulted world of a warmed seed mints
// zero keys. The seed is used by no other test, so its pool starts empty.
func TestServer_WorldCacheFaultIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	clean := smallSpec()
	clean.Seed = "fault-isolation"
	faulted := clean
	faulted.Faults = &wideleak.RunFaults{Rate: 0.2}
	pool := wideleak.SharedKeyPool(clean.Seed)

	runDone(t, ts, clean)
	coldMints := pool.Minted()
	if coldMints == 0 {
		t.Fatal("clean run minted no keys — the key-pool assertion would be vacuous")
	}
	st := runDone(t, ts, faulted)
	if st.WorldCache != "miss" || st.Observations == 0 {
		t.Errorf("faulted run world_cache = %q with %d observations, want a built world (fault schedule is world identity)", st.WorldCache, st.Observations)
	}
	// q5 keeps the request below the cell tier (opt-in, so never primed
	// above).
	faulted.Probes = []string{"q5"}
	runDone(t, ts, faulted)
	if got := pool.Minted(); got != coldMints {
		t.Errorf("faulted worlds of a warmed seed minted %d new keys, want 0", got-coldMints)
	}
}

// TestServer_Prewarm: boot-time warm-up mints the requested keys into
// the seed's pool in the process-wide key store, so the FIRST request
// for that seed generates no key. The seed is used by no other test.
func TestServer_Prewarm(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	pool := wideleak.SharedKeyPool("prewarm-test")

	first := ott.Profiles()[0].Name
	resident, err := srv.Prewarm(context.Background(), "prewarm-test", 3, 2)
	if err != nil {
		t.Fatalf("Prewarm: %v", err)
	}
	if resident != 3 {
		t.Fatalf("Prewarm resident = %d, want 3", resident)
	}
	if got := pool.Minted(); got != 3 {
		t.Errorf("prewarm minted %d keys into the store's pool, want 3", got)
	}

	// The first three stable IDs are the first profile's devices, so a
	// run over that profile needs no generation at all.
	counterBefore := counterValue(t, metricsText(t, ts), "wideleakd_rsa_keys_minted_total")
	runDone(t, ts, wideleak.RunSpec{Seed: "prewarm-test", Profiles: []string{first}, Probes: []string{"q2"}})
	if got := pool.Minted(); got != 3 {
		t.Errorf("prewarmed run minted %d keys, want 0", got-3)
	}
	if got := counterValue(t, metricsText(t, ts), "wideleakd_rsa_keys_minted_total"); got != counterBefore {
		t.Errorf("rsa minted counter = %s after the prewarmed run, want %s", got, counterBefore)
	}
	if got := pool.Size(); got != 3 {
		t.Errorf("pool holds %d keys after the run, want the 3 prewarmed", got)
	}

	// Prewarm is idempotent.
	if resident, err = srv.Prewarm(context.Background(), "prewarm-test", 3, 2); err != nil || resident != 3 {
		t.Fatalf("second Prewarm = (%d, %v), want (3, nil)", resident, err)
	}
}

// TestServer_RSAPrivateOps: the exported private-key budget moves with
// a computed study — every license exchange signs and decrypts — and
// stands still on a tier-1 hit, which does no device work. A second
// computed study on the warmed seed replays the first one's exchanges:
// its fault schedule forks apart from the seed's nonce, salt and OAEP
// streams, so the private-key memo answers every call it makes.
func TestServer_RSAPrivateOps(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	type ops struct{ sign, decrypt, signHits, decryptHits int64 }
	read := func() ops {
		m := metricsText(t, ts)
		n := func(name string) int64 {
			v, err := strconv.ParseInt(counterValue(t, m, name), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		return ops{
			n(`wideleakd_rsa_private_ops_total{op="sign"}`), n(`wideleakd_rsa_private_ops_total{op="decrypt"}`),
			n(`wideleakd_rsa_private_memo_hits_total{op="sign"}`), n(`wideleakd_rsa_private_memo_hits_total{op="decrypt"}`),
		}
	}

	before := read()
	spec := wideleak.RunSpec{Seed: "private-ops", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
	runDone(t, ts, spec)
	first := read()
	if first.sign == before.sign || first.decrypt == before.decrypt {
		t.Errorf("computed study moved private ops %+v → %+v; want sign and decrypt to move", before, first)
	}

	if sub := submit(t, ts, spec, http.StatusOK); !sub.Cached {
		t.Fatal("identical resubmission was not a tier-1 hit")
	}
	if hit := read(); hit != first {
		t.Errorf("tier-1 hit moved private ops %+v → %+v; want nothing to move", first, hit)
	}

	// A fault rate this low injects nothing, but the spec is a new world
	// key: no tier-1 entry and no memoized cell answers it.
	replay := spec
	replay.Faults = &wideleak.RunFaults{Rate: 1e-9, Seed: "private-ops-replay"}
	if st := runDone(t, ts, replay); st.Observations == 0 {
		t.Fatal("replay study did no device work")
	}
	second := read()
	calls := ops{sign: second.sign - first.sign, decrypt: second.decrypt - first.decrypt}
	hits := ops{sign: second.signHits - first.signHits, decrypt: second.decryptHits - first.decryptHits}
	if calls.sign == 0 || calls.decrypt == 0 || calls != hits {
		t.Errorf("second computed study on the warmed seed: calls sign %d decrypt %d, memo hits sign %d decrypt %d; want equal and nonzero",
			calls.sign, calls.decrypt, hits.sign, hits.decrypt)
	}
}

// The decode memo series: a computed study parses manifests and Device
// RSA keys, a tier-1 hit parses nothing, and a second computed study on
// the warmed seed finds every manifest and key it parses in the memos.
func TestServer_DecodeMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	type counts struct{ manifest, key, manifestHits, keyHits int64 }
	read := func() counts {
		m := metricsText(t, ts)
		n := func(name string) int64 {
			v, err := strconv.ParseInt(counterValue(t, m, name), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		return counts{
			n(`wideleakd_decode_memo_calls_total{kind="manifest"}`), n(`wideleakd_decode_memo_calls_total{kind="rsa_key"}`),
			n(`wideleakd_decode_memo_hits_total{kind="manifest"}`), n(`wideleakd_decode_memo_hits_total{kind="rsa_key"}`),
		}
	}

	before := read()
	spec := wideleak.RunSpec{Seed: "decode-memo", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
	runDone(t, ts, spec)
	first := read()
	if first.manifest == before.manifest || first.key == before.key {
		t.Errorf("computed study moved decode calls %+v → %+v; want manifest and rsa_key to move", before, first)
	}

	if sub := submit(t, ts, spec, http.StatusOK); !sub.Cached {
		t.Fatal("identical resubmission was not a tier-1 hit")
	}
	if hit := read(); hit != first {
		t.Errorf("tier-1 hit moved decode counts %+v → %+v; want nothing to move", first, hit)
	}

	replay := spec
	replay.Faults = &wideleak.RunFaults{Rate: 1e-9, Seed: "decode-memo-replay"}
	if st := runDone(t, ts, replay); st.Observations == 0 {
		t.Fatal("replay study did no device work")
	}
	second := read()
	calls := counts{manifest: second.manifest - first.manifest, key: second.key - first.key}
	hits := counts{manifest: second.manifestHits - first.manifestHits, key: second.keyHits - first.keyHits}
	if calls.manifest == 0 || calls.key == 0 || calls.manifest != hits.manifest || calls.key != hits.key {
		t.Errorf("second computed study on the warmed seed: calls manifest %d rsa_key %d, hits manifest %d rsa_key %d; want equal and nonzero",
			calls.manifest, calls.key, hits.manifest, hits.key)
	}
}

// titleStoreRuns makes each run of TestServer_TitleStore (-count > 1) use
// a seed no earlier run put in the title store.
var titleStoreRuns int

// The title-store series: the first computed study of a seed packages
// each app's titles, and a second computed study of the seed (a new
// world key, so no tier-1 entry or memoized cell answers it) reads one
// title-store hit per app and packages nothing. No other test uses the
// seed.
func TestServer_TitleStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	type counts struct{ calls, hits, packaged int64 }
	read := func() counts {
		m := metricsText(t, ts)
		n := func(name string) int64 {
			v, err := strconv.ParseInt(counterValue(t, m, name), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		return counts{n("wideleakd_title_store_calls_total"), n("wideleakd_title_store_hits_total"), ott.TitlesPackaged()}
	}

	apps := []string{"Showtime", "Hulu"}
	before := read()
	titleStoreRuns++
	seed := fmt.Sprintf("title-store-%d", titleStoreRuns)
	spec := wideleak.RunSpec{Seed: seed, Profiles: apps, Probes: []string{"q2"}}
	runDone(t, ts, spec)
	first := read()
	if got := first.packaged - before.packaged; got != int64(len(apps)) {
		t.Errorf("first study of a new seed packaged %d times, want %d", got, len(apps))
	}
	if first.calls == before.calls {
		t.Error("first study made no title-store calls")
	}

	replay := spec
	replay.Faults = &wideleak.RunFaults{Rate: 1e-9, Seed: seed + "-replay"}
	if st := runDone(t, ts, replay); st.Observations == 0 {
		t.Fatal("replay study did no device work")
	}
	second := read()
	if calls, hits := second.calls-first.calls, second.hits-first.hits; calls != int64(len(apps)) || hits != calls {
		t.Errorf("second study of the seed: %d title-store calls, %d hits; want %d and %d", calls, hits, len(apps), len(apps))
	}
	if got := second.packaged - first.packaged; got != 0 {
		t.Errorf("second study of the seed packaged %d times, want 0", got)
	}
}
