package wideleak

// Matrix-scheduler benchmarks: the shared-work payoff of POST
// /v1/batches measured through the daemon's real HTTP surface.
//
// The mix is 8 seeds x 4 probe subsets whose expansions overlap heavily
// (each seed's four specs need 14 probe-cell runs sequentially but only
// 4 distinct cells), so the batch planner's dedup should beat the same
// specs as sequential independent requests by >=3x. The control mix has
// one spec per seed — nothing to share — so Batch vs Sequential there
// bounds the scheduler's overhead.
//
// Both paths run against ONE server whose cell and result tiers are
// pinned to a single entry: sequential requests then model the
// pre-memoization engine (every request re-runs its full expanded probe
// set), and the Batch/Sequential delta isolates the planner's
// intra-batch sharing. The cross-request memoization tier is measured
// separately (TestServer_CellRecombination, wideleakd_jobs_cell_*
// metrics). Key pools and world snapshots are prewarmed outside timing
// for every seed, so neither path pays RSA minting (pinned: zero keys
// minted) or world builds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// benchBatchRoundTrip submits the specs as one batch, polls it to
// completion, and fetches every per-spec text table — the full client
// round trip for the batch API.
func benchBatchRoundTrip(b *testing.B, ts *httptest.Server, specs []RunSpec, wantOverlap bool) {
	b.Helper()
	body, err := json.Marshal(map[string]any{"specs": specs})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b.Fatalf("batch submit = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(300 * time.Second)
	var st struct {
		State string     `json:"state"`
		Error string     `json:"error"`
		Stats BatchStats `json:"stats"`
	}
	for {
		if time.Now().After(deadline) {
			b.Fatalf("batch %s never finished", sub.ID)
		}
		resp, err := http.Get(ts.URL + "/v1/batches/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "canceled" {
			b.Fatalf("batch %s reached %s: %s", sub.ID, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Sanity: the overlap mix must actually dedup, the control must not —
	// otherwise the recorded ratio measures the wrong thing.
	if wantOverlap && st.Stats.CellsPlanned >= st.Stats.CellsNeeded {
		b.Fatalf("overlap mix planned %d of %d cells: no shared work", st.Stats.CellsPlanned, st.Stats.CellsNeeded)
	}

	for i := range specs {
		resp, err := http.Get(fmt.Sprintf("%s/v1/batches/%s/tables/%d?format=txt", ts.URL, sub.ID, i))
		if err != nil {
			b.Fatal(err)
		}
		var table bytes.Buffer
		table.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || table.Len() == 0 {
			b.Fatalf("table %d fetch = %d (%d bytes)", i, resp.StatusCode, table.Len())
		}
	}
}

const matrixSeeds = 8

func matrixSeed(i int) string { return fmt.Sprintf("bench-matrix-%d", i) }

// matrixServer is BenchmarkMatrix's daemon with the keys of the four
// benchmarked apps and every seed's world snapshot prewarmed, once per
// test binary.
var matrixServer = shared(func(b *testing.B) *serve.Server {
	srv := serve.New(serve.Config{Workers: 2, QueueSize: 64, CacheSize: 1, CellCacheSize: 1})
	keys := len(DeviceStableIDs(Profiles()[:4]))
	for i := 0; i < matrixSeeds; i++ {
		if _, err := srv.Prewarm(context.Background(), matrixSeed(i), keys, 0); err != nil {
			b.Fatal(err)
		}
	}
	return srv
})

func BenchmarkMatrix(b *testing.B) {
	srv := matrixServer(b)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)

	apps := make([]string, 0, 4)
	for _, p := range Profiles()[:4] {
		apps = append(apps, p.Name)
	}
	// Four subsets per seed; q3 pulls in q2 (Requires), so their
	// expansions cost 4+4+3+3 = 14 cells run independently vs a union
	// of 4 — a 3.5x theoretical shared-work win per seed.
	subsets := [][]string{
		{"q1", "q2", "q3", "q4"},
		{"q1", "q3", "q4"},
		{"q2", "q3", "q4"},
		{"q1", "q2", "q3"},
	}
	var overlapping []RunSpec
	for i := 0; i < matrixSeeds; i++ {
		for _, probes := range subsets {
			overlapping = append(overlapping, RunSpec{Seed: matrixSeed(i), Profiles: apps, Probes: probes})
		}
	}
	// Control: one full-probe spec per seed — distinct worlds, distinct
	// cells, nothing for the planner to share.
	var control []RunSpec
	for i := 0; i < matrixSeeds; i++ {
		control = append(control, RunSpec{Seed: matrixSeed(i), Profiles: apps, Probes: subsets[0]})
	}

	b.Run("Overlapping_Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBatchRoundTrip(b, ts, overlapping, true)
		}
	})
	b.Run("Overlapping_Sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, spec := range overlapping {
				benchServeRoundTrip(b, ts, spec)
			}
		}
	})
	b.Run("Control_Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBatchRoundTrip(b, ts, control, false)
		}
	})
	b.Run("Control_Sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, spec := range control {
				benchServeRoundTrip(b, ts, spec)
			}
		}
	})
	if minted := srv.Metrics().RSAMinted(); minted != 0 {
		b.Fatalf("prewarmed matrix minted %d keys, want 0", minted)
	}
}
