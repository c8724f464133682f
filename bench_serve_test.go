package wideleak

// Service-layer benchmarks: the wideleakd job pipeline measured through
// its real HTTP surface (submit → poll → fetch). Cold runs pay for the
// full study; Warm runs hit the content-addressed result cache, so the
// Cold/Warm ratio is the cache's measured speedup (recorded in
// EXPERIMENTS.md §serve).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// benchServeRoundTrip submits one spec and drives it to completion, fetching the
// text table at the end — a full client round trip.
func benchServeRoundTrip(b *testing.B, ts *httptest.Server, spec RunSpec) {
	b.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	var sub struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		b.Fatalf("submit = %d", resp.StatusCode)
	}

	deadline := time.Now().Add(120 * time.Second)
	for sub.State != "done" {
		if time.Now().After(deadline) {
			b.Fatalf("study %s never finished", sub.ID)
		}
		if sub.State == "failed" || sub.State == "canceled" {
			b.Fatalf("study %s reached %s", sub.ID, sub.State)
		}
		time.Sleep(2 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/studies/" + sub.ID)
		if err != nil {
			b.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		sub.State = st.State
	}

	resp, err = http.Get(ts.URL + "/v1/studies/" + sub.ID + "/table?format=txt")
	if err != nil {
		b.Fatal(err)
	}
	var table bytes.Buffer
	table.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || table.Len() == 0 {
		b.Fatalf("table fetch = %d (%d bytes)", resp.StatusCode, table.Len())
	}
}

// BenchmarkServer_Throughput measures the daemon's submit→poll→fetch
// round trip for a one-app study. Cold gives every iteration a fresh
// seed (full device work each time); Warm submits the same canonical
// request concurrently, so all but the first are cache hits.
func BenchmarkServer_Throughput(b *testing.B) {
	newServer := func(b *testing.B) *httptest.Server {
		srv := serve.New(serve.Config{Workers: 4, QueueSize: 64, CacheSize: 128})
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		return ts
	}
	spec := func(seed string) RunSpec {
		return RunSpec{Seed: seed, Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
	}

	b.Run("Cold", func(b *testing.B) {
		ts := newServer(b)
		var n atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchServeRoundTrip(b, ts, spec(fmt.Sprintf("bench-cold-%d", n.Add(1))))
		}
	})

	b.Run("Warm", func(b *testing.B) {
		ts := newServer(b)
		benchServeRoundTrip(b, ts, spec("bench-warm")) // populate the cache
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				benchServeRoundTrip(b, ts, spec("bench-warm"))
			}
		})
	})
}

// BenchmarkServer_ColdWithWorldCache measures the tier-2 path the
// cold-start work attacks: every iteration is a tier-1 MISS (the result
// and cell tiers hold one entry, and consecutive requests differ in app
// and probe subset) over a prewarmed seed, so the study runs for real
// but its world restores from the banked snapshot and its keys come from
// the boot-warmed pool. Compare against Throughput/Cold — same full
// submit→run→fetch round trip, minus world build and RSA minting. The
// shapes repeat with period 10, so any 10 consecutive iterations cost
// the same.
func BenchmarkServer_ColdWithWorldCache(b *testing.B) {
	srv := worldCacheServer(b)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)

	apps := Profiles()
	probes := [][]string{{"q1"}, {"q2"}, {"q3"}, {"q4"}, {"q1", "q2"}, {"q2", "q3"}, {"q3", "q4"}, {"q1", "q4"}, {"q1", "q2", "q3"}, {"q2", "q3", "q4"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := worldCacheShapes.Add(1) - 1
		spec := RunSpec{
			Seed:     "bench-worldcache",
			Profiles: []string{apps[k%int64(len(apps))].Name},
			Probes:   probes[k%int64(len(probes))],
		}
		benchServeRoundTrip(b, ts, spec)
	}
	if minted := srv.Metrics().RSAMinted(); minted != 0 {
		b.Fatalf("world-cache path minted %d keys, want 0", minted)
	}
}

// worldCacheServer is BenchmarkServer_ColdWithWorldCache's daemon after
// its boot-time warm-up, outside timing: every device key for the seed,
// plus the banked world snapshot.
var worldCacheServer = shared(func(b *testing.B) *serve.Server {
	srv := serve.New(serve.Config{Workers: 4, QueueSize: 64, CacheSize: 1, CellCacheSize: 1})
	if _, err := srv.Prewarm(context.Background(), "bench-worldcache", 0, 4); err != nil {
		b.Fatal(err)
	}
	return srv
})

// worldCacheShapes numbers the requests across every run in the binary,
// so a run never opens with the shape the previous run ended on.
var worldCacheShapes atomic.Int64
