package wideleak

// Device-axis benchmarks: the shared-work payoff of POST /v1/batches
// when specs fan out across a wide device matrix.
//
// The mix is 4 seeds x 4 probe subsets over an 8-profile device set and
// 4 apps — every spec names the same devices, so the batch planner
// collapses each seed's four expansions (14 probe cells sequentially)
// onto the union of 4 distinct cells, and all four specs share one
// 8-device world build. Sequential requests over /v1/studies model the
// same client without the batch API: every request re-expands and
// re-runs its probe set against a server whose cell and result tiers
// are pinned to one entry. Each device cell is ~2.7x the trio's
// manufacturing and playback work, so the absolute gap is wider than
// BenchmarkMatrix's even though the dedup ratio is the same shape.

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

func BenchmarkMatrixDevices(b *testing.B) {
	ts := httptest.NewServer(devicesServer(b).Handler())
	b.Cleanup(ts.Close)
	specs := devicesSpecs()
	b.Run("Batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchBatchRoundTrip(b, ts, specs, true)
		}
	})
	b.Run("Sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				benchServeRoundTrip(b, ts, spec)
			}
		}
	})
}

// devicesSpecs is the 4-seed × 4-subset mix over 8 devices and 4 apps.
func devicesSpecs() []RunSpec {
	devices := []string{"pixel", "l3", "nexus5", "pixel-2016", "galaxy-s7", "moto-g5", "oneplus-5", "shield-tv"}
	apps := make([]string, 0, 4)
	for _, p := range Profiles()[:4] {
		apps = append(apps, p.Name)
	}
	subsets := [][]string{
		{"q1", "q2", "q3", "q4"},
		{"q1", "q3", "q4"},
		{"q2", "q3", "q4"},
		{"q1", "q2", "q3"},
	}
	const seeds = 4
	var specs []RunSpec
	for i := 0; i < seeds; i++ {
		for _, probes := range subsets {
			specs = append(specs, RunSpec{
				Seed:     fmt.Sprintf("bench-devices-%d", i),
				Profiles: apps,
				Probes:   probes,
				Devices:  devices,
			})
		}
	}
	return specs
}

// devicesServer is BenchmarkMatrixDevices' daemon with the per-seed key
// pools and world snapshots warmed through one untimed batch, once per
// test binary, so neither timed path pays RSA minting or cold world
// builds: the cell and result tiers are pinned to one entry, so nothing
// else carries over and both paths start from the same warm fixture tier.
var devicesServer = shared(func(b *testing.B) *serve.Server {
	srv := serve.New(serve.Config{Workers: 2, QueueSize: 64, CacheSize: 1, CellCacheSize: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	benchBatchRoundTrip(b, ts, devicesSpecs(), true)
	return srv
})
