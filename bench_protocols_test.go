package wideleak

// Manifest-dialect benchmarks: what the CDN's on-the-fly repackaging
// costs.
//
// Two shapes per dialect tell the whole story. "cold" is the first
// request for a dialect form: the canonical DASH manifest is parsed and
// re-serialized into the wire format (for DASH itself this is a map
// lookup — the stored form IS the wire form, so it doubles as the
// floor). "memoized" is every later request: the repack cache turns all
// three dialects into the same map lookup, which is why a study run
// through HLS or Smooth Streaming pays the conversion once per title,
// not once per playback. Each op amortizes over an inner batch, and the
// numbers are reported per item: ns/repack (cold) and ns/lookup
// (memoized).

import (
	"testing"

	"repro/internal/cdn"
	"repro/internal/media"
	"repro/internal/wvcrypto"
)

func BenchmarkManifestProtocols(b *testing.B) {
	rand := wvcrypto.NewDeterministicReader("bench-protocols")
	tracks := media.GenerateTitle("movie-1", media.DefaultGenerateOptions())
	packaged, err := media.Package("movie-1", tracks,
		media.KeyPolicy{EncryptAudio: true, DistinctAudioKey: true}, rand)
	if err != nil {
		b.Fatal(err)
	}

	// The inner batches keep a short run's few ~1µs memoized serves above
	// timer noise; ns/op is hidden so only the per-item unit is read.
	const (
		coldBatch = 16
		warmBatch = 4096
	)
	for _, dialect := range []string{"dash", "hls", "sstr"} {
		b.Run(dialect+"_cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				servers := make([]*cdn.Server, coldBatch)
				for j := range servers {
					servers[j] = cdn.NewServer("cdn.bench")
					if err := servers[j].AddPackaged(packaged); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, srv := range servers {
					if _, err := srv.ManifestDialect("movie-1", dialect); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPer(b, coldBatch, "ns/repack")
		})
		b.Run(dialect+"_memoized", func(b *testing.B) {
			srv := cdn.NewServer("cdn.bench")
			if err := srv.AddPackaged(packaged); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.ManifestDialect("movie-1", dialect); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < warmBatch; j++ {
					if _, err := srv.ManifestDialect("movie-1", dialect); err != nil {
						b.Fatal(err)
					}
				}
			}
			reportPer(b, warmBatch, "ns/lookup")
		})
	}
}

// reportPer replaces ns/op with the time per item of a batch-per-op loop.
func reportPer(b *testing.B, batch int, unit string) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), unit)
	b.ReportMetric(0, "ns/op")
}
