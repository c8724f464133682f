package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wideleak"
)

// Replicas spawned in one process share the process-wide key store: two
// replicas running the same study of a new seed at the same time mint
// each of its device keys once, and both report the same nonzero
// wideleakd_rsa_keys_minted_total. A load harness that warms every
// replica checks exactly that before it times anything.
func TestSpawnLocal_SharedKeyStore(t *testing.T) {
	replicas, err := SpawnLocal(2, serve.Config{Workers: 1, QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for _, r := range replicas {
			r.Shutdown(ctx)
		}
	})

	const seed = "shared-key-store" // no other test uses the seed
	pool := wideleak.SharedKeyPool(seed)
	spec := `{"seed": "` + seed + `", "profiles": ["Showtime"], "probes": ["q2"]}`
	ids := make([]string, len(replicas))
	for i, r := range replicas {
		sub, _ := fleetSubmit(t, r.URL, spec, 202)
		ids[i] = sub.ID
	}
	for i, r := range replicas {
		waitFleetDone(t, r.URL, ids[i], 120*time.Second)
	}

	if minted, size := pool.Minted(), int64(pool.Size()); minted == 0 || minted != size {
		t.Errorf("the seed's pool minted %d keys and holds %d, want each key minted once", minted, size)
	}
	first := scrape(t, replicas[0].URL+"/metrics", "wideleakd_rsa_keys_minted_total")
	if first == "" || first == "0" {
		t.Fatalf("%s rsa_keys_minted = %q, want > 0", replicas[0].ID, first)
	}
	if got := scrape(t, replicas[1].URL+"/metrics", "wideleakd_rsa_keys_minted_total"); got != first {
		t.Errorf("%s rsa_keys_minted = %q, %s reports %q: replicas in one process must agree", replicas[1].ID, got, replicas[0].ID, first)
	}
}
