package provision

import (
	"bytes"
	"context"
	"crypto/rsa"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wvcrypto"
)

func poolRoot() *wvcrypto.DeterministicReader {
	return wvcrypto.NewDeterministicReader("keypool-test-root").Fork("provision/rsa")
}

// A pooled key must be byte-identical to one minted on demand from the
// same root — the property that lets background prewarm, lazy mints and
// snapshot restores interchange freely.
func TestKeyPoolDeterministicMint(t *testing.T) {
	const id = "PX-test"
	pool := NewKeyPool(poolRoot())
	pooled, err := pool.Key(id)
	if err != nil {
		t.Fatalf("pool.Key: %v", err)
	}

	direct, err := wvcrypto.GenerateRSAKey(poolRoot().Fork("rsa/" + id))
	if err != nil {
		t.Fatalf("direct mint: %v", err)
	}
	if !bytes.Equal(wvcrypto.MarshalRSAPrivateKey(pooled), wvcrypto.MarshalRSAPrivateKey(direct)) {
		t.Fatal("pooled key differs from on-demand mint over the same fork")
	}

	// A second pool over an equal root agrees too.
	other := NewKeyPool(poolRoot())
	if got, want := other.Fingerprint(), pool.Fingerprint(); got != want {
		t.Fatalf("fingerprint mismatch over equal roots: %q vs %q", got, want)
	}
	again, err := other.Key(id)
	if err != nil {
		t.Fatalf("other pool.Key: %v", err)
	}
	if !bytes.Equal(wvcrypto.MarshalRSAPrivateKey(pooled), wvcrypto.MarshalRSAPrivateKey(again)) {
		t.Fatal("two pools over equal roots minted different keys")
	}
}

// Concurrent requests for one device share a single generation; requests
// for distinct devices all succeed. Run under -race this doubles as the
// pool's data-race check (wired into `make race`).
func TestKeyPoolConcurrentHammer(t *testing.T) {
	pool := NewKeyPool(poolRoot())
	ids := []string{"PX-a", "PX-b", "PX-c"}
	const callersPerID = 8

	keys := make([][]*rsa.PrivateKey, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		keys[i] = make([]*rsa.PrivateKey, callersPerID)
		for j := 0; j < callersPerID; j++ {
			wg.Add(1)
			go func(i, j int, id string) {
				defer wg.Done()
				key, err := pool.Key(id)
				if err != nil {
					t.Errorf("pool.Key(%q): %v", id, err)
					return
				}
				keys[i][j] = key
			}(i, j, id)
		}
	}
	wg.Wait()

	for i := range ids {
		want := wvcrypto.MarshalRSAPrivateKey(keys[i][0])
		for j := 1; j < callersPerID; j++ {
			if !bytes.Equal(want, wvcrypto.MarshalRSAPrivateKey(keys[i][j])) {
				t.Fatalf("device %q: callers observed different keys", ids[i])
			}
		}
	}
	if got := pool.Minted(); got != int64(len(ids)) {
		t.Fatalf("Minted = %d, want %d (one generation per device)", got, len(ids))
	}
	if got := pool.Served(); got != int64(len(ids)*(callersPerID-1)) {
		t.Fatalf("Served = %d, want %d", got, len(ids)*(callersPerID-1))
	}
}

// Prewarm is idempotent: a second pass over the same IDs performs zero
// new generations, and Install short-circuits later mints.
func TestKeyPoolPrewarmIdempotent(t *testing.T) {
	pool := NewKeyPool(poolRoot())
	ids := []string{"PX-x", "L3-x", "N5-x"}
	if err := pool.Prewarm(context.Background(), ids, 2); err != nil {
		t.Fatalf("Prewarm: %v", err)
	}
	if got := pool.Minted(); got != int64(len(ids)) {
		t.Fatalf("Minted after first prewarm = %d, want %d", got, len(ids))
	}
	if got := pool.Size(); got != len(ids) {
		t.Fatalf("Size = %d, want %d", got, len(ids))
	}
	if err := pool.Prewarm(context.Background(), ids, 0); err != nil {
		t.Fatalf("second Prewarm: %v", err)
	}
	if got := pool.Minted(); got != int64(len(ids)) {
		t.Fatalf("Minted after second prewarm = %d, want %d (idempotent)", got, len(ids))
	}
	if got := len(pool.Export()); got != len(ids) {
		t.Fatalf("Export has %d keys, want %d", got, len(ids))
	}

	// Install a foreign key under a fresh ID: the pool serves it as-is.
	donor, err := pool.Key(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pool.Install("PX-installed", donor)
	got, err := pool.Key("PX-installed")
	if err != nil {
		t.Fatal(err)
	}
	if got != donor {
		t.Fatal("installed key was not served back")
	}
	if minted := pool.Minted(); minted != int64(len(ids)) {
		t.Fatalf("Install triggered a mint: Minted = %d", minted)
	}
}

// The registry's pool path must count mints exactly once and serve
// pre-minted keys with zero new generation.
func TestRegistryKeyPoolPath(t *testing.T) {
	const id = "PX-reg"
	pool := NewKeyPool(poolRoot())
	if err := pool.Prewarm(context.Background(), []string{id}, 1); err != nil {
		t.Fatalf("Prewarm: %v", err)
	}

	reg := NewRegistry()
	reg.UseKeyPool(pool)
	key, err := reg.deviceRSA(id, nil) // rand unused on the pool path
	if err != nil {
		t.Fatalf("deviceRSA: %v", err)
	}
	if got := reg.MintCount(); got != 0 {
		t.Fatalf("MintCount = %d after a pool hit, want 0", got)
	}

	want, err := wvcrypto.GenerateRSAKey(poolRoot().Fork("rsa/" + id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(key.der(), wvcrypto.MarshalRSAPrivateKey(want)) {
		t.Fatal("registry served a key that differs from the deterministic mint")
	}

	// A cold registry over the same pool root mints lazily — and counts it.
	cold := NewRegistry()
	cold.UseKeyPool(NewKeyPool(poolRoot()))
	if _, err := cold.deviceRSA("PX-cold", nil); err != nil {
		t.Fatalf("cold deviceRSA: %v", err)
	}
	if got := cold.MintCount(); got != 1 {
		t.Fatalf("cold MintCount = %d, want 1", got)
	}

	// A restored key stays in its registry: the pool may be shared.
	cold.InstallRSAKey("PX-restored", key.key)
	if got := cold.KeyPool().Size(); got != 1 {
		t.Fatalf("InstallRSAKey reached the pool: Size = %d, want 1", got)
	}
}

// A key's DER is encoded once: two registries over one pool wrap and
// export the pool entry's own bytes, and a registry encodes an installed
// key once for all its exchanges and exports.
func TestRegistry_EncodesEachKeyOnce(t *testing.T) {
	const id = "PX-der"
	pool := NewKeyPool(poolRoot())
	var ders [][]byte
	for range 2 {
		reg := NewRegistry()
		reg.UseKeyPool(pool)
		key, err := reg.deviceRSA(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(key.der(), wvcrypto.MarshalRSAPrivateKey(key.key)) {
			t.Fatal("served DER is not the key's PKCS#1 encoding")
		}
		ders = append(ders, key.der(), reg.ExportRSAKeys()[id])
	}
	for _, der := range ders[1:] {
		if &der[0] != &ders[0][0] {
			t.Fatal("a registry over the pool encoded the key again")
		}
	}

	reg := NewRegistry()
	key, err := pool.Key(id)
	if err != nil {
		t.Fatal(err)
	}
	reg.InstallRSAKey(id, key)
	installed, err := reg.deviceRSA(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if der := installed.der(); !bytes.Equal(der, ders[0]) || &reg.ExportRSAKeys()[id][0] != &der[0] {
		t.Fatal("an installed key's DER is encoded more than once")
	}
}

// storeRuns numbers TestKeyStoreConcurrentFirstUse's runs in this process.
var storeRuns int

// N goroutines asking the process-wide store for a mint root nobody has
// used yet get one pool, and each key they request is minted once — in
// that pool and in the process-wide count. Under -race this is the
// store's data-race check (wired into `make race`). Each run in the
// process uses a new root, so -count runs start cold too.
func TestKeyStoreConcurrentFirstUse(t *testing.T) {
	storeRuns++
	label := fmt.Sprintf("keystore-test-root-%d", storeRuns)
	root := func() *wvcrypto.DeterministicReader {
		return wvcrypto.NewDeterministicReader(label).Fork("provision/rsa")
	}
	ids := []string{"PX-a", "PX-b"}
	const callers = 8
	before := KeysMinted()
	pools := make([]*KeyPool, callers)
	keys := make([][]*rsa.PrivateKey, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pools[i] = SharedKeyPool(root())
			for _, id := range ids {
				key, err := pools[i].Key(id)
				if err != nil {
					t.Errorf("Key(%q): %v", id, err)
					return
				}
				keys[i] = append(keys[i], key)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	pool := pools[0]
	for i := 1; i < callers; i++ {
		if pools[i] != pool {
			t.Fatalf("caller %d got a second pool for one mint root", i)
		}
		for j := range ids {
			if keys[i][j] != keys[0][j] {
				t.Fatalf("caller %d got a second key for %q", i, ids[j])
			}
		}
	}
	if got := pool.Minted(); got != int64(len(ids)) {
		t.Errorf("pool Minted = %d, want %d (one generation per device)", got, len(ids))
	}
	if got := KeysMinted() - before; got != int64(len(ids)) {
		t.Errorf("KeysMinted moved by %d, want %d", got, len(ids))
	}
	if SharedKeyPool(poolRoot()) == pool {
		t.Error("the store handed one pool to two mint roots")
	}
}
