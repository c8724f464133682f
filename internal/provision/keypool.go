// Device RSA key pool: pre-mints 2048-bit Device RSA keys off the hot
// path while preserving bit-for-bit determinism.
//
// The pool owns a deterministic mint root; every device's key is
// generated from the root's fork by stable ID — never from a shared
// stream cursor — so a key minted in a background goroutine at boot is
// byte-identical to one minted lazily at the device's first provisioning
// request, and two pools built over the same root agree on every key.
// That property is what lets every world of a seed share one pool, and
// what keeps the study's golden tables stable whether keys come from the
// pool, a snapshot, or an on-demand mint.
package provision

import (
	"context"
	"crypto/rsa"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/wvcrypto"
)

var (
	// store is the process-wide key store: one pool per mint root, keyed
	// by the root's fingerprint, so a world can only ever be handed its
	// own seed's pool. A full default pool holds 32 keys in ~150 KB of
	// heap (~4.7 KB a key), so the store at its bound of lru.WarmSeeds
	// pools holds under 10 MB.
	store = lru.New[string, *KeyPool](lru.WarmSeeds)
	// keysMinted counts key generations by every pool in the process.
	keysMinted atomic.Int64
)

// SharedKeyPool returns the process-wide pool for a mint root, creating
// it on first use. Every caller with an equal root gets the same pool,
// so a key is minted once per process (until the store evicts the pool).
func SharedKeyPool(root *wvcrypto.DeterministicReader) *KeyPool {
	return store.GetOrPut(root.Fingerprint(), func() *KeyPool { return NewKeyPool(root) })
}

// KeysMinted reports the Device RSA key generations every pool in this
// process has performed.
func KeysMinted() int64 { return keysMinted.Load() }

// KeyPool pre-mints deterministic Device RSA keys. Safe for concurrent
// use; duplicate requests for the same stable ID share one generation
// (per-device singleflight, exactly like the registry's legacy path).
type KeyPool struct {
	root *wvcrypto.DeterministicReader

	mu      sync.Mutex
	entries map[string]*poolEntry
	ready   map[string]*rsa.PrivateKey // completed mints/installs, for Export

	minted atomic.Int64 // actual key generations performed
	served atomic.Int64 // keys handed out that were already resident
}

// poolEntry is one device's singleflight mint guard. Its key carries the
// key's DER, encoded once per process, so no world of the seed encodes
// it again.
type poolEntry struct {
	once sync.Once
	key  deviceRSAKey
	err  error
}

// NewKeyPool builds a fresh, unshared pool minting from the given
// deterministic root (SharedKeyPool returns the process-wide one). Each
// device's key draws from root.Fork("rsa/" + stableID), so the pool is a
// pure function of (root seed, stable ID).
func NewKeyPool(root *wvcrypto.DeterministicReader) *KeyPool {
	return &KeyPool{
		root:    root,
		entries: make(map[string]*poolEntry),
		ready:   make(map[string]*rsa.PrivateKey),
	}
}

// Fingerprint identifies the pool's mint root. Two pools (or a pool and
// a registry) with equal fingerprints produce byte-identical keys for
// every stable ID.
func (p *KeyPool) Fingerprint() string { return p.root.Fingerprint() }

// Key returns the device's RSA key, minting it deterministically when it
// is not yet resident. The returned key is byte-identical regardless of
// when, where, or how concurrently it was requested.
func (p *KeyPool) Key(stableID string) (*rsa.PrivateKey, error) {
	key, _, err := p.key(stableID)
	return key.key, err
}

// key reports, alongside the key, whether THIS call performed the
// generation (false = the key was already resident or another caller's
// in-flight mint was joined). The registry uses it to count the keygens
// it is responsible for.
func (p *KeyPool) key(stableID string) (deviceRSAKey, bool, error) {
	p.mu.Lock()
	e, ok := p.entries[stableID]
	if !ok {
		e = &poolEntry{}
		p.entries[stableID] = e
	}
	p.mu.Unlock()

	mintedHere := false
	e.once.Do(func() {
		key, err := wvcrypto.GenerateRSAKey(p.root.Fork("rsa/" + stableID))
		mintedHere = true
		p.minted.Add(1)
		keysMinted.Add(1)
		if e.err = err; err == nil {
			e.key = newDeviceRSAKey(key)
			p.mu.Lock()
			p.ready[stableID] = key
			p.mu.Unlock()
		}
	})
	if !mintedHere {
		p.served.Add(1)
	}
	return e.key, mintedHere, e.err
}

// Export returns every resident key (completed mints and installs) as a
// copy — the state a world snapshot persists so a restored world never
// regenerates what this pool already paid for.
func (p *KeyPool) Export() map[string]*rsa.PrivateKey {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]*rsa.PrivateKey, len(p.ready))
	for id, key := range p.ready {
		out[id] = key
	}
	return out
}

// Install seeds the pool with an already-generated key (e.g. from a
// world snapshot), so later Key calls serve it without any generation.
// Installing over a resident key is a no-op: determinism guarantees the
// bytes agree.
func (p *KeyPool) Install(stableID string, key *rsa.PrivateKey) {
	p.mu.Lock()
	e, ok := p.entries[stableID]
	if !ok {
		e = &poolEntry{}
		p.entries[stableID] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		e.key = newDeviceRSAKey(key)
		p.mu.Lock()
		p.ready[stableID] = key
		p.mu.Unlock()
	})
}

// Prewarm mints the given devices' keys on parallelism background
// workers, returning the first error (ctx cancellation stops workers
// from picking up further IDs). parallelism <= 0 selects one worker per
// ID. Already-resident keys cost nothing, so Prewarm is idempotent.
func (p *KeyPool) Prewarm(ctx context.Context, stableIDs []string, parallelism int) error {
	if parallelism <= 0 || parallelism > len(stableIDs) {
		parallelism = len(stableIDs)
	}
	if parallelism == 0 {
		return nil
	}
	errs := make([]error, len(stableIDs))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for i := 0; i < parallelism; i++ {
		go func() {
			defer wg.Done()
			for idx := range next {
				_, errs[idx] = p.Key(stableIDs[idx])
			}
		}()
	}
feed:
	for i := range stableIDs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Minted reports how many actual key generations the pool has performed.
func (p *KeyPool) Minted() int64 { return p.minted.Load() }

// Served reports how many key requests were answered from residency
// (no generation).
func (p *KeyPool) Served() int64 { return p.served.Load() }

// Size reports the resident key count (including in-flight mints).
func (p *KeyPool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}
