package wideleak

import "testing"

// Every spelling of a seed names one world: NewWorld, NewKeyPool and
// RunSpec.Canonicalize all read "" as "default". A world provisions from
// its seed's pool in the process-wide key store, accepts any other pool
// of its seed, and refuses a pool minted over a different seed — the
// fingerprint check is what makes sharing a pool across worlds safe.
func TestAttachKeyPool_SeedMismatch(t *testing.T) {
	for _, tc := range []struct{ seed, canonical, other string }{
		{"", "default", "x"},
		{"default", "default", "x"},
		{"x", "x", "default"},
	} {
		w, err := NewWorld(tc.seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Seed(); got != tc.canonical {
			t.Errorf("NewWorld(%q).Seed() = %q, want %q", tc.seed, got, tc.canonical)
		}
		c, err := RunSpec{Seed: tc.seed}.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.Seed != tc.canonical {
			t.Errorf("RunSpec{Seed: %q} canonicalizes to seed %q, want %q", tc.seed, c.Seed, tc.canonical)
		}
		if w.Registry.KeyPool() != SharedKeyPool(tc.canonical) {
			t.Errorf("NewWorld(%q) does not provision from the store's %q pool", tc.seed, tc.canonical)
		}
		if err := w.AttachKeyPool(NewKeyPool(tc.other)); err == nil {
			t.Errorf("NewWorld(%q) accepted a %q pool", tc.seed, tc.other)
		}
		for _, seed := range []string{tc.seed, tc.canonical} {
			if err := w.AttachKeyPool(NewKeyPool(seed)); err != nil {
				t.Errorf("NewWorld(%q) refused a %q pool: %v", tc.seed, seed, err)
			}
		}
	}
}
