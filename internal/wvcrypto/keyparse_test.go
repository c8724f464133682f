package wvcrypto

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lru"
)

// freshKeyParseMemo gives the test an empty key-parse memo of the given
// bound, restored afterwards, so its counts do not depend on test order
// or -count.
func freshKeyParseMemo(t testing.TB, bound int) {
	saved := keyParseMemo
	keyParseMemo = lru.New[[sha256.Size]byte, *rsa.PrivateKey](bound)
	t.Cleanup(func() { keyParseMemo = saved })
}

// sameKey reports whether two keys agree on N, E, D and the primes.
func sameKey(a, b *rsa.PrivateKey) bool {
	return a.N.Cmp(b.N) == 0 && a.E == b.E && a.D.Cmp(b.D) == 0 && reflect.DeepEqual(a.Primes, b.Primes)
}

// A key-parse hit returns the key parsed on the miss, equal to what
// x509.ParsePKCS1PrivateKey decodes.
func TestKeyParseMemo_HitEqualsX509(t *testing.T) {
	freshKeyParseMemo(t, keyParseMemoEntries)
	der := MarshalRSAPrivateKey(sharedTestKey(t))
	want, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	calls0, hits0 := KeyParseMemoStats()
	first, err := ParseRSAPrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseRSAPrivateKey(append([]byte(nil), der...))
	if err != nil {
		t.Fatal(err)
	}
	if !sameKey(first, want) || !sameKey(second, want) {
		t.Error("memo key differs from x509.ParsePKCS1PrivateKey's")
	}
	if second != first {
		t.Error("a hit did not return the key parsed on the miss")
	}
	if calls, hits := KeyParseMemoStats(); calls-calls0 != 2 || hits-hits0 != 1 {
		t.Errorf("%d calls, %d hits; want 2 calls, 1 hit", calls-calls0, hits-hits0)
	}
}

// Malformed DER fails on every call and is never stored.
func TestKeyParseMemo_FailuresNeverStored(t *testing.T) {
	freshKeyParseMemo(t, keyParseMemoEntries)
	der := MarshalRSAPrivateKey(sharedTestKey(t))
	corrupt := append([]byte(nil), der...)
	corrupt[len(corrupt)/2] ^= 0xff // a modulus or exponent byte: fails validation
	for name, bad := range map[string][]byte{
		"garbage":   []byte("not a der key"),
		"truncated": der[:len(der)/2],
		"corrupt":   corrupt,
	} {
		if _, err := x509.ParsePKCS1PrivateKey(bad); err == nil {
			t.Fatalf("%s DER parses with x509; it must be malformed", name)
		}
		_, hits0 := KeyParseMemoStats()
		for pass := 0; pass < 3; pass++ {
			if _, err := ParseRSAPrivateKey(bad); err == nil {
				t.Errorf("%s DER pass %d parsed", name, pass)
			}
		}
		if _, hits := KeyParseMemoStats(); hits != hits0 {
			t.Errorf("%s DER: %d hits", name, hits-hits0)
		}
		if n := keyParseMemo.Len(); n != 0 {
			t.Errorf("%s DER: memo holds %d entries after failed parses", name, n)
		}
	}
}

// The memo never holds more than its bound, over bound + k distinct
// keys.
func TestKeyParseMemo_Bound(t *testing.T) {
	const bound, extra = 3, 2
	freshKeyParseMemo(t, bound)
	for i := 0; i < bound+extra; i++ {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRSAPrivateKey(MarshalRSAPrivateKey(key))
		if err != nil {
			t.Fatal(err)
		}
		if !sameKey(got, key) {
			t.Errorf("key %d parsed wrong", i)
		}
		if n := keyParseMemo.Len(); n > bound {
			t.Fatalf("after %d distinct keys the memo holds %d entries, bound %d", i+1, n, bound)
		}
	}
	if n := keyParseMemo.Len(); n != bound {
		t.Errorf("memo holds %d entries, want %d", n, bound)
	}
}

// Concurrent hits and misses on two keys all equal x509's decode; run
// under the race detector by make race.
func TestKeyParseMemo_Concurrent(t *testing.T) {
	freshKeyParseMemo(t, keyParseMemoEntries)
	keys := []*rsa.PrivateKey{sharedTestKey(t), otherTestKey(t)}
	ders := make([][]byte, len(keys))
	for i, k := range keys {
		ders[i] = MarshalRSAPrivateKey(k)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (i + w) % len(keys)
				got, err := ParseRSAPrivateKey(ders[k])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameKey(got, keys[k]) {
					t.Errorf("worker %d: key %d parsed wrong", w, k)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkKeyParseMemo prices a key-parse hit (the DER hash and a
// lookup) against x509.ParsePKCS1PrivateKey, which a miss adds it to.
func BenchmarkKeyParseMemo(b *testing.B) {
	der := MarshalRSAPrivateKey(sharedTestKey(b))
	b.Run("hit", func(b *testing.B) {
		ParseRSAPrivateKey(der)
		for i := 0; i < b.N; i++ {
			ParseRSAPrivateKey(der)
		}
	})
	b.Run("x509", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x509.ParsePKCS1PrivateKey(der)
		}
	})
}
