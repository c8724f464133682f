package wvcrypto

import (
	"io"
	"math/big"
	"testing"
)

// referencePrimes lists the odd primes below smallPrimeBound, found
// independently of the sieve.
var referencePrimes = func() []*big.Int {
	var ps []*big.Int
	for p := int64(3); p < smallPrimeBound; p += 2 {
		if n := big.NewInt(p); n.ProbablyPrime(0) {
			ps = append(ps, n)
		}
	}
	return ps
}()

// referenceSmallFactor is hasSmallFactor's contract in big.Int terms:
// b is at least the bound and some odd prime below the bound divides it.
func referenceSmallFactor(b []byte) bool {
	n := new(big.Int).SetBytes(b)
	if n.Cmp(big.NewInt(smallPrimeBound)) < 0 {
		return false
	}
	r := new(big.Int)
	for _, p := range referencePrimes {
		if r.Mod(n, p).Sign() == 0 {
			return true
		}
	}
	return false
}

// randomCandidate reads a random odd number of exactly the given bit
// length, shaped as randomPrime shapes its candidates.
func randomCandidate(t *testing.T, rand io.Reader, bits int) []byte {
	t.Helper()
	b := make([]byte, (bits+7)/8)
	if _, err := io.ReadFull(rand, b); err != nil {
		t.Fatal(err)
	}
	b[0] &= 0xff >> (len(b)*8 - bits)
	b[0] |= 0x80 >> (len(b)*8 - bits)
	b[len(b)-1] |= 1
	return b
}

func TestSmallFactorFilter(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		var got []uint64
		for _, g := range smallPrimeGroups {
			prod := new(big.Int).SetUint64(1)
			for _, p := range g.primes {
				prod.Mul(prod, new(big.Int).SetUint64(p))
				got = append(got, p)
			}
			if !prod.IsUint64() || prod.Uint64() != g.product {
				t.Fatalf("group %v: product %d, want %s", g.primes, g.product, prod)
			}
		}
		if len(got) != len(referencePrimes) {
			t.Fatalf("table holds %d primes, want %d", len(got), len(referencePrimes))
		}
		for i, p := range referencePrimes {
			if got[i] != p.Uint64() {
				t.Fatalf("table prime %d is %d, want %s", i, got[i], p)
			}
		}
	})

	t.Run("never flags primes", func(t *testing.T) {
		key := sharedTestKey(t)
		for _, p := range key.Primes {
			if hasSmallFactor(p.Bytes()) {
				t.Errorf("flagged a prime of the shared test key")
			}
		}
		// The table's own primes and the first primes above the bound.
		for _, p := range referencePrimes {
			if hasSmallFactor(p.Bytes()) {
				t.Errorf("flagged table prime %s", p)
			}
		}
		found := 0
		for n := int64(smallPrimeBound + 1); found < 16; n += 2 {
			p := big.NewInt(n)
			if !p.ProbablyPrime(20) {
				continue
			}
			found++
			if hasSmallFactor(p.Bytes()) {
				t.Errorf("flagged prime %d just above the bound", n)
			}
		}
	})

	t.Run("flags multiples of every table prime", func(t *testing.T) {
		rand := NewDeterministicReader("small-factor-multiples")
		for _, p := range referencePrimes {
			k := new(big.Int).SetBytes(randomCandidate(t, rand, 1000))
			n := new(big.Int).Mul(p, k)
			if !hasSmallFactor(n.Bytes()) {
				t.Fatalf("missed factor %s of a %d-bit multiple", p, n.BitLen())
			}
		}
	})

	t.Run("agrees with big.Int", func(t *testing.T) {
		rand := NewDeterministicReader("small-factor-agreement")
		flagged := 0
		for _, bits := range []int{1024, 1025} {
			for i := 0; i < 1000; i++ {
				b := randomCandidate(t, rand, bits)
				got, want := hasSmallFactor(b), referenceSmallFactor(b)
				if got != want {
					t.Fatalf("%d-bit candidate %x: filter %v, big.Int %v", bits, b, got, want)
				}
				if got {
					flagged++
				}
			}
		}
		// About 86% of odd numbers have an odd prime factor below 2^12.
		if flagged < 1600 || flagged > 1850 {
			t.Errorf("filter flagged %d of 2000 odd candidates, want about 1730", flagged)
		}
	})
}

func FuzzSmallFactor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x03})
	f.Add([]byte{0x0f, 0xfd})             // 4093, the largest table prime
	f.Add([]byte{0x10, 0x03})             // 4099, the first prime above the bound
	f.Add([]byte{0x00, 0x00, 0x2f, 0xf7}) // 3·4093
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := hasSmallFactor(b), referenceSmallFactor(b); got != want {
			t.Fatalf("%x: filter %v, big.Int %v", b, got, want)
		}
	})
}
