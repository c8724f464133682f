package wvcrypto

import (
	"io"
	"math/big"
	"testing"
)

// referencePrimesIn lists the odd primes in [lo, hi), found
// independently of the sieve.
func referencePrimesIn(lo, hi int64) []*big.Int {
	var ps []*big.Int
	for p := lo | 1; p < hi; p += 2 {
		if n := big.NewInt(p); n.ProbablyPrime(0) {
			ps = append(ps, n)
		}
	}
	return ps
}

// referencePrimes and referenceMidPrimes are the two filter stages'
// primes: the odd primes below smallPrimeBound, and the primes in
// [smallPrimeBound, midPrimeBound).
var (
	referencePrimes    = referencePrimesIn(3, smallPrimeBound)
	referenceMidPrimes = referencePrimesIn(smallPrimeBound, midPrimeBound)
)

// referenceSmallFactor is hasSmallFactor's contract in big.Int terms:
// b is at least the bound and some odd prime below the bound divides it.
func referenceSmallFactor(b []byte) bool {
	n := new(big.Int).SetBytes(b)
	return n.Cmp(big.NewInt(smallPrimeBound)) >= 0 && referenceFactor(n, referencePrimes)
}

// referenceMidFactor is midFilter.hasFactor's contract in big.Int terms:
// some prime in [smallPrimeBound, midPrimeBound) smaller than n divides n.
func referenceMidFactor(n *big.Int) bool {
	return referenceFactor(n, referenceMidPrimes)
}

// referenceFactor reports whether one of primes, smaller than n itself,
// divides n.
func referenceFactor(n *big.Int, primes []*big.Int) bool {
	r := new(big.Int)
	for _, p := range primes {
		if p.Cmp(n) < 0 && r.Mod(n, p).Sign() == 0 {
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
		want := big.NewInt(1)
		for _, p := range referenceMidPrimes {
			want.Mul(want, p)
		}
		if midPrimeProduct.Cmp(want) != 0 {
			t.Fatalf("second-stage product is %d bits, want the %d-bit product of the %d primes in [2^12, 2^16)",
				midPrimeProduct.BitLen(), want.BitLen(), len(referenceMidPrimes))
		}
	})

	t.Run("never flags primes", func(t *testing.T) {
		var mid midFilter
		key := sharedTestKey(t)
		for _, p := range key.Primes {
			if hasSmallFactor(p.Bytes()) || mid.hasFactor(p) {
				t.Errorf("flagged a prime of the shared test key")
			}
		}
		// The tables' own primes and the first primes above each bound.
		for _, p := range referencePrimes {
			if hasSmallFactor(p.Bytes()) || mid.hasFactor(p) {
				t.Errorf("flagged table prime %s", p)
			}
		}
		for _, p := range referenceMidPrimes {
			if hasSmallFactor(p.Bytes()) || mid.hasFactor(p) {
				t.Errorf("flagged second-stage prime %s", p)
			}
		}
		for _, bound := range []int64{smallPrimeBound, midPrimeBound} {
			found := 0
			for n := bound + 1; found < 16; n += 2 {
				p := big.NewInt(n)
				if !p.ProbablyPrime(20) {
					continue
				}
				found++
				if hasSmallFactor(p.Bytes()) || mid.hasFactor(p) {
					t.Errorf("flagged prime %d just above %d", n, bound)
				}
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
		var mid midFilter
		for _, p := range referenceMidPrimes {
			k := new(big.Int).SetBytes(randomCandidate(t, rand, 1000))
			n := new(big.Int).Mul(p, k)
			if !mid.hasFactor(n) {
				t.Fatalf("second stage missed factor %s of a %d-bit multiple", p, n.BitLen())
			}
		}
	})

	t.Run("agrees with big.Int", func(t *testing.T) {
		rand := NewDeterministicReader("small-factor-agreement")
		var mid midFilter
		flagged, midFlagged := 0, 0
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
				if i >= 250 {
					continue // the second stage's reference is ~5,000 divisions
				}
				n := new(big.Int).SetBytes(b)
				got, want = mid.hasFactor(n), referenceMidFactor(n)
				if got != want {
					t.Fatalf("%d-bit candidate %x: second stage %v, big.Int %v", bits, b, got, want)
				}
				if got {
					midFlagged++
				}
			}
		}
		// About 86% of odd numbers have an odd prime factor below 2^12,
		// and about 25% one in [2^12, 2^16) (1 - 12/16, by Mertens).
		if flagged < 1600 || flagged > 1850 {
			t.Errorf("filter flagged %d of 2000 odd candidates, want about 1730", flagged)
		}
		if midFlagged < 80 || midFlagged > 170 {
			t.Errorf("second stage flagged %d of 500 odd candidates, want about 125", midFlagged)
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
	f.Add([]byte{0xff, 0xf1})             // 65521, the largest second-stage prime
	f.Add([]byte{0x01, 0x00, 0x01})       // 65537, the first prime above it
	f.Add([]byte{0x01, 0x01, 0x20, 0x2d}) // 4099·4111, a product of two of them
	f.Add([]byte{0x20, 0x06})             // 2·4099, below 2^16
	f.Add([]byte{0x02, 0xff, 0xd3})       // 3·65521
	var mid midFilter
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := hasSmallFactor(b), referenceSmallFactor(b); got != want {
			t.Fatalf("%x: filter %v, big.Int %v", b, got, want)
		}
		n := new(big.Int).SetBytes(b)
		if got, want := mid.hasFactor(n), referenceMidFactor(n); got != want {
			t.Fatalf("%x: second stage %v, big.Int %v", b, got, want)
		}
	})
}
