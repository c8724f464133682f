package wvcrypto

import (
	"math/big"
	"math/bits"
	"sort"
)

// The prime search filters each candidate in two stages before
// Miller–Rabin. The first trial-divides by every odd prime below
// smallPrimeBound, word by word (hasSmallFactor); the second takes one
// gcd with the product of the primes in [smallPrimeBound, midPrimeBound)
// (midFilter). One gcd stage over every odd prime below midPrimeBound
// is slower than the two together, and a higher midPrimeBound pays more
// per candidate for the modexps it saves.
const (
	smallPrimeBound = 1 << 12
	midPrimeBits    = 16
	midPrimeBound   = 1 << midPrimeBits
)

// primeGroup is a run of consecutive table primes whose product fits in
// a uint64, so one word-by-word remainder serves the whole run.
type primeGroup struct {
	product uint64
	primes  []uint64
}

// smallPrimeGroups holds the odd primes below smallPrimeBound, ascending,
// packed into uint64 products; midPrimeProduct is the product of the
// primes in [smallPrimeBound, midPrimeBound), an ~89,000-bit number.
// Both are built once and only read afterwards.
var smallPrimeGroups, midPrimeProduct = buildFilters()

// buildFilters sieves the odd primes below midPrimeBound once and splits
// them between the two stages.
func buildFilters() ([]primeGroup, *big.Int) {
	primes := oddPrimesBelow(midPrimeBound)
	split := sort.Search(len(primes), func(i int) bool { return primes[i] >= smallPrimeBound })
	return buildPrimeGroups(primes[:split]), productOf(primes[split:])
}

// oddPrimesBelow sieves the odd primes below bound, ascending.
func oddPrimesBelow(bound int) []uint64 {
	composite := make([]bool, bound)
	var primes []uint64
	for p := 3; p < bound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < bound; m += 2 * p {
			composite[m] = true
		}
		primes = append(primes, uint64(p))
	}
	return primes
}

// buildPrimeGroups packs primes greedily, in order, into groups whose
// product fits a uint64.
func buildPrimeGroups(primes []uint64) []primeGroup {
	var groups []primeGroup
	g := primeGroup{product: 1}
	for _, p := range primes {
		hi, lo := bits.Mul64(g.product, p)
		if hi != 0 {
			groups = append(groups, g)
			g = primeGroup{product: 1}
			lo = p
		}
		g.product = lo
		g.primes = append(g.primes, p)
	}
	if len(g.primes) > 0 {
		groups = append(groups, g)
	}
	return groups
}

// productOf multiplies the numbers as a balanced tree, so the big
// multiplications pair operands of equal size.
func productOf(ns []uint64) *big.Int {
	if len(ns) == 1 {
		return new(big.Int).SetUint64(ns[0])
	}
	half := len(ns) / 2
	return new(big.Int).Mul(productOf(ns[:half]), productOf(ns[half:]))
}

// hasSmallFactor reports whether the big-endian number b is divisible by
// an odd prime below smallPrimeBound that is smaller than b itself. Such
// a number is composite, so a prime search may drop it without a
// Miller–Rabin round. Numbers below the bound are never flagged: they
// may be one of the table's own primes.
func hasSmallFactor(b []byte) bool {
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) <= 8 && beUint(b) < smallPrimeBound {
		return false
	}
	for _, g := range smallPrimeGroups {
		r := remainder(b, g.product)
		for _, p := range g.primes {
			if r%p == 0 {
				return true
			}
		}
	}
	return false
}

// midFilter is the second filter stage with its scratch numbers, which
// it reuses from candidate to candidate. The zero value is ready to use.
type midFilter struct {
	q, r, g big.Int
}

// hasFactor reports whether n is divisible by a prime in
// [smallPrimeBound, midPrimeBound) that is smaller than n itself, with
// one reduction of midPrimeProduct mod n and one gcd, the test
// crypto/internal/fips140/rsa runs before Miller–Rabin. The gcd is the
// product of the range's primes that divide n. It is above 1 exactly
// when one divides n, and it equals n below midPrimeBound only when n is
// one of those primes (a product of two of them is above 2^24), which is
// not flagged.
func (f *midFilter) hasFactor(n *big.Int) bool {
	if n.Sign() <= 0 {
		return false
	}
	f.q.QuoRem(midPrimeProduct, n, &f.r)
	f.g.GCD(nil, nil, &f.r, n)
	if f.g.BitLen() <= 1 {
		return false
	}
	return n.BitLen() > midPrimeBits || f.g.Cmp(n) != 0
}

// remainder returns the big-endian number b modulo m, one 64-bit word at
// a time. A length that is not a multiple of 8 leaves a short leading
// word, which is folded in first.
func remainder(b []byte, m uint64) uint64 {
	var r uint64
	for len(b) > 0 {
		n := len(b) % 8
		if n == 0 {
			n = 8
		}
		r = bits.Rem64(r, beUint(b[:n]), m)
		b = b[n:]
	}
	return r
}

// beUint decodes up to 8 big-endian bytes.
func beUint(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}
