package wvcrypto

import "math/bits"

// smallPrimeBound bounds the trial-division filter: every odd prime below
// it is tried against each prime candidate before Miller–Rabin.
const smallPrimeBound = 1 << 12

// primeGroup is a run of consecutive table primes whose product fits in
// a uint64, so one word-by-word remainder serves the whole run.
type primeGroup struct {
	product uint64
	primes  []uint64
}

// smallPrimeGroups holds the odd primes below smallPrimeBound, ascending,
// packed into uint64 products. It is built once and only read afterwards.
var smallPrimeGroups = buildPrimeGroups(smallPrimeBound)

// buildPrimeGroups sieves the odd primes below bound and packs them
// greedily, in ascending order, into groups whose product fits a uint64.
func buildPrimeGroups(bound int) []primeGroup {
	composite := make([]bool, bound)
	var groups []primeGroup
	g := primeGroup{product: 1}
	for p := 3; p < bound; p += 2 {
		if composite[p] {
			continue
		}
		for m := p * p; m < bound; m += 2 * p {
			composite[m] = true
		}
		hi, lo := bits.Mul64(g.product, uint64(p))
		if hi != 0 {
			groups = append(groups, g)
			g = primeGroup{product: 1}
			lo = uint64(p)
		}
		g.product = lo
		g.primes = append(g.primes, uint64(p))
	}
	if len(g.primes) > 0 {
		groups = append(groups, g)
	}
	return groups
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
