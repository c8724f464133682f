package wvcrypto

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"repro/internal/lru"
)

// privateMemoEntries bounds the private-key memo. One default Table I
// pass makes 27 + 27 private-key calls on a new world, so 1024 entries
// hold the distinct results of about 19 such passes.
const privateMemoEntries = 1024

// Memo operations, hashed first into every memo key so a PSS entry can
// never answer an OAEP call.
const (
	memoSignPSS     = "wvcrypto/memo/sign-pss"
	memoDecryptOAEP = "wvcrypto/memo/decrypt-oaep"
)

// privateKeyMemo is the process-wide memo behind SignPSS and
// DecryptOAEP.
//
// Every world of one seed draws its license nonces, PSS salts and server
// OAEP seeds from streams keyed by the seed alone, so each world of a
// seed replays the same private-key operations on the same inputs; only
// fault schedules, forked apart, differ between them. Once one world
// has computed an exponentiation, every later world of the seed gets
// its result from here. An entry is keyed by a hash of the operation,
// the whole private key and every input byte, so only a caller holding
// that private key, with those inputs, can reach it.
var privateKeyMemo = newPrivateMemo(privateMemoEntries)

// keyParseMemoEntries bounds the key-parse memo: a seed's worlds
// provision 27 distinct Device RSA keys, and the memo holds as many
// seeds as the key store (lru.WarmSeeds, 64), so 27 × 64 = 1728 keys.
// A parsed 2048-bit key with its CRT precomputation holds about 4.4 KB
// of heap, plus about 150 B of LRU bookkeeping per entry, so the full
// memo holds about 7.9 MB.
const keyParseMemoEntries = 27 * lru.WarmSeeds

// keyParseMemo is the process-wide memo behind ParseRSAPrivateKey, by
// SHA-256 of the DER. A device's key is a pure function of the seed and
// the device, so every world of a seed provisions the same DERs, and
// its CDMs parse each when they load it; after a seed's first world
// every parse is a hit. Nothing in the repository modifies a parsed
// key; the key pool already hands one key to every world of its seed.
var keyParseMemo = lru.New[[sha256.Size]byte, *rsa.PrivateKey](keyParseMemoEntries)

// privateMemo is a bounded LRU of private-key results by memo key. It
// holds only results crypto/rsa returned without error (a signature
// after its re-encryption check, a plaintext after the OAEP padding
// check), and hands out copies.
type privateMemo struct {
	lru *lru.Cache[[sha256.Size]byte, []byte]
}

func newPrivateMemo(capacity int) *privateMemo {
	return &privateMemo{lru: lru.New[[sha256.Size]byte, []byte](capacity)}
}

// get returns a copy of the stored result for key.
func (m *privateMemo) get(key [sha256.Size]byte) ([]byte, bool) {
	out, ok := m.lru.Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte{}, out...), true
}

// put stores a copy of out under key, evicting the least recently used
// entry past the bound.
func (m *privateMemo) put(key [sha256.Size]byte, out []byte) {
	m.lru.Put(key, append([]byte(nil), out...))
}

// len reports the resident entry count.
func (m *privateMemo) len() int { return m.lru.Len() }

// memoKey hashes an operation, the whole private key (N, E and D) and
// the operation's inputs into a memo key. Every part is length-prefixed,
// so no two different (key, inputs) tuples share an encoding.
func memoKey(op string, key *rsa.PrivateKey, inputs ...[]byte) [sha256.Size]byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], uint64(key.E))
	h := sha256.New()
	for _, part := range append([][]byte{[]byte(op), intBytes(key.N), e[:], intBytes(key.D)}, inputs...) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// intBytes is x's big-endian magnitude; a missing key part hashes as
// empty (crypto/rsa rejects such a key, so its calls are never stored).
func intBytes(x *big.Int) []byte {
	if x == nil {
		return nil
	}
	return x.Bytes()
}
