package wvcrypto

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"math/big"

	"repro/internal/lru"
)

// rsaOpsPerWorld is the number of distinct RSA results one default
// Table I pass stores on a new world: each of its 27 license exchanges
// makes one SignPSS, one VerifyPSS, one EncryptOAEP and one DecryptOAEP
// (TestTableI_PrivateKeyBudget pins the private half).
const rsaOpsPerWorld = 4 * 27

// rsaMemoEntries bounds the RSA result memo: a seed's distinct results,
// for as many seeds as the key store holds (lru.WarmSeeds, 64), so
// 108 × 64 = 6912 results. Measured with runtime.MemStats, a signature
// or ciphertext entry holds about 430 B of heap (its 256-byte value, the
// 32-byte key, the LRU element and map slot), a plaintext or
// verification entry about 190 B, so a seed's 108 results hold about
// 33 KB and the full memo about 2.1 MB.
const rsaMemoEntries = rsaOpsPerWorld * lru.WarmSeeds

// Memo operations, hashed first into every memo key so an entry of one
// operation can never answer another.
const (
	memoSignPSS     = "wvcrypto/memo/sign-pss"
	memoDecryptOAEP = "wvcrypto/memo/decrypt-oaep"
	memoVerifyPSS   = "wvcrypto/memo/verify-pss"
	memoEncryptOAEP = "wvcrypto/memo/encrypt-oaep"
)

// rsaMemo is the process-wide memo behind SignPSS, DecryptOAEP,
// VerifyPSS and EncryptOAEP.
//
// Every world of one seed draws its license nonces, PSS salts and server
// OAEP seeds from streams keyed by the seed alone, so each world of a
// seed replays the same RSA operations on the same inputs, on both
// sides of every license exchange; only fault schedules, forked apart,
// differ between them. Once one world has computed an exponentiation,
// every later world of the seed gets its result from here. A
// private-key entry is keyed by a hash of the operation, the whole
// private key and every input byte, so only a caller holding that
// private key, with those inputs, can reach it; a public-key entry by
// the operation, the public key and every input byte.
var rsaMemo = newResultMemo(rsaMemoEntries)

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

// resultMemo is a bounded LRU of RSA results by memo key. It holds only
// results crypto/rsa returned without error (a signature after its
// re-encryption check, a plaintext after the OAEP padding check, a
// ciphertext, a verification that succeeded), and hands out copies.
type resultMemo struct {
	lru *lru.Cache[[sha256.Size]byte, []byte]
}

func newResultMemo(capacity int) *resultMemo {
	return &resultMemo{lru: lru.New[[sha256.Size]byte, []byte](capacity)}
}

// get returns a copy of the stored result for key.
func (m *resultMemo) get(key [sha256.Size]byte) ([]byte, bool) {
	out, ok := m.lru.Get(key)
	if !ok {
		return nil, false
	}
	return append([]byte{}, out...), true
}

// put stores a copy of out under key, evicting the least recently used
// entry past the bound.
func (m *resultMemo) put(key [sha256.Size]byte, out []byte) {
	m.lru.Put(key, append([]byte(nil), out...))
}

// len reports the resident entry count.
func (m *resultMemo) len() int { return m.lru.Len() }

// privateKey returns the memo-key parts of a private key: N, E and D.
func privateKey(key *rsa.PrivateKey) [][]byte {
	return append(publicKey(&key.PublicKey), intBytes(key.D))
}

// publicKey returns the memo-key parts of a public key: N and E.
func publicKey(pub *rsa.PublicKey) [][]byte {
	e := binary.BigEndian.AppendUint64(nil, uint64(pub.E))
	return [][]byte{intBytes(pub.N), e}
}

// memoKey hashes an operation, a key's parts (privateKey or publicKey)
// and the operation's inputs into a memo key. Every part is
// length-prefixed, so no two different (key, inputs) tuples of one
// operation share an encoding.
func memoKey(op string, key [][]byte, inputs ...[]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	write := func(part []byte) {
		binary.BigEndian.PutUint64(n[:], uint64(len(part)))
		h.Write(n[:])
		h.Write(part)
	}
	write([]byte(op))
	for _, part := range key {
		write(part)
	}
	for _, part := range inputs {
		write(part)
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
