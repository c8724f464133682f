package wvcrypto

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"
)

// RSABits is the modulus size of the Device RSA Key, matching the 2048-bit
// key the paper reverse-engineered.
const RSABits = 2048

// rsaPublicExponent is F4, the exponent every Widevine device key uses.
const rsaPublicExponent = 65537

// GenerateRSAKey generates a Device RSA key pair from the given randomness
// source, as a pure function of the bytes it reads.
//
// The standard library's rsa.GenerateKey is explicitly NOT that function:
// with a non-default reader it routes candidate reads through
// drbg.ReadWithReader, which prepends randutil.MaybeReadByte — a coin
// flip that desynchronizes the stream on roughly half of all calls. The
// keypool and world-snapshot tiers need a key minted at boot, restored
// from a snapshot, or minted lazily to be byte-identical, so prime
// generation here reads the stream directly (FIPS 186-5 style: draw a
// candidate, pin the top two bits and the low bit, reject until prime;
// see randomPrime). big.Int.ProbablyPrime is deterministic for a given
// candidate, so the whole key is determined by the reader's bytes.
func GenerateRSAKey(rand io.Reader) (*rsa.PrivateKey, error) {
	e := big.NewInt(rsaPublicExponent)
	one := big.NewInt(1)
	for {
		p, err := randomPrime(rand, (RSABits+1)/2)
		if err != nil {
			return nil, fmt.Errorf("wvcrypto: generate rsa key: %w", err)
		}
		q, err := randomPrime(rand, RSABits/2)
		if err != nil {
			return nil, fmt.Errorf("wvcrypto: generate rsa key: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != RSABits {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			// e divides p-1 or q-1; redraw.
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: n, E: rsaPublicExponent},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		return key, nil
	}
}

// primeTestRounds is the ProbablyPrime argument the prime search accepts
// a candidate with. ProbablyPrime(n) runs n Miller–Rabin rounds with
// pseudorandom bases, then the Baillie–PSW test: one more round with
// base 2 and a Lucas test. Five rounds in all is what crypto/rsa runs on
// primes of this size.
const primeTestRounds = 4

// randomPrime draws candidates of exactly the given bit length from rand
// until one is (probably) prime. The top two bits are set so the product
// of two primes always reaches the full modulus size; the low bit makes
// the candidate odd.
//
// Each candidate passes two composite filters before Miller–Rabin: trial
// division by every odd prime below smallPrimeBound (2^12, see
// hasSmallFactor), then one gcd with the product of the primes in
// [2^12, midPrimeBound = 2^16) (see midFilter). Of the odd candidates,
// ~13.5% survive the first stage and ~10% both, so about a quarter fewer
// modexps are spent on composites, the bulk of keygen. Only a survivor
// pays for ProbablyPrime(primeTestRounds).
//
// Every key is byte-identical to the unfiltered ProbablyPrime(20)
// search's. The filters reject only numbers with a prime factor smaller
// than themselves, and they read nothing from rand, so they never move
// the stream. Both round counts run the full Baillie–PSW test, and a
// composite only survives Miller–Rabin after passing it. The two
// searches can only part on a Baillie–PSW pseudoprime, and none is
// known. So the accepted candidate, the stream position after it and
// therefore every key are the same.
func randomPrime(rand io.Reader, bits int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	var mid midFilter
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			return nil, err
		}
		excess := len(b)*8 - bits
		if excess != 0 {
			b[0] >>= excess
		}
		// Set the top two bits so the product of two primes always
		// reaches the full modulus size.
		if excess < 7 {
			b[0] |= 0b1100_0000 >> excess
		} else {
			b[0] |= 1
			b[1] |= 0b1000_0000
		}
		b[len(b)-1] |= 1
		if hasSmallFactor(b) {
			continue
		}
		p := new(big.Int).SetBytes(b)
		if mid.hasFactor(p) {
			continue
		}
		if p.ProbablyPrime(primeTestRounds) {
			return p, nil
		}
	}
}

// signPSSCalls and decryptOAEPCalls count the Device RSA private-key
// operations made through this package, the dominant cost of a computed
// study; see PrivateKeyOps. signPSSHits and decryptOAEPHits count the
// calls among them that the RSA result memo answered.
var signPSSCalls, decryptOAEPCalls, signPSSHits, decryptOAEPHits atomic.Int64

// verifyPSSHits and encryptOAEPHits count the public-key calls the RSA
// result memo answered.
var verifyPSSHits, encryptOAEPHits atomic.Int64

// PrivateKeyOps reports how many SignPSS and DecryptOAEP calls this
// process has made so far, successful or not, memo hits included.
func PrivateKeyOps() (sign, decrypt int64) {
	return signPSSCalls.Load(), decryptOAEPCalls.Load()
}

// PrivateKeyMemoHits reports how many of the SignPSS and DecryptOAEP
// calls counted by PrivateKeyOps the RSA result memo answered without
// an exponentiation. Calls minus hits is the RSA work actually done.
func PrivateKeyMemoHits() (sign, decrypt int64) {
	return signPSSHits.Load(), decryptOAEPHits.Load()
}

// pssSaltLen is the RSASSA-PSS salt length: PSSSaltLengthEqualsHash
// with SHA-256.
const pssSaltLen = sha256.Size

// SignPSS signs the SHA-256 digest of msg with RSASSA-PSS, the signature
// scheme OEMCrypto uses for license requests once a Device RSA key is
// provisioned.
//
// The signature is a pure function of the key, the digest and the
// 32-byte salt read from rand, so it is memoized on exactly those
// (see rsaMemo). The salt is read here, the way crypto/rsa reads it
// (one io.ReadFull, no MaybeReadByte), and handed to crypto/rsa through
// a bytes.Reader, so rand advances by the same 32 bytes on a hit as on
// a computed signature.
func SignPSS(rand io.Reader, key *rsa.PrivateKey, msg []byte) ([]byte, error) {
	signPSSCalls.Add(1)
	digest := sha256.Sum256(msg)
	salt := make([]byte, pssSaltLen)
	if _, err := io.ReadFull(rand, salt); err != nil {
		return nil, fmt.Errorf("wvcrypto: pss sign: %w", err)
	}
	id := memoKey(memoSignPSS, privateKey(key), digest[:], salt)
	if sig, ok := rsaMemo.get(id); ok {
		signPSSHits.Add(1)
		return sig, nil
	}
	sig, err := rsa.SignPSS(bytes.NewReader(salt), key, crypto.SHA256, digest[:], &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	})
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: pss sign: %w", err)
	}
	rsaMemo.put(id, sig)
	return sig, nil
}

// VerifyPSS reports whether sig is a valid RSASSA-PSS signature of msg.
//
// Only a successful verification is memoized (see rsaMemo), keyed by
// the public key, the digest and the whole signature, so a hit answers
// exactly the inputs crypto/rsa accepted before; anything else, a
// rejected signature included, is verified by crypto/rsa.
func VerifyPSS(pub *rsa.PublicKey, msg, sig []byte) bool {
	digest := sha256.Sum256(msg)
	id := memoKey(memoVerifyPSS, publicKey(pub), digest[:], sig)
	if _, ok := rsaMemo.get(id); ok {
		verifyPSSHits.Add(1)
		return true
	}
	err := rsa.VerifyPSS(pub, crypto.SHA256, digest[:], sig, &rsa.PSSOptions{
		SaltLength: rsa.PSSSaltLengthEqualsHash,
	})
	if err != nil {
		return false
	}
	rsaMemo.put(id, nil)
	return true
}

// oaepSeedLen is the RSAES-OAEP seed length: the SHA-1 output size.
const oaepSeedLen = sha1.Size

// EncryptOAEP encrypts a session key to the device's RSA public key with
// RSAES-OAEP (SHA-1, as in OEMCrypto's RewrapDeviceRSAKey / session-key
// transport).
//
// The ciphertext is a pure function of the key, the plaintext and the
// 20-byte seed read from rand, so it is memoized on exactly those (see
// rsaMemo). The seed is read here, the way crypto/rsa reads it (one
// io.ReadFull, no MaybeReadByte), and handed to crypto/rsa through a
// bytes.Reader, so rand advances by the same 20 bytes on a hit as on a
// computed ciphertext.
func EncryptOAEP(rand io.Reader, pub *rsa.PublicKey, plaintext []byte) ([]byte, error) {
	seed := make([]byte, oaepSeedLen)
	if _, err := io.ReadFull(rand, seed); err != nil {
		return nil, fmt.Errorf("wvcrypto: oaep encrypt: %w", err)
	}
	id := memoKey(memoEncryptOAEP, publicKey(pub), plaintext, seed)
	if out, ok := rsaMemo.get(id); ok {
		encryptOAEPHits.Add(1)
		return out, nil
	}
	out, err := rsa.EncryptOAEP(sha1.New(), bytes.NewReader(seed), pub, plaintext, nil)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: oaep encrypt: %w", err)
	}
	rsaMemo.put(id, out)
	return out, nil
}

// DecryptOAEP recovers an OAEP-encrypted session key with the Device RSA
// private key. The plaintext is a pure function of the key and the
// ciphertext, so it is memoized on exactly those (see rsaMemo); a
// ciphertext that fails to decrypt fails on every call.
func DecryptOAEP(key *rsa.PrivateKey, ciphertext []byte) ([]byte, error) {
	decryptOAEPCalls.Add(1)
	id := memoKey(memoDecryptOAEP, privateKey(key), ciphertext)
	if out, ok := rsaMemo.get(id); ok {
		decryptOAEPHits.Add(1)
		return out, nil
	}
	out, err := rsa.DecryptOAEP(sha1.New(), nil, key, ciphertext, nil)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: oaep decrypt: %w", err)
	}
	rsaMemo.put(id, out)
	return out, nil
}

// MarshalRSAPrivateKey serializes a Device RSA key in PKCS#1 DER form, the
// shape in which it crosses the provisioning channel and sits in L3 process
// memory (the insecure-storage finding, CWE-922).
func MarshalRSAPrivateKey(key *rsa.PrivateKey) []byte {
	return x509.MarshalPKCS1PrivateKey(key)
}

// keyParseCalls counts ParseRSAPrivateKey calls, successful or not;
// keyParseHits counts those the key-parse memo answered.
var keyParseCalls, keyParseHits atomic.Int64

// KeyParseMemoStats reports how many ParseRSAPrivateKey calls this
// process has made and how many of them the key-parse memo answered
// without decoding the DER.
func KeyParseMemoStats() (calls, hits int64) {
	return keyParseCalls.Load(), keyParseHits.Load()
}

// ParseRSAPrivateKey parses a PKCS#1 DER Device RSA key.
//
// The key is a pure function of the DER, so a DER this process has
// parsed before is answered from the key-parse memo (see keyParseMemo)
// with the key parsed then: callers share it and must not modify it.
// DER that fails to parse fails on every call.
func ParseRSAPrivateKey(der []byte) (*rsa.PrivateKey, error) {
	keyParseCalls.Add(1)
	id := sha256.Sum256(der)
	if key, ok := keyParseMemo.Get(id); ok {
		keyParseHits.Add(1)
		return key, nil
	}
	key, err := x509.ParsePKCS1PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: parse rsa key: %w", err)
	}
	keyParseMemo.Put(id, key)
	return key, nil
}

// MarshalRSAPublicKey serializes an RSA public key in PKCS#1 DER form.
func MarshalRSAPublicKey(pub *rsa.PublicKey) []byte {
	return x509.MarshalPKCS1PublicKey(pub)
}

// ParseRSAPublicKey parses a PKCS#1 DER RSA public key.
func ParseRSAPublicKey(der []byte) (*rsa.PublicKey, error) {
	pub, err := x509.ParsePKCS1PublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("wvcrypto: parse rsa public key: %w", err)
	}
	return pub, nil
}
