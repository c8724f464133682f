package wvcrypto

import (
	"bytes"
	"crypto/rsa"
	"fmt"
	"io"
	"math/big"
	"sync"
	"testing"
)

var (
	testKeyOnce sync.Once
	testKey     *rsa.PrivateKey
	testKeyErr  error
)

// sharedTestKey generates one deterministic 2048-bit RSA key for the whole
// package's tests; generation is the slow part so it is done once.
func sharedTestKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	testKeyOnce.Do(func() {
		testKey, testKeyErr = GenerateRSAKey(NewDeterministicReader("wvcrypto-test-rsa"))
	})
	if testKeyErr != nil {
		t.Fatalf("generate shared test key: %v", testKeyErr)
	}
	return testKey
}

func TestRSASignAndVerify(t *testing.T) {
	key := sharedTestKey(t)
	msg := []byte("license request bytes")
	rand := NewDeterministicReader("pss-sign")
	sig, err := SignPSS(rand, key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("VerifyPSS rejected a valid signature")
	}
	if VerifyPSS(&key.PublicKey, []byte("other message"), sig) {
		t.Error("VerifyPSS accepted a signature over another message")
	}
	sig[0] ^= 1
	if VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("VerifyPSS accepted a corrupted signature")
	}
}

func TestRSAOAEPRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	sessionKey := bytes.Repeat([]byte{0x77}, 16)
	rand := NewDeterministicReader("oaep")
	ct, err := EncryptOAEP(rand, &key.PublicKey, sessionKey)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := DecryptOAEP(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, sessionKey) {
		t.Error("OAEP roundtrip mismatch")
	}

	ct[0] ^= 1
	if _, err := DecryptOAEP(key, ct); err == nil {
		t.Error("DecryptOAEP accepted a corrupted ciphertext")
	}
}

func TestRSAKeyMarshalRoundTrip(t *testing.T) {
	key := sharedTestKey(t)
	der := MarshalRSAPrivateKey(key)
	parsed, err := ParseRSAPrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.D.Cmp(key.D) != 0 || parsed.N.Cmp(key.N) != 0 {
		t.Error("private key roundtrip mismatch")
	}

	pubDER := MarshalRSAPublicKey(&key.PublicKey)
	pub, err := ParseRSAPublicKey(pubDER)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N.Cmp(key.N) != 0 || pub.E != key.E {
		t.Error("public key roundtrip mismatch")
	}
}

func TestParseRSAPrivateKey_Garbage(t *testing.T) {
	if _, err := ParseRSAPrivateKey([]byte("not a der key")); err == nil {
		t.Error("want error for garbage DER")
	}
	if _, err := ParseRSAPublicKey([]byte{0x30, 0x00}); err == nil {
		t.Error("want error for garbage public DER")
	}
}

// GenerateRSAKey must be a pure function of the reader's bytes: equal
// forks yield byte-identical keys, every time. The stdlib's GenerateKey
// does NOT have this property (randutil.MaybeReadByte desynchronizes
// injected readers on ~half of all calls), which is why wvcrypto owns
// prime generation — this test is the regression guard for the keypool
// and world-snapshot tiers, whose correctness rests on this invariant.
func TestGenerateRSAKey_Deterministic(t *testing.T) {
	const rounds = 4 // a coin-flip regression passes single runs ~50% of the time
	want := MarshalRSAPrivateKey(sharedTestKey(t))
	for i := 0; i < rounds; i++ {
		key, err := GenerateRSAKey(NewDeterministicReader("wvcrypto-test-rsa"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(MarshalRSAPrivateKey(key), want) {
			t.Fatalf("round %d: key differs from shared mint over an equal stream", i)
		}
	}
	if err := sharedTestKey(t).Validate(); err != nil {
		t.Fatalf("generated key fails validation: %v", err)
	}
	if got := sharedTestKey(t).N.BitLen(); got != RSABits {
		t.Fatalf("modulus is %d bits, want %d", got, RSABits)
	}
}

// unfilteredRandomPrime is randomPrime without the composite filters
// and at ProbablyPrime(20), the oracle the identical-keys argument is
// checked against.
func unfilteredRandomPrime(rand io.Reader, bits int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	for {
		if _, err := io.ReadFull(rand, b); err != nil {
			return nil, err
		}
		excess := len(b)*8 - bits
		if excess != 0 {
			b[0] >>= excess
		}
		if excess < 7 {
			b[0] |= 0b1100_0000 >> excess
		} else {
			b[0] |= 1
			b[1] |= 0b1000_0000
		}
		b[len(b)-1] |= 1
		p := new(big.Int).SetBytes(b)
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}

// unfilteredPrimes replays GenerateRSAKey's draw-and-retry loop over
// unfilteredRandomPrime and returns the accepted pair.
func unfilteredPrimes(t *testing.T, rand io.Reader) (p, q *big.Int) {
	t.Helper()
	e := big.NewInt(rsaPublicExponent)
	one := big.NewInt(1)
	for {
		var err error
		if p, err = unfilteredRandomPrime(rand, (RSABits+1)/2); err != nil {
			t.Fatal(err)
		}
		if q, err = unfilteredRandomPrime(rand, RSABits/2); err != nil {
			t.Fatal(err)
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		if p.Cmp(q) != 0 && new(big.Int).Mul(p, q).BitLen() == RSABits &&
			new(big.Int).ModInverse(e, phi) != nil {
			return p, q
		}
	}
}

// Neither the two composite filters nor the lower Miller–Rabin round
// count may move a single key: GenerateRSAKey agrees with the unfiltered
// ProbablyPrime(20) search on N, P and Q, and leaves the stream at the
// same position, label after label.
func TestGenerateRSAKey_MatchesUnfilteredSearch(t *testing.T) {
	for i := 0; i < 16; i++ {
		label := fmt.Sprintf("wvcrypto-unfiltered-oracle-%d", i)
		filtered := NewDeterministicReader(label)
		key, err := GenerateRSAKey(filtered)
		if err != nil {
			t.Fatal(err)
		}
		unfiltered := NewDeterministicReader(label)
		p, q := unfilteredPrimes(t, unfiltered)
		if key.Primes[0].Cmp(p) != 0 || key.Primes[1].Cmp(q) != 0 {
			t.Fatalf("%s: primes differ from the unfiltered search", label)
		}
		if key.N.Cmp(new(big.Int).Mul(p, q)) != 0 {
			t.Fatalf("%s: modulus differs from the unfiltered search", label)
		}
		next, want := make([]byte, 32), make([]byte, 32)
		if _, err := io.ReadFull(filtered, next); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(unfiltered, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(next, want) {
			t.Fatalf("%s: filtered search consumed a different number of bytes", label)
		}
	}
}

// benchKeyLabels is the fixed label set BenchmarkGenerateRSAKey cycles,
// so every run walks the same candidates; run it at a multiple of
// len(benchKeyLabels) iterations (-benchtime 8x) for comparable means.
var benchKeyLabels = func() []string {
	labels := make([]string, 8)
	for i := range labels {
		labels[i] = fmt.Sprintf("wvcrypto-bench-rsa-%d", i)
	}
	return labels
}()

var benchSink any

func BenchmarkGenerateRSAKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		key, err := GenerateRSAKey(NewDeterministicReader(benchKeyLabels[i%len(benchKeyLabels)]))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = key
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/key")
}

func BenchmarkSignPSS(b *testing.B) {
	key := sharedTestKey(b)
	rand := NewDeterministicReader("bench-pss")
	msg := []byte("license request bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := SignPSS(rand, key, msg)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = sig
	}
}

func BenchmarkDecryptOAEP(b *testing.B) {
	key := sharedTestKey(b)
	ct, err := EncryptOAEP(NewDeterministicReader("bench-oaep"), &key.PublicKey, bytes.Repeat([]byte{0x77}, 16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := DecryptOAEP(key, ct)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = pt
	}
}

func TestDeterministicReader_Reproducible(t *testing.T) {
	a := NewDeterministicReader("seed")
	b := NewDeterministicReader("seed")
	bufA := make([]byte, 100)
	bufB := make([]byte, 100)
	if _, err := a.Read(bufA); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Error("same seed produced different streams")
	}

	c := NewDeterministicReader("other seed")
	bufC := make([]byte, 100)
	if _, err := c.Read(bufC); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(bufA, bufC) {
		t.Error("different seeds produced identical streams")
	}
}

func TestDeterministicReader_SplitReadsMatch(t *testing.T) {
	whole := NewDeterministicReader("split")
	parts := NewDeterministicReader("split")

	bufWhole := make([]byte, 71)
	if _, err := whole.Read(bufWhole); err != nil {
		t.Fatal(err)
	}
	bufParts := make([]byte, 71)
	for off := 0; off < len(bufParts); {
		n := 7
		if off+n > len(bufParts) {
			n = len(bufParts) - off
		}
		if _, err := parts.Read(bufParts[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	if !bytes.Equal(bufWhole, bufParts) {
		t.Error("split reads diverge from whole read")
	}
}
