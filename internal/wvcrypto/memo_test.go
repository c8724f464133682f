package wvcrypto

import (
	"bytes"
	"crypto"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"fmt"
	"io"
	"sync"
	"testing"
)

var (
	otherKeyOnce sync.Once
	otherKey     *rsa.PrivateKey
	otherKeyErr  error
)

// otherTestKey is a second Device RSA key, for wrong-key cases.
func otherTestKey(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	otherKeyOnce.Do(func() {
		otherKey, otherKeyErr = GenerateRSAKey(NewDeterministicReader("wvcrypto-test-rsa-other"))
	})
	if otherKeyErr != nil {
		t.Fatalf("generate second test key: %v", otherKeyErr)
	}
	return otherKey
}

// freshMemo gives the test an empty process memo, restored afterwards,
// so its hit counts do not depend on test order or -count.
func freshMemo(t *testing.T) {
	saved := rsaMemo
	rsaMemo = newResultMemo(rsaMemoEntries)
	t.Cleanup(func() { rsaMemo = saved })
}

// memoDelta reports the memo hits and resident entries gained since
// the snapshot taken by the call that returned it.
func memoDelta() func() (signHits, decryptHits int64, entries int) {
	sign0, decrypt0 := PrivateKeyMemoHits()
	len0 := rsaMemo.len()
	return func() (int64, int64, int) {
		sign1, decrypt1 := PrivateKeyMemoHits()
		return sign1 - sign0, decrypt1 - decrypt0, rsaMemo.len() - len0
	}
}

// publicDelta is memoDelta for the public-key operations.
func publicDelta() func() (verifyHits, encryptHits int64, entries int) {
	verify0, encrypt0 := verifyPSSHits.Load(), encryptOAEPHits.Load()
	len0 := rsaMemo.len()
	return func() (int64, int64, int) {
		return verifyPSSHits.Load() - verify0, encryptOAEPHits.Load() - encrypt0, rsaMemo.len() - len0
	}
}

// stdlibSignPSS is SignPSS computed by crypto/rsa alone, the reference
// every memo answer must equal.
func stdlibSignPSS(t *testing.T, rand io.Reader, key *rsa.PrivateKey, msg []byte) []byte {
	t.Helper()
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPSS(rand, key, crypto.SHA256, digest[:], &rsa.PSSOptions{SaltLength: rsa.PSSSaltLengthEqualsHash})
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// A memo hit returns crypto/rsa's own signature, and leaves the salt
// stream exactly where a computed signature leaves it.
func TestSignPSS_MemoHitMatchesCryptoRSA(t *testing.T) {
	freshMemo(t)
	key := sharedTestKey(t)
	msg := []byte("memo: license request")
	const label = "memo-pss-hit"

	ref := NewDeterministicReader(label)
	want := stdlibSignPSS(t, ref, key, msg)

	delta := memoDelta()
	miss := NewDeterministicReader(label)
	first, err := SignPSS(miss, key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, entries := delta(); hits != 0 || entries != 1 {
		t.Fatalf("first signature: %d hits, %d new entries; want a computed miss that stores 1", hits, entries)
	}
	hit := NewDeterministicReader(label)
	second, err := SignPSS(hit, key, msg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := delta(); hits != 1 {
		t.Fatalf("replayed signature: %d hits, want 1", hits)
	}
	if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
		t.Fatal("memoized SignPSS differs from crypto/rsa")
	}

	next := func(r io.Reader) []byte { return readN(t, r, 48) }
	if after := next(ref); !bytes.Equal(next(miss), after) || !bytes.Equal(next(hit), after) {
		t.Error("the salt stream moved differently on a hit, a miss and crypto/rsa")
	}

	second[0] ^= 0xff
	again, err := SignPSS(NewDeterministicReader(label), key, msg)
	if err != nil || !bytes.Equal(again, want) {
		t.Error("mutating a returned signature changed the stored one")
	}
}

// A memo hit returns crypto/rsa's own plaintext, as a copy.
func TestDecryptOAEP_MemoHitMatchesCryptoRSA(t *testing.T) {
	freshMemo(t)
	key := sharedTestKey(t)
	sessionKey := bytes.Repeat([]byte{0x5a}, 16)
	ct, err := EncryptOAEP(NewDeterministicReader("memo-oaep-hit"), &key.PublicKey, sessionKey)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rsa.DecryptOAEP(sha1.New(), nil, key, ct, nil)
	if err != nil {
		t.Fatal(err)
	}

	delta := memoDelta()
	for i := 0; i < 3; i++ {
		got, err := DecryptOAEP(key, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, sessionKey) {
			t.Fatalf("call %d: memoized DecryptOAEP differs from crypto/rsa", i)
		}
		got[0] ^= 0xff // callers own their copy
	}
	if _, hits, entries := delta(); hits != 2 || entries != 1 {
		t.Errorf("3 decrypts of one ciphertext: %d hits, %d new entries; want 2 and 1", hits, entries)
	}
}

// Failures are never stored: a corrupted ciphertext, a wrong key and a
// failing salt read fail on every call and leave the memo as it was.
func TestPrivateKeyMemo_FailuresNeverStored(t *testing.T) {
	freshMemo(t)
	key, other := sharedTestKey(t), otherTestKey(t)
	ct, err := EncryptOAEP(NewDeterministicReader("memo-oaep-bad"), &key.PublicKey, []byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), ct...)
	corrupt[len(corrupt)/2] ^= 1

	delta := memoDelta()
	for i := 0; i < 3; i++ {
		if _, err := DecryptOAEP(key, corrupt); err == nil {
			t.Fatalf("call %d: corrupted ciphertext decrypted", i)
		}
		if _, err := DecryptOAEP(other, ct); err == nil {
			t.Fatalf("call %d: ciphertext decrypted under the wrong key", i)
		}
		if _, err := DecryptOAEP(key, ct[:len(ct)-1]); err == nil {
			t.Fatalf("call %d: truncated ciphertext decrypted", i)
		}
		if _, err := SignPSS(bytes.NewReader(make([]byte, pssSaltLen-1)), key, []byte("short salt")); err == nil {
			t.Fatalf("call %d: signed with a short salt", i)
		}
	}
	if signHits, decryptHits, entries := delta(); signHits != 0 || decryptHits != 0 || entries != 0 {
		t.Errorf("failing calls: %d + %d hits, %d new entries; want none", signHits, decryptHits, entries)
	}
	// The good ciphertext still decrypts, under the right key only.
	if _, err := DecryptOAEP(key, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptOAEP(other, ct); err == nil {
		t.Error("wrong key decrypted a ciphertext the right key had memoized")
	}
}

// The memo key covers the whole private key: another key signing the
// same digest with the same salt never hits the first key's entry.
func TestSignPSS_MemoNeverCrossesKeys(t *testing.T) {
	freshMemo(t)
	key, other := sharedTestKey(t), otherTestKey(t)
	msg := []byte("memo: same input, two keys")
	const label = "memo-pss-two-keys"
	if _, err := SignPSS(NewDeterministicReader(label), key, msg); err != nil {
		t.Fatal(err)
	}
	delta := memoDelta()
	sig, err := SignPSS(NewDeterministicReader(label), other, msg)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _, _ := delta(); hits != 0 {
		t.Fatalf("another key's signature hit the memo %d times", hits)
	}
	if !bytes.Equal(sig, stdlibSignPSS(t, NewDeterministicReader(label), other, msg)) {
		t.Error("second key's signature differs from crypto/rsa")
	}
	if VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("second key's signature verifies under the first key")
	}
}

// A VerifyPSS hit answers only the exact (key, message, signature) that
// crypto/rsa accepted: after a hit, a flipped bit in the signature or the
// message, another key of the same size or the same modulus with another
// exponent still verifies false, and no failure is stored.
func TestVerifyPSS_MemoHitNeverWidens(t *testing.T) {
	freshMemo(t)
	key, other := sharedTestKey(t), otherTestKey(t)
	msg := []byte("memo: license request to verify")
	sig, err := SignPSS(NewDeterministicReader("memo-verify"), key, msg)
	if err != nil {
		t.Fatal(err)
	}

	delta := publicDelta()
	for i := 0; i < 2; i++ {
		if !VerifyPSS(&key.PublicKey, msg, sig) {
			t.Fatalf("call %d: valid signature rejected", i)
		}
	}
	if hits, _, entries := delta(); hits != 1 || entries != 1 {
		t.Fatalf("2 verifications of one signature: %d hits, %d new entries; want 1 and 1", hits, entries)
	}

	for _, pos := range []int{0, len(sig) / 2, len(sig) - 1} {
		flipped := append([]byte(nil), sig...)
		flipped[pos] ^= 0x01
		if VerifyPSS(&key.PublicKey, msg, flipped) {
			t.Errorf("signature with bit 0 of byte %d flipped verifies", pos)
		}
	}
	for _, pos := range []int{0, len(msg) - 1} {
		flipped := append([]byte(nil), msg...)
		flipped[pos] ^= 0x80
		if VerifyPSS(&key.PublicKey, flipped, sig) {
			t.Errorf("message with byte %d flipped verifies", pos)
		}
	}
	if other.N.BitLen() != key.N.BitLen() {
		t.Fatalf("second key has %d bits, want %d", other.N.BitLen(), key.N.BitLen())
	}
	if VerifyPSS(&other.PublicKey, msg, sig) {
		t.Error("signature verifies under another key of the same size")
	}
	if VerifyPSS(&rsa.PublicKey{N: key.N, E: 3}, msg, sig) {
		t.Error("signature verifies under the same modulus with another exponent")
	}
	if hits, _, entries := delta(); hits != 1 || entries != 1 {
		t.Errorf("after the rejections: %d hits, %d new entries; want still 1 and 1", hits, entries)
	}
	if !VerifyPSS(&key.PublicKey, msg, sig) {
		t.Error("valid signature rejected after the rejections")
	}
}

// EncryptOAEP reads exactly the 20-byte seed crypto/rsa would, on a miss
// and on a hit alike, and returns crypto/rsa's ciphertext for that seed,
// which DecryptOAEP opens. A different seed, plaintext or key misses.
func TestEncryptOAEP_MemoReadsSeedOnce(t *testing.T) {
	freshMemo(t)
	key, other := sharedTestKey(t), otherTestKey(t)
	sessionKey := bytes.Repeat([]byte{0xa5}, 16)
	// stdlib encrypts with crypto/rsa alone, fed the next 20 bytes of a
	// fresh stream under label, and returns the 48 bytes after them.
	stdlib := func(label string, pub *rsa.PublicKey, pt []byte) (ct, after []byte) {
		ref := NewDeterministicReader(label)
		ct, err := rsa.EncryptOAEP(sha1.New(), bytes.NewReader(readN(t, ref, oaepSeedLen)), pub, pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ct, readN(t, ref, 48)
	}
	encrypt := func(label string, pub *rsa.PublicKey, pt []byte) (ct, after []byte) {
		r := NewDeterministicReader(label)
		ct, err := EncryptOAEP(r, pub, pt)
		if err != nil {
			t.Fatal(err)
		}
		return ct, readN(t, r, 48)
	}

	const label = "memo-oaep-encrypt"
	want, wantAfter := stdlib(label, &key.PublicKey, sessionKey)
	for i, wantHits := range []int{0, 1, 1} {
		delta := publicDelta()
		ct, after := encrypt(label, &key.PublicKey, sessionKey)
		if _, hits, entries := delta(); int(hits) != wantHits || entries != 1-wantHits {
			t.Fatalf("call %d: %d hits, %d new entries; want %d and %d", i, hits, entries, wantHits, 1-wantHits)
		}
		if !bytes.Equal(ct, want) {
			t.Fatalf("call %d: ciphertext differs from crypto/rsa fed the same seed", i)
		}
		if !bytes.Equal(after, wantAfter) {
			t.Fatalf("call %d: rand did not advance exactly %d bytes", i, oaepSeedLen)
		}
		pt, err := DecryptOAEP(key, ct)
		if err != nil || !bytes.Equal(pt, sessionKey) {
			t.Fatalf("call %d: DecryptOAEP = %x, %v", i, pt, err)
		}
		ct[0] ^= 0xff // callers own their copy
	}

	for _, c := range []struct {
		name, label string
		key         *rsa.PrivateKey
		pt          []byte
	}{
		{"another seed", "memo-oaep-encrypt-2", key, sessionKey},
		{"another plaintext", label, key, bytes.Repeat([]byte{0x5a}, 16)},
		{"another key", label, other, sessionKey},
	} {
		delta := publicDelta()
		ct, after := encrypt(c.label, &c.key.PublicKey, c.pt)
		if _, hits, _ := delta(); hits != 0 {
			t.Errorf("%s hit the memo", c.name)
		}
		if wantCT, wantAfter := stdlib(c.label, &c.key.PublicKey, c.pt); !bytes.Equal(ct, wantCT) || !bytes.Equal(after, wantAfter) {
			t.Errorf("%s: ciphertext or stream position differs from crypto/rsa", c.name)
		}
		if pt, err := DecryptOAEP(c.key, ct); err != nil || !bytes.Equal(pt, c.pt) {
			t.Errorf("%s: DecryptOAEP = %x, %v", c.name, pt, err)
		}
	}

	entries0 := rsaMemo.len()
	if _, err := EncryptOAEP(bytes.NewReader(make([]byte, oaepSeedLen-1)), &key.PublicKey, sessionKey); err == nil {
		t.Error("encrypted with a short seed")
	}
	if n := rsaMemo.len(); n != entries0 {
		t.Errorf("a failed encryption stored %d entries", n-entries0)
	}
}

// The memo never holds more than its bound, evicting the least recently
// used entry first.
func TestResultMemo_Bound(t *testing.T) {
	const bound, extra = 8, 5
	m := newResultMemo(bound)
	id := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte(fmt.Sprint(i))) }
	for i := 0; i < bound+extra; i++ {
		m.put(id(i), []byte{byte(i)})
		if i == bound-1 {
			m.get(id(0)) // 0 is now the most recently used
		}
		if n := m.len(); n > bound {
			t.Fatalf("after %d puts the memo holds %d entries, bound %d", i+1, n, bound)
		}
	}
	if m.len() != bound {
		t.Errorf("memo holds %d entries, want %d", m.len(), bound)
	}
	if got, _ := m.get(id(0)); !bytes.Equal(got, []byte{0}) {
		t.Errorf("recently used entry evicted (got %v)", got)
	}
	if _, ok := m.get(id(1)); ok {
		t.Error("least recently used entry survived past the bound")
	}
	if got, _ := m.get(id(bound + extra - 1)); !bytes.Equal(got, []byte{bound + extra - 1}) {
		t.Errorf("newest entry missing (got %v)", got)
	}

	// Through the real entry points: bound + extra distinct ciphertexts.
	saved := rsaMemo
	rsaMemo = newResultMemo(bound)
	t.Cleanup(func() { rsaMemo = saved })
	key := sharedTestKey(t)
	for i := 0; i < bound+extra; i++ {
		ct, err := EncryptOAEP(NewDeterministicReader(fmt.Sprint("memo-bound-", i)), &key.PublicKey, []byte("0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecryptOAEP(key, ct); err != nil {
			t.Fatal(err)
		}
		if n := rsaMemo.len(); n > bound {
			t.Fatalf("after %d encrypt + decrypt pairs the memo holds %d entries, bound %d", i+1, n, bound)
		}
	}
}

// Concurrent hits and misses on shared inputs all return crypto/rsa's
// bytes; run under the race detector by make race.
func TestPrivateKeyMemo_Concurrent(t *testing.T) {
	freshMemo(t)
	key := sharedTestKey(t)
	const inputs, workers, rounds = 3, 4, 3
	msgs := make([][]byte, inputs)
	wantSig := make([][]byte, inputs)
	cts := make([][]byte, inputs)
	wantPT := make([][]byte, inputs)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("memo: concurrent %d", i))
		wantSig[i] = stdlibSignPSS(t, NewDeterministicReader(fmt.Sprintf("memo-concurrent-%d", i)), key, msgs[i])
		wantPT[i] = []byte(fmt.Sprintf("session key %05d", i))
		ct, err := EncryptOAEP(NewDeterministicReader(fmt.Sprintf("memo-concurrent-oaep-%d", i)), &key.PublicKey, wantPT[i])
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*inputs)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < inputs; k++ {
					i := (w + k) % inputs
					sig, err := SignPSS(NewDeterministicReader(fmt.Sprintf("memo-concurrent-%d", i)), key, msgs[i])
					if err != nil || !bytes.Equal(sig, wantSig[i]) {
						errs <- fmt.Errorf("worker %d: signature %d wrong (err %v)", w, i, err)
					}
					pt, err := DecryptOAEP(key, cts[i])
					if err != nil || !bytes.Equal(pt, wantPT[i]) {
						errs <- fmt.Errorf("worker %d: plaintext %d wrong (err %v)", w, i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkPublicKeyMemo prices the memo on the license server's side
// of an exchange, one VerifyPSS and one EncryptOAEP per iteration: a hit
// replays the same request and seed, as every later world of a seed
// does; a miss verifies a signature the memo does not hold and encrypts
// under a seed it has never seen, so it still prices crypto/rsa.
func BenchmarkPublicKeyMemo(b *testing.B) {
	key := sharedTestKey(b)
	pub := &key.PublicKey
	sessionKey := []byte("0123456789abcdef")
	msgs := make([][]byte, 64)
	sigs := make([][]byte, len(msgs))
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprint("public-memo-bench-", i))
		sig, err := SignPSS(NewDeterministicReader(fmt.Sprint("public-memo-bench-", i)), key, msgs[i])
		if err != nil {
			b.Fatal(err)
		}
		sigs[i] = sig
	}
	b.Run("hit", func(b *testing.B) {
		const label = "public-memo-bench-hit"
		if _, err := EncryptOAEP(NewDeterministicReader(label), pub, sessionKey); err != nil || !VerifyPSS(pub, msgs[0], sigs[0]) {
			b.Fatal("priming the memo failed")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			VerifyPSS(pub, msgs[0], sigs[0])
			EncryptOAEP(NewDeterministicReader(label), pub, sessionKey)
		}
	})
	b.Run("miss", func(b *testing.B) {
		saved := rsaMemo
		defer func() { rsaMemo = saved }()
		seeds := NewDeterministicReader("public-memo-bench-miss")
		for i := 0; i < b.N; i++ {
			if i%len(msgs) == 0 {
				b.StopTimer()
				rsaMemo = newResultMemo(rsaMemoEntries)
				b.StartTimer()
			}
			VerifyPSS(pub, msgs[i%len(msgs)], sigs[i%len(msgs)])
			EncryptOAEP(seeds, pub, sessionKey)
		}
	})
}

// BenchmarkPrivateKeyMemo prices the memo: a hit, a miss (a ciphertext
// never seen, so the exponentiation runs and its result is stored), the
// same decryption through crypto/rsa alone, and the memo key hash that a
// miss adds to it.
func BenchmarkPrivateKeyMemo(b *testing.B) {
	key := sharedTestKey(b)
	cts := make([][]byte, 64)
	for i := range cts {
		ct, err := EncryptOAEP(NewDeterministicReader(fmt.Sprint("memo-bench-", i)), &key.PublicKey, []byte("0123456789abcdef"))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	b.Run("hit", func(b *testing.B) {
		if _, err := DecryptOAEP(key, cts[0]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			DecryptOAEP(key, cts[0])
		}
	})
	b.Run("miss", func(b *testing.B) {
		saved := rsaMemo
		defer func() { rsaMemo = saved }()
		for i := 0; i < b.N; i++ {
			rsaMemo = newResultMemo(rsaMemoEntries)
			DecryptOAEP(key, cts[i%len(cts)])
		}
	})
	b.Run("crypto-rsa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rsa.DecryptOAEP(sha1.New(), nil, key, cts[i%len(cts)], nil)
		}
	})
	b.Run("key-hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memoKey(memoDecryptOAEP, privateKey(key), cts[i%len(cts)])
		}
	})
}
