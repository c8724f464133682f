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
	saved := privateKeyMemo
	privateKeyMemo = newPrivateMemo(privateMemoEntries)
	t.Cleanup(func() { privateKeyMemo = saved })
}

// memoDelta reports the memo hits and resident entries gained since
// the snapshot taken by the call that returned it.
func memoDelta() func() (signHits, decryptHits int64, entries int) {
	sign0, decrypt0 := PrivateKeyMemoHits()
	len0 := privateKeyMemo.len()
	return func() (int64, int64, int) {
		sign1, decrypt1 := PrivateKeyMemoHits()
		return sign1 - sign0, decrypt1 - decrypt0, privateKeyMemo.len() - len0
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

// The memo never holds more than its bound, evicting the least recently
// used entry first.
func TestPrivateMemo_Bound(t *testing.T) {
	const bound, extra = 8, 5
	m := newPrivateMemo(bound)
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
	saved := privateKeyMemo
	privateKeyMemo = newPrivateMemo(bound)
	t.Cleanup(func() { privateKeyMemo = saved })
	key := sharedTestKey(t)
	for i := 0; i < bound+extra; i++ {
		ct, err := EncryptOAEP(NewDeterministicReader(fmt.Sprint("memo-bound-", i)), &key.PublicKey, []byte("0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecryptOAEP(key, ct); err != nil {
			t.Fatal(err)
		}
		if n := privateKeyMemo.len(); n > bound {
			t.Fatalf("after %d decrypts the memo holds %d entries, bound %d", i+1, n, bound)
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
		saved := privateKeyMemo
		defer func() { privateKeyMemo = saved }()
		for i := 0; i < b.N; i++ {
			privateKeyMemo = newPrivateMemo(privateMemoEntries)
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
			memoKey(memoDecryptOAEP, key, cts[i%len(cts)])
		}
	})
}
