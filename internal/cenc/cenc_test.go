package cenc

import (
	"bytes"
	"crypto/cipher"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mp4"
	"repro/internal/wvcrypto"
)

func testSegment(samples ...[]byte) *mp4.MediaSegment {
	data := make([][]byte, len(samples))
	for i, s := range samples {
		data[i] = append([]byte(nil), s...)
	}
	return &mp4.MediaSegment{SequenceNumber: 1, TrackID: 1, SampleData: data}
}

func testContentKey() []byte {
	return []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
}

// testBlock expands key's schedule for DecryptSample.
func testBlock(t testing.TB, key []byte) cipher.Block {
	t.Helper()
	block, err := NewBlock(key)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

func TestEncryptDecryptSegment_CENC(t *testing.T) {
	key := testContentKey()
	original := [][]byte{
		bytes.Repeat([]byte{0xAA}, 400),
		bytes.Repeat([]byte{0xBB}, 33),
		[]byte("tiny"),
	}
	seg := testSegment(original...)
	enc, err := NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("iv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncryptSegment(seg, 16); err != nil {
		t.Fatal(err)
	}
	if seg.Encryption == nil || len(seg.Encryption.Entries) != 3 {
		t.Fatal("missing senc")
	}
	// First 16 bytes of each sample stay clear.
	if !bytes.Equal(seg.SampleData[0][:16], original[0][:16]) {
		t.Error("clear prefix was encrypted")
	}
	// Protected region changed.
	if bytes.Equal(seg.SampleData[0][16:], original[0][16:]) {
		t.Error("protected region unchanged")
	}
	// Sample shorter than the prefix stays fully clear.
	if !bytes.Equal(seg.SampleData[2], original[2]) {
		t.Error("short sample modified")
	}

	if err := DecryptSegment(mp4.SchemeCENC, key, seg); err != nil {
		t.Fatal(err)
	}
	for i := range original {
		if !bytes.Equal(seg.SampleData[i], original[i]) {
			t.Errorf("sample %d roundtrip mismatch", i)
		}
	}
	if seg.Encryption != nil {
		t.Error("senc not cleared after decryption")
	}
}

func TestEncryptDecryptSegment_CBCS(t *testing.T) {
	key := testContentKey()
	original := [][]byte{
		bytes.Repeat([]byte{0xCC}, 1000),
		bytes.Repeat([]byte{0xDD}, 170), // exercises pattern wrap
	}
	seg := testSegment(original...)
	enc, err := NewEncryptor(mp4.SchemeCBCS, key, wvcrypto.NewDeterministicReader("iv2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncryptSegment(seg, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(seg.SampleData[0], original[0]) {
		t.Error("cbcs left sample unchanged")
	}
	// 1:9 pattern: the second block (bytes 16..32) is clear.
	if !bytes.Equal(seg.SampleData[0][16:32], original[0][16:32]) {
		t.Error("cbcs pattern skip block modified")
	}
	if err := DecryptSegment(mp4.SchemeCBCS, key, seg); err != nil {
		t.Fatal(err)
	}
	for i := range original {
		if !bytes.Equal(seg.SampleData[i], original[i]) {
			t.Errorf("cbcs sample %d roundtrip mismatch", i)
		}
	}
}

func TestDecrypt_WrongKeyGarbles(t *testing.T) {
	key := testContentKey()
	wrong := bytes.Repeat([]byte{0xFF}, 16)
	original := bytes.Repeat([]byte{0x11}, 256)
	seg := testSegment(original)
	enc, err := NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("iv3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.EncryptSegment(seg, 0); err != nil {
		t.Fatal(err)
	}
	if err := DecryptSegment(mp4.SchemeCENC, wrong, seg); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(seg.SampleData[0], original) {
		t.Error("wrong key produced the original plaintext")
	}
}

func TestDecryptSegment_NotEncrypted(t *testing.T) {
	seg := testSegment([]byte("clear"))
	if err := DecryptSegment(mp4.SchemeCENC, testContentKey(), seg); !errors.Is(err, ErrNotEncrypted) {
		t.Errorf("err = %v, want ErrNotEncrypted", err)
	}
}

func TestNewEncryptor_Validation(t *testing.T) {
	if _, err := NewEncryptor("wxyz", testContentKey(), nil); !errors.Is(err, ErrBadScheme) {
		t.Errorf("bad scheme err = %v", err)
	}
	if _, err := NewEncryptor(mp4.SchemeCENC, []byte("short"), nil); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key err = %v", err)
	}
}

func TestDecryptSample_SubsampleMismatch(t *testing.T) {
	subs := []mp4.SubsampleEntry{{ClearBytes: 4, ProtectedBytes: 100}}
	_, err := DecryptSample(mp4.SchemeCENC, testBlock(t, testContentKey()), [8]byte{}, subs, []byte("too short"))
	if !errors.Is(err, ErrSubsampleMismatch) {
		t.Errorf("err = %v, want ErrSubsampleMismatch", err)
	}
}

// DecryptSample validates the scheme itself: the block carries none.
func TestDecryptSample_BadScheme(t *testing.T) {
	_, err := DecryptSample("cens", testBlock(t, testContentKey()), [8]byte{}, nil, []byte("sample"))
	if !errors.Is(err, ErrBadScheme) {
		t.Errorf("err = %v, want ErrBadScheme", err)
	}
}

func TestDecryptSample_NoSubsamplesIsFullSample(t *testing.T) {
	key := testContentKey()
	plain := []byte("full sample protection path")
	enc, err := NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("fs"))
	if err != nil {
		t.Fatal(err)
	}
	seg := testSegment(plain)
	if err := enc.EncryptSegment(seg, 0); err != nil {
		t.Fatal(err)
	}
	iv := seg.Encryption.Entries[0].IV
	// Decrypt with a nil subsample map → full-sample.
	got, err := DecryptSample(mp4.SchemeCENC, testBlock(t, key), iv, nil, seg.SampleData[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Error("full-sample decrypt mismatch")
	}
}

// Property: encrypt/decrypt round-trips for both schemes, any payloads and
// any clear prefix.
func TestRoundTrip_Property(t *testing.T) {
	prop := func(key [16]byte, samples [][]byte, prefix uint8, useCBCS bool) bool {
		if len(samples) == 0 {
			samples = [][]byte{{1, 2, 3}}
		}
		if len(samples) > 20 {
			samples = samples[:20]
		}
		scheme := mp4.SchemeCENC
		if useCBCS {
			scheme = mp4.SchemeCBCS
		}
		originals := make([][]byte, len(samples))
		for i := range samples {
			originals[i] = append([]byte(nil), samples[i]...)
		}
		seg := testSegment(samples...)
		enc, err := NewEncryptor(scheme, key[:], wvcrypto.NewDeterministicReader("prop"))
		if err != nil {
			return false
		}
		if err := enc.EncryptSegment(seg, int(prefix)); err != nil {
			return false
		}
		if err := DecryptSegment(scheme, key[:], seg); err != nil {
			return false
		}
		for i := range originals {
			if !bytes.Equal(seg.SampleData[i], originals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ciphertext survives an mp4 marshal/parse cycle and still
// decrypts (the packager→CDN→attack path).
func TestRoundTripThroughMP4_Property(t *testing.T) {
	prop := func(key [16]byte, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		original := append([]byte(nil), payload...)
		seg := testSegment(payload)
		enc, err := NewEncryptor(mp4.SchemeCENC, key[:], wvcrypto.NewDeterministicReader("mp4prop"))
		if err != nil {
			return false
		}
		if err := enc.EncryptSegment(seg, 4); err != nil {
			return false
		}
		wire, err := seg.Marshal()
		if err != nil {
			return false
		}
		parsed, err := mp4.ParseMediaSegment(wire)
		if err != nil {
			return false
		}
		if err := DecryptSegment(mp4.SchemeCENC, key[:], parsed); err != nil {
			return false
		}
		return bytes.Equal(parsed.SampleData[0], original)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKIDStringRoundTrip(t *testing.T) {
	kid := [16]byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xA, 0xF}
	s := KIDToString(kid)
	if s != "deadbeef000102030405060708090a0f" {
		t.Errorf("KIDToString = %q", s)
	}
	got, err := ParseKID(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != kid {
		t.Error("ParseKID roundtrip mismatch")
	}
	if _, err := ParseKID("short"); err == nil {
		t.Error("short kid: want error")
	}
	if _, err := ParseKID("zz" + s[2:]); err == nil {
		t.Error("non-hex kid: want error")
	}
	upper, err := ParseKID("DEADBEEF000102030405060708090A0F")
	if err != nil || upper != kid {
		t.Errorf("uppercase kid parse = %v, %v", upper, err)
	}
}

func TestRandomKeyAndKID(t *testing.T) {
	r := wvcrypto.NewDeterministicReader("keys")
	k1, err := RandomKey(r)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RandomKey(r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k1, k2) {
		t.Error("two random keys equal")
	}
	kid, err := RandomKID(r)
	if err != nil {
		t.Fatal(err)
	}
	if kid == ([16]byte{}) {
		t.Error("zero kid")
	}
}

func TestCounterForSample(t *testing.T) {
	iv := [8]byte{1, 2, 3, 4, 5, 6, 7, 8}
	c := CounterForSample(iv)
	if !bytes.Equal(c[:8], iv[:]) || !bytes.Equal(c[8:], make([]byte, 8)) {
		t.Errorf("counter = %x", c)
	}
}

func BenchmarkEncryptSegment_CENC(b *testing.B) {
	key := testContentKey()
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg := testSegment(payload)
		enc, err := NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("bench"))
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.EncryptSegment(seg, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptSegment_CBCS(b *testing.B) {
	key := testContentKey()
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seg := testSegment(payload)
		enc, err := NewEncryptor(mp4.SchemeCBCS, key, wvcrypto.NewDeterministicReader("bench-cbcs"))
		if err != nil {
			b.Fatal(err)
		}
		if err := enc.EncryptSegment(seg, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptSegment_CENC(b *testing.B) {
	key := testContentKey()
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	seg := testSegment(payload)
	enc, err := NewEncryptor(mp4.SchemeCENC, key, wvcrypto.NewDeterministicReader("bench-dec"))
	if err != nil {
		b.Fatal(err)
	}
	if err := enc.EncryptSegment(seg, 16); err != nil {
		b.Fatal(err)
	}
	encrypted := seg.SampleData[0]
	entry := seg.Encryption.Entries[0]
	block := testBlock(b, key)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecryptSample(mp4.SchemeCENC, block, entry.IV, entry.Subsamples, encrypted); err != nil {
			b.Fatal(err)
		}
	}
}
