// Package cenc implements ISO/IEC 23001-7 Common Encryption over the
// fragmented-MP4 segments of internal/mp4. Two protection schemes are
// supported, matching what Widevine ships:
//
//   - "cenc": AES-128-CTR. Each sample has an 8-byte IV (the counter block
//     is IV || 64-bit block counter); the keystream runs continuously
//     across a sample's protected subsample ranges.
//   - "cbcs": AES-128-CBC with the 1:9 pattern — within each protected
//     range, one 16-byte block is encrypted then nine are left clear;
//     trailing partial blocks stay clear.
//
// Subsample encryption keeps codec headers (e.g. NAL headers) in the clear,
// which is how real packagers operate and what the study's probes expect.
package cenc

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"

	"repro/internal/mp4"
)

// KeySize is the content key size (AES-128).
const KeySize = 16

// cbcs pattern: 1 encrypted block followed by 9 clear blocks.
const (
	cbcsCryptBlocks = 1
	cbcsSkipBlocks  = 9
)

// Errors returned by this package.
var (
	// ErrBadScheme is returned for unknown protection schemes.
	ErrBadScheme = errors.New("cenc: unknown protection scheme")
	// ErrBadKey is returned for keys of the wrong size.
	ErrBadKey = errors.New("cenc: content key must be 16 bytes")
	// ErrNotEncrypted is returned when decrypting a segment with no senc.
	ErrNotEncrypted = errors.New("cenc: segment carries no sample encryption")
	// ErrSubsampleMismatch is returned when a subsample map does not cover
	// the sample exactly.
	ErrSubsampleMismatch = errors.New("cenc: subsample map does not match sample size")
)

// Encryptor encrypts media segments in place under one content key.
type Encryptor struct {
	scheme string
	block  cipher.Block
	rand   io.Reader
}

// NewEncryptor builds an encryptor for the given scheme ("cenc" or "cbcs").
// rand supplies per-sample IVs.
func NewEncryptor(scheme string, key []byte, rand io.Reader) (*Encryptor, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	block, err := NewBlock(key)
	if err != nil {
		return nil, err
	}
	return &Encryptor{scheme: scheme, block: block, rand: rand}, nil
}

// NewBlock expands a content key's AES-128 schedule, for a caller that
// decrypts many samples under one key (DecryptSample).
func NewBlock(key []byte) (cipher.Block, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("%w: got %d", ErrBadKey, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cenc: %w", err)
	}
	return block, nil
}

func checkScheme(scheme string) error {
	if scheme != mp4.SchemeCENC && scheme != mp4.SchemeCBCS {
		return fmt.Errorf("%w: %q", ErrBadScheme, scheme)
	}
	return nil
}

// Scheme returns the encryptor's protection scheme.
func (e *Encryptor) Scheme() string { return e.scheme }

// EncryptSegment encrypts every sample of seg in place, leaving the first
// clearPrefix bytes of each sample unencrypted (subsample encryption), and
// attaches the senc table. clearPrefix zero yields full-sample protection.
func (e *Encryptor) EncryptSegment(seg *mp4.MediaSegment, clearPrefix int) error {
	if clearPrefix < 0 || clearPrefix > 0xFFFF {
		return fmt.Errorf("cenc: clear prefix %d out of range", clearPrefix)
	}
	enc := &mp4.SampleEncryption{Entries: make([]mp4.SampleEncryptionEntry, 0, len(seg.SampleData))}
	for i, sample := range seg.SampleData {
		var iv [8]byte
		if _, err := io.ReadFull(e.rand, iv[:]); err != nil {
			return fmt.Errorf("cenc: sample %d iv: %w", i, err)
		}
		entry := mp4.SampleEncryptionEntry{IV: iv}
		clear := clearPrefix
		if clear > len(sample) {
			clear = len(sample)
		}
		entry.Subsamples = []mp4.SubsampleEntry{{
			ClearBytes:     uint16(clear),
			ProtectedBytes: uint32(len(sample) - clear),
		}}
		out, err := e.cryptSample(sample, iv, entry.Subsamples, true)
		if err != nil {
			return fmt.Errorf("cenc: sample %d: %w", i, err)
		}
		seg.SampleData[i] = out
		enc.Entries = append(enc.Entries, entry)
	}
	seg.Encryption = enc
	return nil
}

// DecryptSegment decrypts seg in place with the given content key, removing
// the senc table on success. The scheme must match the one used to encrypt.
func DecryptSegment(scheme string, key []byte, seg *mp4.MediaSegment) error {
	if seg.Encryption == nil {
		return ErrNotEncrypted
	}
	if len(seg.Encryption.Entries) != len(seg.SampleData) {
		return fmt.Errorf("cenc: %d senc entries for %d samples",
			len(seg.Encryption.Entries), len(seg.SampleData))
	}
	e, err := NewEncryptor(scheme, key, nil)
	if err != nil {
		return err
	}
	for i, sample := range seg.SampleData {
		entry := seg.Encryption.Entries[i]
		out, err := e.cryptSample(sample, entry.IV, entry.Subsamples, false)
		if err != nil {
			return fmt.Errorf("cenc: sample %d: %w", i, err)
		}
		seg.SampleData[i] = out
	}
	seg.Encryption = nil
	return nil
}

// DecryptSample decrypts one sample given its senc entry, under a
// content key's expanded schedule (NewBlock): a CDM that decrypts every
// sample of a play under one loaded key expands that key once.
func DecryptSample(scheme string, block cipher.Block, iv [8]byte, subsamples []mp4.SubsampleEntry, data []byte) ([]byte, error) {
	if err := checkScheme(scheme); err != nil {
		return nil, err
	}
	e := Encryptor{scheme: scheme, block: block}
	return e.cryptSample(data, iv, subsamples, false)
}

// cryptSample applies the scheme to one sample. For CTR, encryption and
// decryption are the same operation; for CBC they differ by direction.
func (e *Encryptor) cryptSample(data []byte, iv [8]byte, subsamples []mp4.SubsampleEntry, encrypt bool) ([]byte, error) {
	total := 0
	for _, sub := range subsamples {
		total += int(sub.ClearBytes) + int(sub.ProtectedBytes)
	}
	if len(subsamples) > 0 && total != len(data) {
		return nil, fmt.Errorf("%w: map %d vs sample %d", ErrSubsampleMismatch, total, len(data))
	}
	out := append([]byte(nil), data...)
	if len(subsamples) == 0 {
		subsamples = []mp4.SubsampleEntry{{ProtectedBytes: uint32(len(data))}}
	}

	switch e.scheme {
	case mp4.SchemeCENC:
		var counter [16]byte
		copy(counter[:8], iv[:])
		stream := cipher.NewCTR(e.block, counter[:])
		off := 0
		for _, sub := range subsamples {
			off += int(sub.ClearBytes)
			end := off + int(sub.ProtectedBytes)
			stream.XORKeyStream(out[off:end], out[off:end])
			off = end
		}
	case mp4.SchemeCBCS:
		var fullIV [16]byte
		copy(fullIV[:8], iv[:])
		off := 0
		for _, sub := range subsamples {
			off += int(sub.ClearBytes)
			e.cryptPatternCBC(out[off:off+int(sub.ProtectedBytes)], fullIV, encrypt)
			off += int(sub.ProtectedBytes)
		}
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadScheme, e.scheme)
	}
	return out, nil
}

// cryptPatternCBC applies 1:9 pattern CBC over one protected range. Each
// protected range restarts the CBC chain at the sample IV, per 23001-7.
func (e *Encryptor) cryptPatternCBC(data []byte, iv [16]byte, encrypt bool) {
	prev := iv
	pattern := (cbcsCryptBlocks + cbcsSkipBlocks) * 16
	for off := 0; off+16 <= len(data); off += pattern {
		block := data[off : off+16]
		if encrypt {
			for i := range block {
				block[i] ^= prev[i]
			}
			e.block.Encrypt(block, block)
			copy(prev[:], block)
		} else {
			var ct [16]byte
			copy(ct[:], block)
			e.block.Decrypt(block, block)
			for i := range block {
				block[i] ^= prev[i]
			}
			prev = ct
		}
	}
}

// RandomKey draws a fresh 16-byte content key from rand.
func RandomKey(rand io.Reader) ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rand, key); err != nil {
		return nil, fmt.Errorf("cenc: generate key: %w", err)
	}
	return key, nil
}

// RandomKID draws a fresh 16-byte key ID from rand.
func RandomKID(rand io.Reader) ([16]byte, error) {
	var kid [16]byte
	if _, err := io.ReadFull(rand, kid[:]); err != nil {
		return kid, fmt.Errorf("cenc: generate kid: %w", err)
	}
	return kid, nil
}

// KIDToString renders a key ID as lowercase hex, the form MPDs carry in
// cenc:default_KID attributes (without dashes, for simplicity).
func KIDToString(kid [16]byte) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 32)
	for i, b := range kid {
		out[2*i] = hexdigits[b>>4]
		out[2*i+1] = hexdigits[b&0xF]
	}
	return string(out)
}

// ParseKID parses the hex form produced by KIDToString.
func ParseKID(s string) ([16]byte, error) {
	var kid [16]byte
	if len(s) != 32 {
		return kid, fmt.Errorf("cenc: kid %q must be 32 hex chars", s)
	}
	for i := 0; i < 16; i++ {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return kid, fmt.Errorf("cenc: kid %q has non-hex characters", s)
		}
		kid[i] = hi<<4 | lo
	}
	return kid, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	default:
		return 0, false
	}
}

// CounterForSample exposes the CTR counter-block construction (IV || 0)
// for the attack's independent decryption path.
func CounterForSample(iv [8]byte) [16]byte {
	var counter [16]byte
	copy(counter[:8], iv[:])
	return counter
}
