package wvcrypto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"
)

// DeterministicReader is an io.Reader producing a reproducible byte stream
// from a seed, via SHA-256 in counter mode. Worlds built for tests and
// benchmarks inject it wherever randomness is needed (key generation, IVs,
// session nonces) so that every run is identical.
//
// It is NOT cryptographically suitable for production use; the library's
// public constructors default to crypto/rand and only tests swap this in.
type DeterministicReader struct {
	mu      sync.Mutex
	seed    [32]byte
	counter uint64
	buf     []byte
}

var _ io.Reader = (*DeterministicReader)(nil)

// NewDeterministicReader returns a reader seeded from the given label.
func NewDeterministicReader(label string) *DeterministicReader {
	return &DeterministicReader{seed: sha256.Sum256([]byte(label))}
}

// Fork derives an independent child stream, HKDF-style: the child's seed is
// a hash of the parent's seed and the label, with a domain separator so
// forked seeds can never collide with the parent's counter-mode blocks.
//
// The child depends only on the parent's *seed* — not on how many bytes
// have already been read from the parent — so forking is stable regardless
// of consumption order. That property is what lets one world seed fan out
// into per-app streams that stay identical whether fixtures are built
// sequentially or concurrently.
func (r *DeterministicReader) Fork(label string) *DeterministicReader {
	h := sha256.New()
	h.Write(r.seed[:])
	h.Write([]byte("/fork/"))
	h.Write([]byte(label))
	child := &DeterministicReader{}
	h.Sum(child.seed[:0])
	return child
}

// Fingerprint returns a stable, non-reversible identity for the stream:
// two readers with equal fingerprints produce identical bytes from their
// respective origins (and identical forks for equal labels). Callers use
// it to check that independently derived streams — e.g. a pre-minting
// key pool and a world's registry — really share one seed, without ever
// exposing the seed itself.
func (r *DeterministicReader) Fingerprint() string {
	h := sha256.New()
	h.Write([]byte("wvcrypto-stream-id/"))
	h.Write(r.seed[:])
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// Read fills p with the next bytes of the deterministic stream. It never
// fails.
func (r *DeterministicReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	n := len(p)
	for len(p) > 0 {
		if len(r.buf) == 0 {
			r.buf = r.nextBlock()
		}
		c := copy(p, r.buf)
		p = p[c:]
		r.buf = r.buf[c:]
	}
	return n, nil
}

// Offset reports how many bytes have been read (or skipped) since the
// stream's origin.
func (r *DeterministicReader) Offset() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter*blockSize - uint64(len(r.buf))
}

// Skip advances the stream by n bytes without producing them: the next
// Read returns exactly what it would after reading n bytes. It hashes at
// most one block, however large n is.
func (r *DeterministicReader) Skip(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= uint64(len(r.buf)) {
		r.buf = r.buf[n:]
		return
	}
	pos := r.counter*blockSize - uint64(len(r.buf)) + n
	r.counter, r.buf = pos/blockSize, nil
	if rem := pos % blockSize; rem != 0 {
		r.buf = r.nextBlock()[rem:]
	}
}

// blockSize is the bytes one counter-mode block yields.
const blockSize = sha256.Size

// nextBlock hashes the block at the counter and advances it. The caller
// holds r.mu.
func (r *DeterministicReader) nextBlock() []byte {
	var block [40]byte
	copy(block[:32], r.seed[:])
	binary.BigEndian.PutUint64(block[32:], r.counter)
	r.counter++
	sum := sha256.Sum256(block[:])
	return sum[:]
}
