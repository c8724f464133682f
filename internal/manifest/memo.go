package manifest

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/dash"
	"repro/internal/lru"
)

// parseMemoEntries bounds the parse memo: a seed's worlds fetch the
// manifests of 10 apps in up to 3 dialects, and the memo holds as many
// seeds as the key store (lru.WarmSeeds, 64), so 10 × 3 × 64 = 1920
// documents. A parsed app manifest holds about 2.3 KB of heap, plus
// about 150 B of LRU bookkeeping per entry, so the full memo holds
// about 4.7 MB.
const parseMemoEntries = 10 * 3 * lru.WarmSeeds

// parseMemo is the process-wide memo behind every registered dialect's
// Parse, by SHA-256 of the dialect name and the document bytes. A
// manifest is a pure function of the world seed, the app and the
// dialect, so every cell of a world, and every world of a seed,
// fetches byte-identical documents: after the first, each parse is a
// hit. Only successful parses are stored.
var parseMemo = lru.New[[sha256.Size]byte, *dash.MPD](parseMemoEntries)

// parseCalls counts Parse calls through registered dialects, successful
// or not; parseHits counts those the parse memo answered.
var parseCalls, parseHits atomic.Int64

// ParseMemoStats reports how many manifest parses this process has
// made through registered dialects and how many of them the parse memo
// answered without decoding.
func ParseMemoStats() (calls, hits int64) {
	return parseCalls.Load(), parseHits.Load()
}

// memoized is a registered dialect with its Parse behind the parse
// memo. Each caller gets its own deep copy, so no caller can change
// what a later caller sees.
type memoized struct{ Dialect }

func (d memoized) Parse(b []byte) (*dash.MPD, error) {
	parseCalls.Add(1)
	id := parseKey(d.Name(), b)
	if m, ok := parseMemo.Get(id); ok {
		parseHits.Add(1)
		return m.Clone(), nil
	}
	m, err := d.Dialect.Parse(b)
	if err != nil {
		return nil, err
	}
	parseMemo.Put(id, m.Clone())
	return m, nil
}

// parseKey hashes a dialect name, length-prefixed, and a document.
func parseKey(dialect string, b []byte) [sha256.Size]byte {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(dialect)))
	h := sha256.New()
	h.Write(n[:])
	h.Write([]byte(dialect))
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
