// Package manifest is the dialect subsystem: one interface over the three
// manifest wire formats OTT apps speak (MPEG-DASH, HLS, Smooth Streaming),
// with internal/dash's MPD as the canonical in-memory model every dialect
// converts to and from.
//
// That canonical-model design is the invariant the whole protocol axis
// rests on: probes, playback, and classification all operate on *dash.MPD,
// so a title fetched as m3u8 or .ism is byte-for-byte the same study input
// as the DASH original once parsed — Q2/Q3 rows cannot drift across
// dialects unless a conversion is lossy, and the round-trip tests pin that
// they are not.
//
// The default dialect is DASH and is canonically spelled "" so every
// pre-existing cache key, URL, and golden stays untouched; only non-default
// dialects mark keys and URL paths.
package manifest

import (
	"fmt"
	"strings"

	"repro/internal/dash"
)

// DefaultName is the registered name of the default dialect.
const DefaultName = "dash"

// Dialect is one manifest wire format. Parse and Serialize convert to and
// from the canonical model; Sniff type-detects raw bytes; Extension is the
// URL suffix (without dot) that selects the dialect on fetch paths.
type Dialect interface {
	Name() string
	Extension() string
	Sniff(b []byte) bool
	Parse(b []byte) (*dash.MPD, error)
	Serialize(m *dash.MPD) ([]byte, error)
	// Protections extracts every DRM descriptor in document order —
	// set-level then representation-level — without the caller needing
	// the canonical model.
	Protections(b []byte) ([]dash.ContentProtection, error)
	// SegmentURLs extracts every addressable media URL (init + segments,
	// templates expanded), BaseURL-prefixed.
	SegmentURLs(b []byte) ([]string, error)
}

// registry holds dialects in registration order (dash first), each
// behind the parse memo.
var registry []Dialect

// Register adds a dialect; duplicate names or extensions panic at init
// time (registration is package wiring, not runtime input). Every
// lookup (ByName, ByExtension, ParseAny) hands out the dialect with its
// Parse behind the process-wide parse memo.
func Register(d Dialect) {
	for _, have := range registry {
		if have.Name() == d.Name() || have.Extension() == d.Extension() {
			panic(fmt.Sprintf("manifest: duplicate dialect registration %q/%q", d.Name(), d.Extension()))
		}
	}
	registry = append(registry, memoized{d})
}

// Names lists registered dialect names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name()
	}
	return out
}

// ByName resolves a dialect name ("" means the default). Unknown names
// error with the registered list, matching the device-registry style.
func ByName(name string) (Dialect, error) {
	if name == "" {
		name = DefaultName
	}
	for _, d := range registry {
		if strings.EqualFold(d.Name(), name) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("manifest: unknown dialect %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}

// CanonicalName validates a dialect name and returns its canonical cache-key
// spelling: "" for the default dialect (so default keys, URLs, and goldens
// are untouched), the lowercase registered name otherwise.
func CanonicalName(name string) (string, error) {
	d, err := ByName(name)
	if err != nil {
		return "", err
	}
	if d.Name() == DefaultName {
		return "", nil
	}
	return d.Name(), nil
}

// ByExtension resolves a dialect by its URL suffix (without dot); ok is
// false for unregistered extensions.
func ByExtension(ext string) (Dialect, bool) {
	for _, d := range registry {
		if d.Extension() == ext {
			return d, true
		}
	}
	return nil, false
}

// SplitExtension splits a fetch path into its base and the dialect a
// registered extension selects. Paths without a registered extension are
// returned whole with the default dialect's name spelled "" — the bare
// path IS the default-dialect path, byte-identical to pre-dialect traffic.
func SplitExtension(path string) (base, dialectName string) {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return path, ""
	}
	if d, ok := ByExtension(path[dot+1:]); ok && d.Name() != DefaultName {
		return path[:dot], d.Name()
	}
	return path, ""
}

// PathFor appends the dialect's extension to a base fetch path; the default
// dialect keeps the bare path.
func PathFor(base, dialectName string) string {
	if dialectName == "" || strings.EqualFold(dialectName, DefaultName) {
		return base
	}
	if d, err := ByName(dialectName); err == nil {
		return base + "." + d.Extension()
	}
	return base
}

// ParseAny sniffs the bytes against every registered dialect and parses
// with the first match. Used where the wire format is unknown in advance
// (recovered traffic, CDM dumps).
func ParseAny(b []byte) (*dash.MPD, Dialect, error) {
	for _, d := range registry {
		if !d.Sniff(b) {
			continue
		}
		m, err := d.Parse(b)
		if err != nil {
			return nil, d, err
		}
		return m, d, nil
	}
	return nil, nil, fmt.Errorf("manifest: no registered dialect recognizes the input")
}

// mpdProtections walks a canonical manifest's DRM descriptors in document
// order — the shared implementation behind every dialect's Protections.
func mpdProtections(m *dash.MPD) []dash.ContentProtection {
	var out []dash.ContentProtection
	for _, p := range m.Periods {
		for _, a := range p.AdaptationSets {
			out = append(out, a.ContentProtections...)
			for _, r := range a.Representations {
				out = append(out, r.ContentProtections...)
			}
		}
	}
	return out
}
