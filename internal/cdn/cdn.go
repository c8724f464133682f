// Package cdn implements the Content Delivery Network of the DRM
// architecture: it stores packaged assets (init/media segments, subtitle
// files) and manifests, and serves them over the simulated network. The
// CDN is intentionally dumb about protection — it delivers whatever bytes
// the packager produced; all protection decisions were made upstream,
// which is exactly why downloading its URLs suffices for the paper's Q2
// probe. The one smart thing it does is speak manifest dialects: the
// canonical DASH manifest is stored once, and HLS / Smooth Streaming forms
// are repackaged on the fly (and memoized) when a client asks by
// extension — the manifesto translator shape.
//
// What a server stores is its Catalog. A catalog never changes once
// built, apart from its memo of repacked forms, so many servers can
// share one: every world of a seed serves an app's title from one
// catalog, repacked once per dialect.
package cdn

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dash"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/netsim"
)

// URL path prefixes the CDN serves.
const (
	ManifestPrefix = "/manifest/"
	ObjectPrefix   = "/object/"
)

// ErrNotFound is returned for unknown manifests or objects.
var ErrNotFound = errors.New("cdn: not found")

// repacks counts dialect repackagings by every catalog in the process.
var repacks atomic.Int64

// Repacks reports how many dialect forms every catalog in this process
// has repacked from a canonical manifest (memoized answers excluded).
func Repacks() int64 { return repacks.Load() }

// Catalog is the stored half of a CDN: the packaged titles' objects,
// each title's canonical MPD bytes, and the dialect forms repacked from
// them. Objects and manifests are fixed when the catalog is built; the
// repack memo only gains entries, each a pure function of a stored
// manifest. So one catalog can back any number of servers.
type Catalog struct {
	objects   map[string][]byte
	manifests map[string][]byte

	// mu guards repacked and is held across a repack, so concurrent
	// first requests for one form repack it once.
	mu sync.Mutex
	// repacked memoizes dialect conversions, keyed
	// "<contentID>.<ext>".
	repacked map[string][]byte
}

// NewCatalog builds a catalog of packaged titles: all their files plus
// each manifest in canonical (DASH) form.
func NewCatalog(titles ...*media.Packaged) (*Catalog, error) {
	return (&Catalog{}).with(titles...)
}

// with returns a new catalog holding c's objects and manifests plus the
// titles'. c itself is unchanged.
func (c *Catalog) with(titles ...*media.Packaged) (*Catalog, error) {
	out := &Catalog{
		objects:   make(map[string][]byte, len(c.objects)),
		manifests: make(map[string][]byte, len(c.manifests)+len(titles)),
		repacked:  make(map[string][]byte),
	}
	maps.Copy(out.objects, c.objects)
	maps.Copy(out.manifests, c.manifests)
	for _, p := range titles {
		mpd, err := p.MPD.Marshal()
		if err != nil {
			return nil, fmt.Errorf("cdn: ingest %q: %w", p.ContentID, err)
		}
		maps.Copy(out.objects, p.Files)
		out.manifests[p.ContentID] = mpd
	}
	return out, nil
}

// dialectForm returns a stored title's manifest in dialect d,
// repackaging the canonical form on first request.
func (c *Catalog) dialectForm(contentID string, d manifest.Dialect) ([]byte, error) {
	stored, ok := c.manifests[contentID]
	if !ok {
		return nil, fmt.Errorf("%w: manifest %s", ErrNotFound, contentID)
	}
	if d.Name() == manifest.DefaultName {
		return stored, nil
	}
	memoKey := contentID + "." + d.Extension()
	c.mu.Lock()
	defer c.mu.Unlock()
	if repacked, hit := c.repacked[memoKey]; hit {
		return repacked, nil
	}
	mpd, err := dash.Parse(stored)
	if err != nil {
		return nil, fmt.Errorf("cdn: repack %s: %w", contentID, err)
	}
	repacked, err := d.Serialize(mpd)
	if err != nil {
		return nil, fmt.Errorf("cdn: repack %s as %s: %w", contentID, d.Name(), err)
	}
	c.repacked[memoKey] = repacked
	repacks.Add(1)
	return repacked, nil
}

// Server is one CDN host: a catalog plus the host's own serve counts.
type Server struct {
	host string

	mu      sync.RWMutex
	catalog *Catalog
	// served counts manifest serves per dialect name (the
	// wideleakd_manifests_served_total metric source).
	served map[string]int64
}

// NewServer builds a CDN for the given hostname over an empty catalog
// of its own.
func NewServer(host string) *Server {
	return NewCatalogServer(host, &Catalog{})
}

// NewCatalogServer builds a CDN for the given hostname serving a
// catalog, which other servers may share.
func NewCatalogServer(host string, catalog *Catalog) *Server {
	return &Server{host: host, catalog: catalog, served: make(map[string]int64)}
}

// Host returns the CDN's hostname.
func (s *Server) Host() string { return s.host }

// AddPackaged ingests one packaged title: all files plus its manifest in
// canonical (DASH) form. Dialect forms are derived lazily on first
// request. The server moves to a copy of its catalog with the title
// added, so a catalog other servers share never changes.
func (s *Server) AddPackaged(p *media.Packaged) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, err := s.catalog.with(p)
	if err != nil {
		return err
	}
	s.catalog = c
	return nil
}

func (s *Server) cat() *Catalog {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.catalog
}

// Manifest returns a content's canonical MPD bytes. It does not count as a
// dialect serve — backends use it for internal processing (sealing,
// regional rewrites); the counting entry point is ManifestDialect.
func (s *Server) Manifest(contentID string) ([]byte, bool) {
	m, ok := s.cat().manifests[contentID]
	return m, ok
}

// ManifestDialect returns a content's manifest in the named dialect
// ("" = canonical DASH), repackaging from the stored canonical form on
// the catalog's first request and memoizing the result. Every successful
// call counts toward this server's per-dialect serve totals.
func (s *Server) ManifestDialect(contentID, dialectName string) ([]byte, error) {
	d, err := manifest.ByName(dialectName)
	if err != nil {
		return nil, err
	}
	out, err := s.cat().dialectForm(contentID, d)
	if err != nil {
		return nil, err
	}
	s.count(d.Name())
	return out, nil
}

func (s *Server) count(dialectName string) {
	s.mu.Lock()
	s.served[dialectName]++
	s.mu.Unlock()
}

// ServeCounts snapshots the per-dialect manifest serve totals.
func (s *Server) ServeCounts() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.served))
	for k, v := range s.served {
		out[k] = v
	}
	return out
}

// Object returns one stored asset.
func (s *Server) Object(path string) ([]byte, bool) {
	o, ok := s.cat().objects[path]
	return o, ok
}

// Handler serves the CDN over netsim:
//
//	GET /manifest/<contentID>        → canonical MPD XML
//	GET /manifest/<contentID>.m3u8   → HLS repackaging
//	GET /manifest/<contentID>.ism    → Smooth Streaming repackaging
//	GET /object/<path>               → asset bytes
func (s *Server) Handler() netsim.Handler {
	return func(req netsim.Request) (netsim.Response, error) {
		switch {
		case strings.HasPrefix(req.Path, ManifestPrefix):
			id, dialectName := manifest.SplitExtension(strings.TrimPrefix(req.Path, ManifestPrefix))
			if m, err := s.ManifestDialect(id, dialectName); err == nil {
				return netsim.Response{Status: 200, Body: m}, nil
			}
		case strings.HasPrefix(req.Path, ObjectPrefix):
			path := strings.TrimPrefix(req.Path, ObjectPrefix)
			if o, ok := s.Object(path); ok {
				return netsim.Response{Status: 200, Body: o}, nil
			}
		}
		return netsim.Response{Status: 404}, fmt.Errorf("%w: %s", ErrNotFound, req.Path)
	}
}
