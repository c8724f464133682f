package ott

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cdn"
	"repro/internal/license"
	"repro/internal/lru"
	"repro/internal/media"
	"repro/internal/wvcrypto"
)

// The process-wide title store: an app's packaged titles per deploy
// stream. Packaging draws every content key, KID and IV from the
// deployment's stream, so what it produces is a pure function of the
// stream's seed, the content IDs and the profile fields it reads; every
// world of a seed deploys the same bytes, and only the first packages
// them. An entry holds one app's catalog (~45 KB for the default title)
// and key set, so the store at its bound of ten apps × lru.WarmSeeds
// holds about 29 MB.
var (
	titleStore = lru.New[titleKey, *titleEntry](len(Profiles()) * lru.WarmSeeds)

	titleCalls, titleHits, titlesPackaged atomic.Int64
)

// titleKey is everything packaging and ingest read: the deploy stream's
// identity, the content IDs, and the profile's key policy and regional
// restrictions.
type titleKey struct {
	stream              string
	contentIDs          string
	policy              media.KeyPolicy
	subtitleUnavailable bool
	hideKeyIDs          bool
}

// titleSet is one app's packaged titles as its backend serves them.
// It is immutable once built, so every world of a seed can hold it.
type titleSet struct {
	catalog *cdn.Catalog
	keys    [][]license.KeyEntry // per content ID, in order
}

// titleEntry is one store slot's singleflight guard.
type titleEntry struct {
	once sync.Once
	set  *titleSet
	err  error
	// drawn is how many bytes packaging read from the deploy stream.
	drawn uint64
}

// TitleStoreStats reports the title-store lookups made by deployments in
// this process and how many of them found the titles packaged.
func TitleStoreStats() (calls, hits int64) { return titleCalls.Load(), titleHits.Load() }

// TitlesPackaged reports how many times deployments in this process have
// packaged an app's titles, store misses and uncacheable streams alike.
func TitlesPackaged() int64 { return titlesPackaged.Load() }

// deployTitles returns the app's packaged titles and leaves rand where
// packaging them from it would. A *wvcrypto.DeterministicReader that has
// drawn nothing yet is served from the title store, packaging only on
// the first lookup of its key; on a hit the stream skips the bytes
// packaging drew, so the license and provisioning servers draw what they
// always did. Any other reader packages.
func deployTitles(profile Profile, contentIDs []string, rand io.Reader) (*titleSet, error) {
	stream, ok := rand.(*wvcrypto.DeterministicReader)
	if !ok || stream.Offset() != 0 {
		return packageTitles(profile, contentIDs, rand)
	}
	titleCalls.Add(1)
	key := titleKey{
		stream:              stream.Fingerprint(),
		contentIDs:          strings.Join(contentIDs, "\x00"),
		policy:              profile.KeyPolicy,
		subtitleUnavailable: profile.SubtitleUnavailable,
		hideKeyIDs:          profile.HideKeyIDs,
	}
	e := titleStore.GetOrPut(key, func() *titleEntry { return &titleEntry{} })
	packagedHere := false
	e.once.Do(func() {
		e.set, e.err = packageTitles(profile, contentIDs, stream)
		e.drawn = stream.Offset()
		packagedHere = true
	})
	if !packagedHere {
		titleHits.Add(1)
		stream.Skip(e.drawn)
	}
	return e.set, e.err
}

// packageTitles generates, encrypts and lays out each title under the
// profile's key policy and regional restrictions, drawing from rand.
func packageTitles(profile Profile, contentIDs []string, rand io.Reader) (*titleSet, error) {
	titlesPackaged.Add(1)
	keys := make([][]license.KeyEntry, len(contentIDs))
	packaged := make([]*media.Packaged, len(contentIDs))
	for i, contentID := range contentIDs {
		tracks := media.GenerateTitle(contentID, media.DefaultGenerateOptions())
		p, err := media.Package(contentID, tracks, profile.KeyPolicy, rand)
		if err != nil {
			return nil, fmt.Errorf("ott: package %s for %s: %w", contentID, profile.Name, err)
		}
		applyRegionalRestrictions(profile, p.MPD)
		packaged[i], keys[i] = p, p.Keys
	}
	catalog, err := cdn.NewCatalog(packaged...)
	if err != nil {
		return nil, err
	}
	return &titleSet{catalog: catalog, keys: keys}, nil
}
