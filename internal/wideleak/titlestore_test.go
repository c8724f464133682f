package wideleak

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/ott"
	"repro/internal/provision"
)

// secondWorldRuns makes each run of
// TestTitleStore_SecondWorldPackagesNothing (-count > 1) use a new seed.
var secondWorldRuns int

// The second world of a seed takes every app's titles from the
// process-wide title store: it packages nothing, serves the first
// world's catalog, and renders the same table. A deployment served from
// the store leaves its deploy stream where packaging leaves it, so the
// license and provisioning servers draw the same bytes either way. No
// other test uses the seed.
func TestTitleStore_SecondWorldPackagesNothing(t *testing.T) {
	secondWorldRuns++
	seed := fmt.Sprintf("title-store-second-world-%d", secondWorldRuns)
	profiles := profilesNamed(t, "Netflix", "Hulu")
	build := func() (*World, []byte) {
		w, err := NewWorld(seed, profiles)
		if err != nil {
			t.Fatal(err)
		}
		table, err := NewStudy(w).BuildTable()
		if err != nil {
			t.Fatal(err)
		}
		out, err := table.Encode("json")
		if err != nil {
			t.Fatal(err)
		}
		return w, out
	}
	type counts struct{ calls, hits, packaged int64 }
	read := func() counts {
		calls, hits := ott.TitleStoreStats()
		return counts{calls, hits, ott.TitlesPackaged()}
	}

	before := read()
	first, firstTable := build()
	afterFirst := read()
	if got := afterFirst.packaged - before.packaged; got != int64(len(profiles)) {
		t.Errorf("first world of a new seed packaged %d times, want %d", got, len(profiles))
	}
	second, secondTable := build()
	afterSecond := read()
	if got := afterSecond.packaged - afterFirst.packaged; got != 0 {
		t.Errorf("second world of the seed packaged %d times, want 0", got)
	}
	if calls, hits := afterSecond.calls-afterFirst.calls, afterSecond.hits-afterFirst.hits; calls != int64(len(profiles)) || hits != calls {
		t.Errorf("second world: %d title-store calls, %d hits; want %d and %d", calls, hits, len(profiles), len(profiles))
	}
	if !bytes.Equal(firstTable, secondTable) {
		t.Errorf("second world's table differs from the first's:\n%s\nvs\n%s", secondTable, firstTable)
	}
	for _, p := range profiles {
		m1, _ := first.Deployment(p.Name).CDN().Manifest(ContentID)
		m2, ok := second.Deployment(p.Name).CDN().Manifest(ContentID)
		if !ok || len(m1) == 0 || &m1[0] != &m2[0] {
			t.Errorf("%s: the second world does not serve the first world's catalog", p.Name)
		}
	}

	// A reader the store cannot key (here: one hiding its type) packages
	// from the stream itself. Both streams must end in one place.
	for _, p := range profiles {
		missStream := worldRoot(seed).Fork("deploy/" + p.Name)
		hitStream := worldRoot(seed).Fork("deploy/" + p.Name)
		miss := deploy(t, p, struct{ io.Reader }{missStream})
		packaged := ott.TitlesPackaged()
		hit := deploy(t, p, hitStream)
		if got := ott.TitlesPackaged() - packaged; got != 0 {
			t.Errorf("%s: a fresh deploy stream of a known seed packaged %d times, want 0", p.Name, got)
		}
		if hitStream.Offset() == 0 || hitStream.Offset() != missStream.Offset() {
			t.Errorf("%s: deploy stream at %d after a hit, %d after packaging", p.Name, hitStream.Offset(), missStream.Offset())
		}
		next := func(r io.Reader) []byte {
			b := make([]byte, 48)
			io.ReadFull(r, b)
			return b
		}
		if !bytes.Equal(next(hitStream), next(missStream)) {
			t.Errorf("%s: deploy stream bytes after a hit differ from those after packaging", p.Name)
		}
		mm, _ := miss.CDN().Manifest(ContentID)
		hm, _ := hit.CDN().Manifest(ContentID)
		mk, _ := miss.KeyDB().Lookup(ContentID)
		hk, _ := hit.KeyDB().Lookup(ContentID)
		if !bytes.Equal(mm, hm) || len(mk) == 0 || !reflect.DeepEqual(mk, hk) {
			t.Errorf("%s: a store hit serves other manifest or keys than packaging", p.Name)
		}
	}
}

// deploy builds one app's backend on a network of its own.
func deploy(t *testing.T, p ott.Profile, rand io.Reader) *ott.Deployment {
	t.Helper()
	d, err := ott.NewDeployment(p, []string{ContentID}, provision.NewRegistry(), netsim.NewNetwork(), rand)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Worlds of a seed share one catalog per app, so nothing a study does
// may change a catalog's bytes: after a full default pass over two
// worlds, every object and content key still equals a fresh packaging
// from the app's deploy stream, and every manifest its bytes from before
// the passes.
func TestTitleStore_CatalogUnchangedByStudies(t *testing.T) {
	const seed = "test"
	worlds := make([]*World, 2)
	for i := range worlds {
		w, err := NewWorld(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	manifests := map[string][]byte{}
	for _, p := range worlds[0].Profiles() {
		m, _ := worlds[0].Deployment(p.Name).CDN().Manifest(ContentID)
		manifests[p.Name] = bytes.Clone(m)
	}
	for _, w := range worlds {
		if _, err := NewStudy(w).BuildTable(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range worlds[0].Profiles() {
		want, err := media.Package(ContentID, media.GenerateTitle(ContentID, media.DefaultGenerateOptions()),
			p.KeyPolicy, worldRoot(seed).Fork("deploy/"+p.Name))
		if err != nil {
			t.Fatal(err)
		}
		a, b := worlds[0].Deployment(p.Name).CDN(), worlds[1].Deployment(p.Name).CDN()
		for path, data := range want.Files {
			got, ok := a.Object(path)
			if !ok || !bytes.Equal(got, data) {
				t.Errorf("%s: object %s changed after two study passes", p.Name, path)
				continue
			}
			if other, _ := b.Object(path); &other[0] != &got[0] {
				t.Fatalf("%s: the two worlds do not share one catalog, so this guard checks nothing", p.Name)
			}
		}
		if m, _ := b.Manifest(ContentID); !bytes.Equal(m, manifests[p.Name]) {
			t.Errorf("%s: manifest changed after two study passes", p.Name)
		}
		if keys, _ := worlds[1].Deployment(p.Name).KeyDB().Lookup(ContentID); !reflect.DeepEqual(keys, want.Keys) {
			t.Errorf("%s: content keys changed after two study passes", p.Name)
		}
	}
}
