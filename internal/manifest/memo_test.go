package manifest

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dash"
	"repro/internal/lru"
	"repro/internal/media"
)

// freshParseMemo gives the test an empty parse memo, restored
// afterwards, so its counts do not depend on test order or -count.
func freshParseMemo(t testing.TB, bound int) {
	saved := parseMemo
	parseMemo = lru.New[[sha256.Size]byte, *dash.MPD](bound)
	t.Cleanup(func() { parseMemo = saved })
}

// direct decodes b with the dialect itself, bypassing the memo: the
// reference every memo answer must equal.
func direct(d Dialect, b []byte) (*dash.MPD, error) {
	return d.(memoized).Dialect.Parse(b)
}

// dialectDocs serializes a packager manifest in every registered
// dialect, in segment-list and template addressing.
func dialectDocs(t testing.TB) map[string][][]byte {
	out := map[string][][]byte{}
	for _, form := range []string{"list", "template"} {
		mpd := packagerMPD(t, media.KeyPolicy{EncryptAudio: true, DistinctAudioKey: true})
		if form == "template" {
			media.ConvertToTemplates(mpd)
		}
		for _, d := range registry {
			raw, err := d.Serialize(mpd)
			if err != nil {
				t.Fatal(err)
			}
			out[d.Name()] = append(out[d.Name()], raw)
		}
	}
	return out
}

// A memo hit deep-equals a direct decode, for every dialect, and the
// first parse of a document misses while the second hits.
func TestParseMemo_HitEqualsDirect(t *testing.T) {
	freshParseMemo(t, parseMemoEntries)
	for name, docs := range dialectDocs(t) {
		d, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, raw := range docs {
			want, err := direct(d, raw)
			if err != nil {
				t.Fatal(err)
			}
			calls0, hits0 := ParseMemoStats()
			for pass := 0; pass < 2; pass++ {
				got, err := d.Parse(raw)
				if err != nil {
					t.Fatalf("%s doc %d pass %d: %v", name, i, pass, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s doc %d pass %d: memo answer differs from a direct decode", name, i, pass)
				}
			}
			calls, hits := ParseMemoStats()
			if calls-calls0 != 2 || hits-hits0 != 1 {
				t.Errorf("%s doc %d: %d calls, %d hits; want 2 calls, 1 hit", name, i, calls-calls0, hits-hits0)
			}
		}
	}
}

// ParseAny goes through the memo too.
func TestParseMemo_ParseAny(t *testing.T) {
	freshParseMemo(t, parseMemoEntries)
	for name, docs := range dialectDocs(t) {
		_, hits0 := ParseMemoStats()
		for pass := 0; pass < 2; pass++ {
			m, d, err := ParseAny(docs[0])
			if err != nil || d.Name() != name {
				t.Fatalf("ParseAny(%s doc) = %v, %v", name, d, err)
			}
			if want, _ := direct(d, docs[0]); !reflect.DeepEqual(m, want) {
				t.Errorf("ParseAny(%s doc) pass %d differs from a direct decode", name, pass)
			}
		}
		if _, hits := ParseMemoStats(); hits-hits0 != 1 {
			t.Errorf("ParseAny(%s doc) twice: %d hits, want 1", name, hits-hits0)
		}
	}
}

// mutate changes every field of a parsed manifest it can reach.
func mutate(m *dash.MPD) {
	m.Profiles, m.Type, m.XMLName.Local = "mutated", "mutated", "mutated"
	for pi := range m.Periods {
		p := &m.Periods[pi]
		p.ID = "mutated"
		for ai := range p.AdaptationSets {
			a := &p.AdaptationSets[ai]
			a.Lang = "mutated"
			for ci := range a.ContentProtections {
				a.ContentProtections[ci].DefaultKID = "mutated"
			}
			for ri := range a.Representations {
				r := &a.Representations[ri]
				r.ID, r.Bandwidth = "mutated", 1
				for ci := range r.ContentProtections {
					r.ContentProtections[ci].PSSH = "mutated"
				}
				if l := r.SegmentList; l != nil {
					if l.Initialization != nil {
						l.Initialization.SourceURL = "mutated"
					}
					for si := range l.SegmentURLs {
						l.SegmentURLs[si].SourceURL = "mutated"
					}
					l.SegmentURLs = append(l.SegmentURLs, dash.SegmentURL{SourceURL: "extra"})
				}
				if tpl := r.SegmentTemplate; tpl != nil {
					tpl.Media, tpl.SegmentCount = "mutated", 99
				}
			}
			a.Representations = append(a.Representations, dash.Representation{ID: "extra"})
		}
	}
	m.Periods = append(m.Periods, dash.Period{ID: "extra"})
}

// Mutating a returned manifest, on a miss or on a hit, does not change
// what the next Parse returns.
func TestParseMemo_CallersIsolated(t *testing.T) {
	freshParseMemo(t, parseMemoEntries)
	for name, docs := range dialectDocs(t) {
		d, _ := ByName(name)
		for i, raw := range docs {
			want, _ := direct(d, raw)
			for pass := 0; pass < 3; pass++ {
				got, err := d.Parse(raw)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s doc %d pass %d: a caller's mutation reached a later caller", name, i, pass)
				}
				mutate(got)
			}
		}
	}
}

// Malformed documents fail on every call and are never stored.
func TestParseMemo_FailuresNeverStored(t *testing.T) {
	freshParseMemo(t, parseMemoEntries)
	bad := map[string][]byte{
		"dash": []byte("<MPD><Period>"),
		"hls":  []byte("EXT-X-VERSION:3\n"), // no #EXTM3U header
		"sstr": []byte("<SmoothStreamingMedia MajorVersion="),
	}
	for name, raw := range bad {
		d, _ := ByName(name)
		if _, err := direct(d, raw); err == nil {
			t.Fatalf("%s fixture %q parses; it must be malformed", name, raw)
		}
		_, hits0 := ParseMemoStats()
		for pass := 0; pass < 3; pass++ {
			if _, err := d.Parse(raw); err == nil {
				t.Errorf("%s pass %d: malformed document parsed", name, pass)
			}
		}
		if _, hits := ParseMemoStats(); hits != hits0 {
			t.Errorf("%s: %d hits on a malformed document", name, hits-hits0)
		}
		if n := parseMemo.Len(); n != 0 {
			t.Errorf("%s: memo holds %d entries after failed parses", name, n)
		}
	}
}

// The same bytes under two dialect names are two entries: a dialect
// never answers with another dialect's decode.
func TestParseMemo_KeyedByDialect(t *testing.T) {
	if parseKey("dash", []byte("x")) == parseKey("hls", []byte("x")) {
		t.Error("dialect name not in the memo key")
	}
	if parseKey("da", []byte("shx")) == parseKey("dash", []byte("x")) {
		t.Error("dialect name not length-prefixed in the memo key")
	}
}

// The memo never holds more than its bound.
func TestParseMemo_Bound(t *testing.T) {
	const bound, extra = 4, 3
	freshParseMemo(t, bound)
	d, _ := ByName("dash")
	base := packagerMPD(t, media.KeyPolicy{})
	for i := 0; i < bound+extra; i++ {
		m := base.Clone()
		m.Profiles = fmt.Sprint("profile-", i)
		raw, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Parse(raw); err != nil {
			t.Fatal(err)
		}
		if n := parseMemo.Len(); n > bound {
			t.Fatalf("after %d distinct documents the memo holds %d entries, bound %d", i+1, n, bound)
		}
	}
	if n := parseMemo.Len(); n != bound {
		t.Errorf("memo holds %d entries, want %d", n, bound)
	}
}

// Concurrent hits and misses on shared documents all equal a direct
// decode; run under the race detector by make race.
func TestParseMemo_Concurrent(t *testing.T) {
	freshParseMemo(t, parseMemoEntries)
	docs := dialectDocs(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for name, raws := range docs {
					d, _ := ByName(name)
					for _, raw := range raws {
						got, err := d.Parse(raw)
						if err != nil {
							t.Error(err)
							return
						}
						if want, _ := direct(d, raw); !reflect.DeepEqual(got, want) {
							t.Errorf("%s: concurrent memo answer differs from a direct decode", name)
						}
						mutate(got)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkParseMemo prices, per dialect on a packager manifest, a memo
// hit, a miss, the decode alone, and the two parts a miss adds to the
// decode: the key hash and one clone.
func BenchmarkParseMemo(b *testing.B) {
	for name, docs := range dialectDocs(b) {
		d, _ := ByName(name)
		raw := docs[0]
		b.Run(name+"/hit", func(b *testing.B) {
			d.Parse(raw)
			for i := 0; i < b.N; i++ {
				d.Parse(raw)
			}
		})
		b.Run(name+"/miss", func(b *testing.B) {
			saved := parseMemo
			defer func() { parseMemo = saved }()
			for i := 0; i < b.N; i++ {
				parseMemo = lru.New[[sha256.Size]byte, *dash.MPD](parseMemoEntries)
				d.Parse(raw)
			}
		})
		b.Run(name+"/direct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				direct(d, raw)
			}
		})
		b.Run(name+"/key-hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parseKey(name, raw)
			}
		})
		b.Run(name+"/clone", func(b *testing.B) {
			m, _ := direct(d, raw)
			for i := 0; i < b.N; i++ {
				m.Clone()
			}
		})
	}
}
