package manifest

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dash"
	"repro/internal/media"
	"repro/internal/wvcrypto"
)

// packagerMPD produces a real packaged manifest — the exact canonical
// shape the CDN stores — under the given key policy.
func packagerMPD(t testing.TB, policy media.KeyPolicy) *dash.MPD {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("manifest-test")
	tracks := media.GenerateTitle("movie-1", media.DefaultGenerateOptions())
	packaged, err := media.Package("movie-1", tracks, policy, rand)
	if err != nil {
		t.Fatal(err)
	}
	return packaged.MPD
}

// policies covers the packager's protection shapes: shared video key,
// distinct audio key, and all-clear audio.
var policies = []struct {
	name   string
	policy media.KeyPolicy
}{
	{"clear-audio", media.KeyPolicy{}},
	{"encrypted-audio-shared-key", media.KeyPolicy{EncryptAudio: true}},
	{"recommended", media.KeyPolicy{EncryptAudio: true, DistinctAudioKey: true}},
}

// TestRoundTripLossless is the conversion linchpin: every dialect must
// reproduce the canonical model exactly, in both segment-list and
// template addressing, for every packager protection shape. Q2/Q3
// dialect-equality rests on this.
func TestRoundTripLossless(t *testing.T) {
	for _, pol := range policies {
		for _, form := range []string{"list", "template"} {
			mpd := packagerMPD(t, pol.policy)
			if form == "template" {
				media.ConvertToTemplates(mpd)
			}
			for _, name := range Names() {
				d, err := ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(pol.name+"/"+form+"/"+name, func(t *testing.T) {
					raw, err := d.Serialize(mpd)
					if err != nil {
						t.Fatalf("Serialize: %v", err)
					}
					if !d.Sniff(raw) {
						t.Error("dialect does not sniff its own output")
					}
					got, err := d.Parse(raw)
					if err != nil {
						t.Fatalf("Parse: %v", err)
					}
					got.XMLName.Local = ""
					want := *mpd
					want.XMLName.Local = ""
					if !reflect.DeepEqual(got, &want) {
						t.Errorf("round trip through %s is lossy:\n got %+v\nwant %+v", name, got, &want)
					}
				})
			}
		}
	}
}

// TestDialectsAgreeOnExtraction pins that the Protections and SegmentURLs
// views are identical across dialects for the same canonical manifest.
func TestDialectsAgreeOnExtraction(t *testing.T) {
	mpd := packagerMPD(t, media.KeyPolicy{EncryptAudio: true, DistinctAudioKey: true})
	var wantProt []dash.ContentProtection
	var wantURLs []string
	for i, name := range Names() {
		d, _ := ByName(name)
		raw, err := d.Serialize(mpd)
		if err != nil {
			t.Fatal(err)
		}
		prot, err := d.Protections(raw)
		if err != nil {
			t.Fatal(err)
		}
		urls, err := d.SegmentURLs(raw)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wantProt, wantURLs = prot, urls
			if len(wantProt) == 0 || len(wantURLs) == 0 {
				t.Fatal("dash extraction came back empty — test fixture broken")
			}
			continue
		}
		if !reflect.DeepEqual(prot, wantProt) {
			t.Errorf("%s Protections diverge from dash:\n got %+v\nwant %+v", name, prot, wantProt)
		}
		if !reflect.DeepEqual(urls, wantURLs) {
			t.Errorf("%s SegmentURLs diverge from dash:\n got %v\nwant %v", name, urls, wantURLs)
		}
	}
}

func TestRegistry(t *testing.T) {
	if got, want := strings.Join(Names(), ","), "dash,hls,sstr"; got != want {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	for _, name := range []string{"", "dash", "DASH", "hls", "HLS", "sstr"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	_, err := ByName("rtmp")
	if err == nil {
		t.Fatal("ByName(rtmp) must error")
	}
	for _, want := range []string{"rtmp", "dash, hls, sstr"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-dialect error %q missing %q", err, want)
		}
	}
}

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{"": "", "dash": "", "DASH": "", "hls": "hls", "HLS": "hls", "sstr": "sstr"}
	for in, want := range cases {
		got, err := CanonicalName(in)
		if err != nil || got != want {
			t.Errorf("CanonicalName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := CanonicalName("flash"); err == nil {
		t.Error("CanonicalName(flash) must error")
	}
}

func TestSplitExtensionAndPathFor(t *testing.T) {
	cases := []struct{ path, base, dialect string }{
		{"movie-1", "movie-1", ""},
		{"movie-1.m3u8", "movie-1", "hls"},
		{"movie-1.ism", "movie-1", "sstr"},
		{"movie-1.mpd", "movie-1.mpd", ""}, // default dialect keeps the bare path
		{"movie-1.txt", "movie-1.txt", ""}, // unregistered extension stays part of the ID
		{"a.b.m3u8", "a.b", "hls"},
	}
	for _, c := range cases {
		base, dialect := SplitExtension(c.path)
		if base != c.base || dialect != c.dialect {
			t.Errorf("SplitExtension(%q) = %q, %q; want %q, %q", c.path, base, dialect, c.base, c.dialect)
		}
	}
	if got := PathFor("movie-1", ""); got != "movie-1" {
		t.Errorf("PathFor default = %q", got)
	}
	if got := PathFor("movie-1", "dash"); got != "movie-1" {
		t.Errorf("PathFor dash = %q", got)
	}
	if got := PathFor("movie-1", "hls"); got != "movie-1.m3u8" {
		t.Errorf("PathFor hls = %q", got)
	}
	if got := PathFor("movie-1", "sstr"); got != "movie-1.ism" {
		t.Errorf("PathFor sstr = %q", got)
	}
}

func TestParseAny(t *testing.T) {
	mpd := packagerMPD(t, media.KeyPolicy{})
	for _, name := range Names() {
		d, _ := ByName(name)
		raw, err := d.Serialize(mpd)
		if err != nil {
			t.Fatal(err)
		}
		got, via, err := ParseAny(raw)
		if err != nil {
			t.Fatalf("ParseAny(%s): %v", name, err)
		}
		if via.Name() != name {
			t.Errorf("ParseAny picked %s for %s bytes", via.Name(), name)
		}
		if len(got.Periods) != len(mpd.Periods) {
			t.Errorf("ParseAny(%s) lost periods", name)
		}
	}
	if _, _, err := ParseAny([]byte("plain text")); err == nil {
		t.Error("ParseAny must reject unrecognized bytes")
	}
}

func TestSSTRRejectsMultiPeriod(t *testing.T) {
	d, _ := ByName("sstr")
	_, err := d.Serialize(&dash.MPD{Periods: []dash.Period{{ID: "p0"}, {ID: "p1"}}})
	if err == nil || !strings.Contains(err.Error(), "one period") {
		t.Errorf("sstr multi-period Serialize err = %v", err)
	}
}
