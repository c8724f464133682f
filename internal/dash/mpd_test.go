package dash

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleMPD() *MPD {
	return &MPD{
		Profiles: "urn:mpeg:dash:profile:isoff-on-demand:2011",
		Type:     "static",
		Duration: "PT2M",
		Periods: []Period{{
			ID: "p0",
			AdaptationSets: []AdaptationSet{
				{
					ContentType: ContentVideo,
					MimeType:    "video/mp4",
					ContentProtections: []ContentProtection{{
						SchemeIDURI: WidevineSchemeIDURI,
						PSSH:        "cHNzaA==",
					}},
					Representations: []Representation{
						{
							ID: "v540", Bandwidth: 1_200_000, Width: 960, Height: 540,
							ContentProtections: []ContentProtection{{
								SchemeIDURI: MP4ProtectionSchemeIDURI,
								Value:       "cenc",
								DefaultKID:  "11111111111111111111111111111111",
							}},
							BaseURL: "video/540/",
							SegmentList: &SegmentList{
								Initialization: &SegmentURL{SourceURL: "init.mp4"},
								SegmentURLs:    []SegmentURL{{SourceURL: "seg1.m4s"}, {SourceURL: "seg2.m4s"}},
							},
						},
						{
							ID: "v1080", Bandwidth: 5_000_000, Width: 1920, Height: 1080,
							ContentProtections: []ContentProtection{{
								SchemeIDURI: MP4ProtectionSchemeIDURI,
								Value:       "cenc",
								DefaultKID:  "22222222222222222222222222222222",
							}},
							BaseURL: "video/1080/",
							SegmentList: &SegmentList{
								Initialization: &SegmentURL{SourceURL: "init.mp4"},
								SegmentURLs:    []SegmentURL{{SourceURL: "seg1.m4s"}},
							},
						},
					},
				},
				{
					ContentType: ContentAudio,
					MimeType:    "audio/mp4",
					Lang:        "en",
					Representations: []Representation{{
						ID: "a-en", Bandwidth: 128_000,
						BaseURL: "audio/en/",
						SegmentList: &SegmentList{
							Initialization: &SegmentURL{SourceURL: "init.mp4"},
							SegmentURLs:    []SegmentURL{{SourceURL: "seg1.m4s"}},
						},
					}},
				},
				{
					ContentType: ContentSubtitle,
					MimeType:    "text/vtt",
					Lang:        "en",
					Representations: []Representation{{
						ID: "s-en", Bandwidth: 1000,
						BaseURL:     "subs/en/",
						SegmentList: &SegmentList{SegmentURLs: []SegmentURL{{SourceURL: "subs.vtt"}}},
					}},
				},
			},
		}},
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	m := sampleMPD()
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(wire), "<?xml") {
		t.Error("missing xml header")
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	// XMLName gets populated on unmarshal; normalize before comparing.
	got.XMLName = m.XMLName
	if !reflect.DeepEqual(m, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestParse_Invalid(t *testing.T) {
	if _, err := Parse([]byte("not xml at all <")); err == nil {
		t.Error("want parse error")
	}
}

func TestFindAdaptationSet(t *testing.T) {
	m := sampleMPD()
	v, err := m.FindAdaptationSet(ContentVideo, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Representations) != 2 {
		t.Errorf("video reps = %d", len(v.Representations))
	}
	if !v.Protected() {
		t.Error("video set not protected")
	}

	a, err := m.FindAdaptationSet(ContentAudio, "en")
	if err != nil {
		t.Fatal(err)
	}
	if a.Protected() {
		t.Error("clear audio set reported protected")
	}

	if _, err := m.FindAdaptationSet(ContentAudio, "fr"); !errors.Is(err, ErrNoAdaptationSet) {
		t.Errorf("missing lang err = %v", err)
	}
	if _, err := m.FindAdaptationSet("imaginary", ""); !errors.Is(err, ErrNoAdaptationSet) {
		t.Errorf("missing type err = %v", err)
	}
}

func TestAllURLs(t *testing.T) {
	urls := sampleMPD().AllURLs()
	want := []string{
		"video/540/init.mp4", "video/540/seg1.m4s", "video/540/seg2.m4s",
		"video/1080/init.mp4", "video/1080/seg1.m4s",
		"audio/en/init.mp4", "audio/en/seg1.m4s",
		"subs/en/subs.vtt",
	}
	if !reflect.DeepEqual(urls, want) {
		t.Errorf("AllURLs = %v", urls)
	}
}

func TestKeyUsage(t *testing.T) {
	usage := sampleMPD().KeyUsage()
	if len(usage) != 4 {
		t.Fatalf("usage rows = %d", len(usage))
	}
	byRep := make(map[string]KeyIDUsage, len(usage))
	for _, u := range usage {
		byRep[u.RepresentationID] = u
	}
	if byRep["v540"].KID != "11111111111111111111111111111111" {
		t.Errorf("v540 kid = %q", byRep["v540"].KID)
	}
	if byRep["v1080"].KID != "22222222222222222222222222222222" {
		t.Errorf("v1080 kid = %q", byRep["v1080"].KID)
	}
	if byRep["v540"].KID == byRep["v1080"].KID {
		t.Error("per-resolution keys collapsed")
	}
	if byRep["a-en"].KID != "" {
		t.Errorf("clear audio kid = %q", byRep["a-en"].KID)
	}
	if byRep["s-en"].KID != "" {
		t.Errorf("subtitle kid = %q", byRep["s-en"].KID)
	}
}

func TestKeyUsage_SetLevelKIDFallback(t *testing.T) {
	m := &MPD{Periods: []Period{{AdaptationSets: []AdaptationSet{{
		ContentType: ContentAudio,
		ContentProtections: []ContentProtection{{
			SchemeIDURI: MP4ProtectionSchemeIDURI,
			DefaultKID:  "33333333333333333333333333333333",
		}},
		Representations: []Representation{{ID: "a1"}},
	}}}}}
	usage := m.KeyUsage()
	if len(usage) != 1 || usage[0].KID != "33333333333333333333333333333333" {
		t.Errorf("set-level kid fallback = %+v", usage)
	}
}

func TestRepresentationKID_Empty(t *testing.T) {
	r := Representation{ContentProtections: []ContentProtection{{SchemeIDURI: WidevineSchemeIDURI}}}
	if r.KID() != "" {
		t.Errorf("KID = %q, want empty", r.KID())
	}
}

func TestSegmentTemplateExpand(t *testing.T) {
	tpl := &SegmentTemplate{
		Initialization: "$RepresentationID$/init.mp4",
		Media:          "$RepresentationID$/seg-$Number$.m4s",
		SegmentCount:   3,
	}
	list := tpl.Expand("v540")
	if list.Initialization.SourceURL != "v540/init.mp4" {
		t.Errorf("init = %q", list.Initialization.SourceURL)
	}
	want := []string{"v540/seg-1.m4s", "v540/seg-2.m4s", "v540/seg-3.m4s"}
	if len(list.SegmentURLs) != 3 {
		t.Fatalf("segments = %d", len(list.SegmentURLs))
	}
	for i, w := range want {
		if list.SegmentURLs[i].SourceURL != w {
			t.Errorf("segment %d = %q, want %q", i, list.SegmentURLs[i].SourceURL, w)
		}
	}
}

func TestSegmentTemplate_StartNumber(t *testing.T) {
	tpl := &SegmentTemplate{Media: "s$Number$.m4s", StartNumber: 10, SegmentCount: 2}
	list := tpl.Expand("x")
	if list.Initialization != nil {
		t.Error("unexpected init entry")
	}
	if list.SegmentURLs[0].SourceURL != "s10.m4s" || list.SegmentURLs[1].SourceURL != "s11.m4s" {
		t.Errorf("segments = %+v", list.SegmentURLs)
	}
}

func TestRepresentationSegments(t *testing.T) {
	explicit := Representation{SegmentList: &SegmentList{SegmentURLs: []SegmentURL{{SourceURL: "a"}}}}
	if got := explicit.Segments(); len(got.SegmentURLs) != 1 {
		t.Error("explicit list not returned")
	}
	templated := Representation{ID: "r", SegmentTemplate: &SegmentTemplate{Media: "r-$Number$.m4s", SegmentCount: 2}}
	if got := templated.Segments(); len(got.SegmentURLs) != 2 {
		t.Error("template not expanded")
	}
	var neither Representation
	if neither.Segments() != nil {
		t.Error("no addressing should yield nil")
	}
}

func TestSegmentTemplate_XMLRoundTrip(t *testing.T) {
	m := &MPD{Profiles: "p", Type: "static", Periods: []Period{{AdaptationSets: []AdaptationSet{{
		ContentType: ContentVideo,
		Representations: []Representation{{
			ID: "v1", Bandwidth: 100,
			SegmentTemplate: &SegmentTemplate{
				Initialization: "$RepresentationID$/init.mp4",
				Media:          "$RepresentationID$/$Number$.m4s",
				StartNumber:    5,
				SegmentCount:   2,
			},
		}},
	}}}}}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	tpl := got.Periods[0].AdaptationSets[0].Representations[0].SegmentTemplate
	if tpl == nil || tpl.StartNumber != 5 || tpl.Media != "$RepresentationID$/$Number$.m4s" {
		t.Errorf("template roundtrip = %+v", tpl)
	}
}

// sharedMemory walks two values of one type in parallel and reports the
// path of the first pointer or non-empty slice they share.
func sharedMemory(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return ""
		}
		if a.Pointer() == b.Pointer() {
			return path
		}
		return sharedMemory(a.Elem(), b.Elem(), path)
	case reflect.Slice:
		if a.Len() > 0 && b.Len() > 0 && a.Pointer() == b.Pointer() {
			return path
		}
		for i := 0; i < a.Len() && i < b.Len(); i++ {
			if p := sharedMemory(a.Index(i), b.Index(i), path+"["+strconv.Itoa(i)+"]"); p != "" {
				return p
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if p := sharedMemory(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// Clone is deep: the copy deep-equals the original (nil and empty slices
// kept apart) and shares no pointer or slice with it. The walk covers
// every field by reflection, so a field added to the model later is
// checked too.
func TestClone_Deep(t *testing.T) {
	m := sampleMPD()
	m.XMLName.Local = "MPD"
	set := &m.Periods[0].AdaptationSets[0]
	set.Representations = append(set.Representations, Representation{
		ID:                 "v720",
		ContentProtections: []ContentProtection{},
		SegmentTemplate:    &SegmentTemplate{Initialization: "init.mp4", Media: "$Number$.m4s", SegmentCount: 3},
	})
	c := m.Clone()
	if !reflect.DeepEqual(c, m) {
		t.Fatalf("clone differs:\n got %+v\nwant %+v", c, m)
	}
	if p := sharedMemory(reflect.ValueOf(c), reflect.ValueOf(m), "MPD"); p != "" {
		t.Errorf("clone shares %s with the original", p)
	}
	if got := c.Periods[0].AdaptationSets[0].Representations[2].ContentProtections; got == nil {
		t.Error("clone turned an empty slice into nil")
	}
	if got := c.Periods[0].AdaptationSets[1].ContentProtections; got != nil {
		t.Error("clone turned a nil slice into an empty one")
	}
}
