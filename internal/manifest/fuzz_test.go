package manifest

import (
	"reflect"
	"testing"

	"repro/internal/dash"
)

// FuzzParseMemo: for arbitrary bytes and every registered dialect,
// parsing through the memo twice (the first answer mutated in between)
// fails exactly when a direct decode fails and otherwise deep-equals
// it both times. Run via `make fuzz` or
// `go test -fuzz FuzzParseMemo ./internal/manifest`.
func FuzzParseMemo(f *testing.F) {
	// A small seed per dialect: the fuzzer minimizes every input it
	// finds interesting, which takes long on full packager manifests.
	seed := &dash.MPD{Profiles: "p", Type: "static", Periods: []dash.Period{{AdaptationSets: []dash.AdaptationSet{{
		ContentType:        dash.ContentVideo,
		ContentProtections: []dash.ContentProtection{{SchemeIDURI: dash.WidevineSchemeIDURI, DefaultKID: "00112233445566778899aabbccddeeff"}},
		Representations: []dash.Representation{
			{ID: "v", Bandwidth: 1, SegmentList: &dash.SegmentList{
				Initialization: &dash.SegmentURL{SourceURL: "i.mp4"},
				SegmentURLs:    []dash.SegmentURL{{SourceURL: "s1.m4s"}},
			}},
			{ID: "w", Bandwidth: 2, SegmentTemplate: &dash.SegmentTemplate{Initialization: "i.mp4", Media: "$Number$.m4s", SegmentCount: 2}},
		},
	}}}}}
	for _, d := range registry {
		raw, err := d.Serialize(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range registry {
			want, wantErr := direct(d, data)
			for pass := 0; pass < 2; pass++ {
				got, err := d.Parse(data)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s pass %d: memo error %v, direct error %v", d.Name(), pass, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pass %d: memo answer differs from a direct decode", d.Name(), pass)
				}
				mutate(got)
			}
		}
	})
}
