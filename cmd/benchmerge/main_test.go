package main

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
BenchmarkTableI_Q4_Playback-2   	     316	   3000000 ns/op	  109798 B/op	    1420 allocs/op
BenchmarkTableI_Q4_Playback-2   	     300	   1000000 ns/op	  109798 B/op	    1420 allocs/op
BenchmarkTableI_Q4_Playback-2   	     310	   2000000 ns/op	  109798 B/op	    1420 allocs/op
BenchmarkManifestProtocols/hls_cold-8   	      20	    428586 ns/repack
BenchmarkManifestProtocols/hls_cold-8   	      20	    400000 ns/repack
BenchmarkE5_KeyLadder   	     721	   2034797 ns/op
PASS
`

func TestMedians(t *testing.T) {
	for unit, want := range map[string]map[string]float64{
		// The middle of three runs, GOMAXPROCS suffix stripped; a run
		// without the suffix joins the same name space.
		"ns/op": {"BenchmarkTableI_Q4_Playback": 2000000, "BenchmarkE5_KeyLadder": 2034797},
		// Only the declared unit is read; an even count averages the
		// two middle runs.
		"ns/repack": {"BenchmarkManifestProtocols/hls_cold": 414293},
	} {
		if got := medians(strings.NewReader(benchOutput), unit); !reflect.DeepEqual(got, want) {
			t.Errorf("medians in %s = %v, want %v", unit, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := baseline{"BenchmarkA": {"ns/op": 1000}, "BenchmarkB": {"ns/lookup": 200}}
	for _, tc := range []struct {
		name string
		base baseline
		cur  baseline
		want []string // substrings, one per expected problem
	}{
		{"within tolerance", base, baseline{"BenchmarkA": {"ns/op": 1200}, "BenchmarkB": {"ns/lookup": 150}}, nil},
		{"2x slowdown", base, baseline{"BenchmarkA": {"ns/op": 1000}, "BenchmarkB": {"ns/lookup": 400}}, []string{"BenchmarkB"}},
		{"renamed benchmark", base, baseline{"BenchmarkA": {"ns/op": 1000}, "BenchmarkB2": {"ns/lookup": 200}}, []string{"BenchmarkB: no current result"}},
		{"unit changed", base, baseline{"BenchmarkA": {"ns/op": 1000}, "BenchmarkB": {"ns/op": 200}}, []string{"BenchmarkB: no current result"}},
		{"zero compared", baseline{}, base, []string{"compared zero"}},
	} {
		got := compare(tc.base, tc.cur, io.Discard)
		if len(got) != len(tc.want) {
			t.Errorf("%s: problems %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: problem %q, want it to mention %q", tc.name, got[i], w)
			}
		}
	}
}

func TestEncode_OneEntryPerLineAndRoundTrips(t *testing.T) {
	b := baseline{"BenchmarkB": {"ns/lookup": 181.5}, "BenchmarkA": {"ns/op": 1705349}}
	want := "{\n  \"BenchmarkA\": {\"ns/op\": 1705349},\n  \"BenchmarkB\": {\"ns/lookup\": 181.5}\n}\n"
	got := b.encode()
	var back baseline
	if string(got) != want || json.Unmarshal(got, &back) != nil || !reflect.DeepEqual(back, b) {
		t.Fatalf("encode =\n%s\nwant\n%s\n(decoded back as %v)", got, want, back)
	}
}
