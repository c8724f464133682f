package httpkit

import (
	"strings"
	"testing"
)

// TestHistogram pins bucket assignment, the cumulative rendering, and
// the +Inf overflow bucket.
func TestHistogram(t *testing.T) {
	h := NewHistogram(0.01, 0.1, 1)
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 99} {
		h.Observe(v)
	}
	if h.count != 5 {
		t.Fatalf("count = %d", h.count)
	}

	var b strings.Builder
	h.Render(&b, "x_seconds", "test histogram")
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{le="0.01"} 1`,
		`x_seconds_bucket{le="0.1"} 3`,
		`x_seconds_bucket{le="1"} 4`,
		`x_seconds_bucket{le="+Inf"} 5`,
		"x_seconds_count 5",
		"x_seconds_sum 99.605",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q in:\n%s", want, out)
		}
	}
}

// TestTrimFloat: bucket bounds render in short decimal form.
func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{0.0005: "0.0005", 0.5: "0.5", 1: "1", 2.5: "2.5", 120: "120"}
	for in, want := range cases {
		if got := TrimFloat(in); got != want {
			t.Errorf("TrimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
