package httpkit

import (
	"net/http"
	"net/http/httptest"
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

// TestDecodeJSON: a body is one JSON value, optionally followed by
// whitespace; trailing data, unknown fields and oversized bodies answer
// 400.
func TestDecodeJSON(t *testing.T) {
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"value", `{"seed":"a"}`, true},
		{"trailing newline", "{\"seed\":\"a\"}\n", true},
		{"trailing whitespace", "{\"seed\":\"a\"} \r\n\t ", true},
		{"trailing garbage", `{"seed":"a"}garbage`, false},
		{"second value", `{"seed":"a"}{"seed":"b"}`, false},
		{"trailing close brace", `{"seed":"a"}}`, false},
		{"trailing number", `{"seed":"a"} 1`, false},
		{"unknown field", `{"seed":"a","x":1}`, false},
		{"empty", ``, false},
		{"over the limit", `{"seed":"` + strings.Repeat("a", 64) + `"}`, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var v struct {
				Seed string `json:"seed"`
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
			ok := DecodeJSON(rec, req, 32, &v)
			if ok != c.ok {
				t.Fatalf("DecodeJSON(%q) = %v, want %v", c.body, ok, c.ok)
			}
			if ok && v.Seed != "a" {
				t.Errorf("seed = %q, want a", v.Seed)
			}
			if !ok && rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", rec.Code)
			}
		})
	}
}
