// Package httpkit is the small HTTP and metrics toolkit shared by the
// study daemon (internal/serve) and the fleet router (internal/fleet):
// the HTTP server with its read limits, JSON responses, strict JSON
// request bodies, server-sent-event frames, and hand-rolled Prometheus
// text exposition. It is stdlib-only.
package httpkit

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Read limits of every HTTP server in the repository. A client must
// finish its request headers within ReadHeaderTimeout, and a kept-alive
// connection is closed after IdleTimeout without a request (longer than
// the 90 s after which Go's default client transport drops an idle
// connection itself). There is no write timeout: event streams stay
// open for as long as their job runs.
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewServer returns an HTTP server for h with the read limits set.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the API's error shape: {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}

// DecodeJSON decodes a request body of at most limit bytes into v,
// rejecting unknown fields and anything but whitespace after the one JSON
// value. On failure it answers 400 and reports false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		WriteError(w, http.StatusBadRequest, "bad request body: data after the JSON value")
		return false
	}
	return true
}

// EventStream writes server-sent events, flushing after every frame.
type EventStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
}

// NewEventStream answers 200 with the event-stream headers. When the
// writer cannot flush it answers 501 instead and reports false.
func NewEventStream(w http.ResponseWriter) (*EventStream, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusNotImplemented, "streaming unsupported")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	return &EventStream{w: w, flusher: flusher}, true
}

// Send writes one `event: <event>` frame carrying data (one line of JSON).
func (s *EventStream) Send(event string, data []byte) error {
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return err
	}
	s.flusher.Flush()
	return nil
}

// Done writes the closing `event: done` frame with the terminal state.
func (s *EventStream) Done(state string) error {
	return s.Send("done", []byte(fmt.Sprintf("{\"state\":%q}", state)))
}

// WriteMetrics serves a rendered Prometheus text page.
func WriteMetrics(w http.ResponseWriter, text string) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, text)
}

// Family writes one metric family's HELP and TYPE lines.
func Family(b *strings.Builder, name, help, typ string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabeled counter family.
func Counter(b *strings.Builder, name, help string, v int64) {
	Family(b, name, help, "counter")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

// Gauge writes an unlabeled gauge family.
func Gauge(b *strings.Builder, name, help string, v int64) {
	Family(b, name, help, "gauge")
	fmt.Fprintf(b, "%s %d\n", name, v)
}

// Labeled writes a family of type typ with one sample per label value,
// label values in sorted order.
func Labeled(b *strings.Builder, typ, name, help, label string, values map[string]int64) {
	Family(b, name, help, typ)
	for _, k := range SortedKeys(values) {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, k, values[k])
	}
}

// SortedKeys returns a map's keys in ascending order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Histogram is a fixed-bucket Prometheus histogram. It is not
// synchronized: callers hold their metrics lock around Observe and
// Render.
type Histogram struct {
	bounds []float64 // upper bounds, ascending
	counts []uint64  // per-bucket (non-cumulative)
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over ascending upper bounds; an
// implicit +Inf bucket catches the rest.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.sum += v
	h.count++
	for i, bound := range h.bounds {
		if v <= bound {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++ // +Inf bucket
}

// Render writes the histogram family with cumulative buckets.
func (h *Histogram) Render(b *strings.Builder, name, help string) {
	Family(b, name, help, "histogram")
	cumulative := uint64(0)
	for i, bound := range h.bounds {
		cumulative += h.counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, TrimFloat(bound), cumulative)
	}
	cumulative += h.counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cumulative)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.count)
}

// TrimFloat renders a bucket bound the way Prometheus clients do: the
// shortest decimal form, no exponent for these magnitudes.
func TrimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
