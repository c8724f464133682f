package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wideleak"
)

// stallWriter is a streaming ResponseWriter whose first Write blocks
// until release returns — a client that stops reading while the job
// keeps producing frames. headerDone is closed once the handler has
// answered with its status line.
type stallWriter struct {
	header     http.Header
	headerDone chan struct{}
	release    func()
	once       sync.Once
	buf        bytes.Buffer
}

func newStallWriter(release func()) *stallWriter {
	return &stallWriter{header: make(http.Header), headerDone: make(chan struct{}), release: release}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     { close(w.headerDone) }
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(w.release)
	return w.buf.Write(p)
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	data  string
}

func parseSSE(t *testing.T, raw []byte) []sseFrame {
	t.Helper()
	var frames []sseFrame
	event := ""
	scanner := bufio.NewScanner(bytes.NewReader(raw))
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			frames = append(frames, sseFrame{event: event, data: strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// streamStalled submits nothing itself: it opens path (an SSE endpoint
// of the job at statusPath) through a writer that stalls on its first
// frame until the job is terminal, lets the gated worker start the job,
// and returns every frame the handler wrote.
func streamStalled(t *testing.T, srv *Server, ts *httptest.Server, gate chan struct{}, path, statusPath string) []sseFrame {
	t.Helper()
	release := func() {
		// Not t.Fatal: this runs on the handler's goroutine.
		deadline := time.Now().Add(120 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(ts.URL + statusPath)
			if err != nil {
				return
			}
			var st struct {
				State JobState `json:"state"`
			}
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if st.State.terminal() {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	w := newStallWriter(release)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	}()
	<-w.headerDone
	time.Sleep(20 * time.Millisecond) // let the handler start waiting for frames
	close(gate)
	select {
	case <-served:
	case <-time.After(150 * time.Second):
		t.Fatal("stalled stream never finished")
	}
	return parseSSE(t, w.buf.Bytes())
}

// gatedServer is a one-worker server whose worker holds every job until
// the returned gate is closed.
func gatedServer(t *testing.T) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	srv := New(Config{Workers: 1, QueueSize: 4})
	srv.testHookJobStart = func(*Job) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts, gate
}

// TestServer_StalledRowsConsumer: a batch's row stream read by a client
// that stalls on the first frame until the batch is done still carries
// every row, Seq 1..N with no gap, then the done frame.
func TestServer_StalledRowsConsumer(t *testing.T) {
	srv, ts, gate := gatedServer(t)

	const n = 300
	specs := make([]wideleak.RunSpec, n)
	for i := range specs {
		specs[i] = smallSpec()
	}
	sub := submitBatch(t, ts, specs, http.StatusAccepted)
	frames := streamStalled(t, srv, ts, gate, "/v1/batches/"+sub.ID+"/rows?stream=1", "/v1/batches/"+sub.ID)

	var rows []Row
	for _, f := range frames {
		if f.event != "row" {
			continue
		}
		var row Row
		if err := json.Unmarshal([]byte(f.data), &row); err != nil {
			t.Fatalf("bad row frame %q: %v", f.data, err)
		}
		rows = append(rows, row)
	}
	if len(rows) != n {
		t.Fatalf("stalled consumer got %d rows, want %d", len(rows), n)
	}
	for i, row := range rows {
		if row.Seq != int64(i+1) {
			t.Fatalf("row frame %d has Seq %d, want %d", i, row.Seq, i+1)
		}
	}
	last := frames[len(frames)-1]
	if last.event != "done" || last.data != fmt.Sprintf("{\"state\":%q}", JobDone) {
		t.Errorf("stream ended with %+v, want the done frame", last)
	}
}

// TestServer_StalledEventsConsumer: the same contract for a study's
// event stream — a run logging more events than any fixed buffer would
// hold reaches a stalled client whole, seq 1..N, matching its status.
func TestServer_StalledEventsConsumer(t *testing.T) {
	srv, ts, gate := gatedServer(t)

	// Three apps at a 95% transient fault rate log ~350 events, most of
	// them masked retries.
	spec := wideleak.RunSpec{
		Seed:     "stall",
		Profiles: []string{"Netflix", "Showtime", "Salto"},
		Faults:   &wideleak.RunFaults{Rate: 0.95},
	}
	sub := submit(t, ts, spec, http.StatusAccepted)
	frames := streamStalled(t, srv, ts, gate, "/v1/studies/"+sub.ID+"/events?stream=1", "/v1/studies/"+sub.ID)

	st := getStatus(t, ts, sub.ID)
	if st.State != JobDone {
		t.Fatalf("study ended %s: %s", st.State, st.Error)
	}
	if st.Events <= 256 {
		t.Fatalf("study logged only %d events; the test needs more than a 256-slot buffer", st.Events)
	}
	events := frames[:len(frames)-1]
	if len(events) != st.Events {
		t.Fatalf("stalled consumer got %d events, status says %d", len(events), st.Events)
	}
	for i, f := range events {
		var ev struct {
			Seq int64 `json:"seq"`
		}
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("bad event frame %q: %v", f.data, err)
		}
		if ev.Seq != int64(i+1) {
			t.Fatalf("event frame %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Errorf("stream ended with %+v, want the done frame", last)
	}
}

// TestServer_CancelQueuedBatch: a batch cancelled while it waits behind
// another job is counted in wideleakd_batches_total, exactly once.
func TestServer_CancelQueuedBatch(t *testing.T) {
	srv, ts, gate := gatedServer(t)
	defer close(gate)

	// The first batch (the full default study) holds the only worker.
	first := submitBatch(t, ts, []wideleak.RunSpec{{Seed: "cancel-queued-batch"}}, http.StatusAccepted)
	deadline := time.Now().Add(10 * time.Second)
	for srv.inFlight.Load() != 1 && getBatchStatus(t, ts, first.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("first batch never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submitBatch(t, ts, []wideleak.RunSpec{smallSpec()}, http.StatusAccepted)

	cancel := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/batches/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := cancel(queued.ID); got != http.StatusAccepted {
		t.Fatalf("cancel status = %d", got)
	}
	if st := getBatchStatus(t, ts, queued.ID); st.State != JobCanceled {
		t.Fatalf("queued batch state after cancel = %s", st.State)
	}
	if got := cancel(queued.ID); got != http.StatusConflict {
		t.Errorf("double cancel status = %d, want 409", got)
	}
	if m := metricsText(t, ts); !strings.Contains(m, `wideleakd_batches_total{state="canceled"} 1`) {
		t.Errorf("queued batch cancel not counted in wideleakd_batches_total:\n%s", m)
	}
	cancel(first.ID) // do not run the full study on the way out
}
