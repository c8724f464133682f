package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/wideleak"
)

// smallSpec is a cheap study (one app, one probe chain) most tests use
// so the suite does not pay for full ten-app runs.
func smallSpec() wideleak.RunSpec {
	return wideleak.RunSpec{Seed: "serve-test", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// submit POSTs a spec and decodes the response, asserting the status.
func submit(t *testing.T, ts *httptest.Server, spec wideleak.RunSpec, wantStatus int) SubmitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("submit status = %d, want %d (body: %s)", resp.StatusCode, wantStatus, raw.String())
	}
	var sub SubmitResponse
	if wantStatus < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

// getStatus fetches one job's status document.
func getStatus(t *testing.T, ts *httptest.Server, id string) StudyStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s = %d", id, resp.StatusCode)
	}
	var st StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls a job until it leaves the live states.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) StudyStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return StudyStatus{}
}

// fetchTable downloads one rendering of a finished job's table.
func fetchTable(t *testing.T, ts *httptest.Server, id, format string) []byte {
	t.Helper()
	url := ts.URL + "/v1/studies/" + id + "/table"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table %s format=%q = %d (body: %s)", id, format, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// TestServer_EndToEndGolden is the acceptance path: submit the default
// study, poll to done, and every table rendering is byte-identical to
// the golden files the CLI is pinned to.
func TestServer_EndToEndGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 4})

	sub := submit(t, ts, wideleak.RunSpec{}, http.StatusAccepted)
	if sub.State != JobQueued || sub.Cached {
		t.Fatalf("fresh submission state = %s cached = %v", sub.State, sub.Cached)
	}

	st := waitTerminal(t, ts, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job state = %s, err = %s", st.State, st.Error)
	}
	if st.Rows != 10 {
		t.Errorf("rows = %d, want 10", st.Rows)
	}
	if st.Observations == 0 || st.Events == 0 {
		t.Errorf("cold run reported observations = %d, events = %d; want both > 0", st.Observations, st.Events)
	}

	for format, golden := range map[string]string{
		"txt":  "tableI_default.txt",
		"csv":  "tableI_default.csv",
		"json": "tableI_default.json",
	} {
		want, err := os.ReadFile(filepath.Join("..", "wideleak", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got := fetchTable(t, ts, sub.ID, format)
		if !bytes.Equal(got, want) {
			t.Errorf("format %s diverges from %s (got %d bytes, want %d)", format, golden, len(got), len(want))
		}
	}
	// The default format is txt.
	if got := fetchTable(t, ts, sub.ID, ""); !strings.HasPrefix(string(got), "TABLE I:") {
		t.Errorf("default format is not the text table: %.40q", got)
	}

	metrics := metricsText(t, ts)
	for _, want := range []string{
		"wideleakd_jobs_submitted_total 1",
		"wideleakd_cache_misses_total 1",
		"wideleakd_cache_hits_total 0",
		`wideleakd_jobs_total{state="done"} 1`,
		"wideleakd_queue_depth 0",
		"wideleakd_jobs_inflight 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The run produced probe timings.
	if !strings.Contains(metrics, "wideleakd_probe_wall_seconds_count") {
		t.Error("metrics missing probe wall histogram")
	}
}

// TestServer_QueueFullSheds: with one worker held and the queue full,
// the next submission is shed with 429 + Retry-After, and the shed
// counter moves. Draining the gate lets the backlog finish normally.
func TestServer_QueueFullSheds(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{Workers: 1, QueueSize: 1})
	srv.testHookJobStart = func(*Job) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	specA := smallSpec()
	specB := smallSpec()
	specB.Seed = "serve-test-b"
	specC := smallSpec()
	specC.Seed = "serve-test-c"

	a := submit(t, ts, specA, http.StatusAccepted) // worker grabs it, parks in the gate
	waitInFlight(t, srv, 1)
	b := submit(t, ts, specB, http.StatusAccepted) // fills the queue
	if a.ID == b.ID {
		t.Fatal("distinct specs coalesced")
	}

	body, _ := json.Marshal(specC)
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	close(gate)
	if st := waitTerminal(t, ts, a.ID); st.State != JobDone {
		t.Errorf("job A state = %s", st.State)
	}
	if st := waitTerminal(t, ts, b.ID); st.State != JobDone {
		t.Errorf("job B state = %s", st.State)
	}
	if metrics := metricsText(t, ts); !strings.Contains(metrics, "wideleakd_jobs_shed_total 1") {
		t.Error("shed counter did not move")
	}
}

// waitInFlight spins until the worker pool holds exactly n jobs.
func waitInFlight(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if int(srv.inFlight.Load()) == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never reached %d", n)
}

// TestServer_Coalesce: an identical spec submitted while the first copy
// is still in flight attaches to the live job instead of queuing twice.
func TestServer_Coalesce(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{Workers: 1, QueueSize: 2})
	srv.testHookJobStart = func(*Job) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	first := submit(t, ts, smallSpec(), http.StatusAccepted)
	second := submit(t, ts, smallSpec(), http.StatusAccepted)
	if !second.Coalesced || second.ID != first.ID {
		t.Fatalf("identical in-flight spec not coalesced: %+v vs %+v", second, first)
	}
	close(gate)
	if st := waitTerminal(t, ts, first.ID); st.State != JobDone {
		t.Fatalf("job state = %s", st.State)
	}
	if metrics := metricsText(t, ts); !strings.Contains(metrics, "wideleakd_jobs_coalesced_total 1") {
		t.Error("coalesced counter did not move")
	}
}

// TestServer_CancelQueued: a job cancelled before a worker reaches it
// terminalizes in place and the worker later skips it.
func TestServer_CancelQueued(t *testing.T) {
	gate := make(chan struct{})
	srv := New(Config{Workers: 1, QueueSize: 2})
	srv.testHookJobStart = func(*Job) { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	blocker := submit(t, ts, smallSpec(), http.StatusAccepted)
	waitInFlight(t, srv, 1)
	queuedSpec := smallSpec()
	queuedSpec.Seed = "serve-test-cancel"
	queued := submit(t, ts, queuedSpec, http.StatusAccepted)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	if st := getStatus(t, ts, queued.ID); st.State != JobCanceled {
		t.Fatalf("queued job state after cancel = %s", st.State)
	}

	// Cancelling a terminal job is a conflict.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+queued.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel status = %d, want 409", resp.StatusCode)
	}

	close(gate)
	if st := waitTerminal(t, ts, blocker.ID); st.State != JobDone {
		t.Errorf("blocker state = %s", st.State)
	}
	// The skipped job must not flip back to running or done.
	if st := getStatus(t, ts, queued.ID); st.State != JobCanceled {
		t.Errorf("cancelled job resurrected as %s", st.State)
	}
	// A cancel that lands while the job is queued still counts as a
	// canceled job, exactly once.
	if m := metricsText(t, ts); !strings.Contains(m, `wideleakd_jobs_total{state="canceled"} 1`) {
		t.Errorf("queued cancel not counted in wideleakd_jobs_total:\n%s", m)
	}
}

// TestServer_CancelRunning: cancelling an in-flight job aborts the build
// at the next probe boundary and the job lands in canceled.
func TestServer_CancelRunning(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 2})

	// The full default study is long enough to cancel mid-run.
	sub := submit(t, ts, wideleak.RunSpec{Seed: "serve-cancel-running"}, http.StatusAccepted)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, sub.ID).State != JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/studies/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	st := waitTerminal(t, ts, sub.ID)
	if st.State != JobCanceled {
		t.Fatalf("state after cancel = %s (err %q)", st.State, st.Error)
	}

	// The table is not available for a canceled job.
	resp, err = http.Get(ts.URL + "/v1/studies/" + sub.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("table of canceled job = %d, want 409", resp.StatusCode)
	}
}

// TestServer_ShutdownDrains: Shutdown refuses new work but runs every
// queued job to completion before returning.
func TestServer_ShutdownDrains(t *testing.T) {
	srv := New(Config{Workers: 1, QueueSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := submit(t, ts, smallSpec(), http.StatusAccepted)
	queuedSpec := smallSpec()
	queuedSpec.Seed = "serve-test-drain"
	second := submit(t, ts, queuedSpec, http.StatusAccepted)

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	for _, id := range []string{first.ID, second.ID} {
		if st := getStatus(t, ts, id); st.State != JobDone {
			t.Errorf("job %s drained to %s, want done", id, st.State)
		}
	}

	// Draining servers refuse new submissions and fail health checks.
	body, _ := json.Marshal(smallSpec())
	resp, err := http.Post(ts.URL+"/v1/studies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain healthz = %d, want 503", resp.StatusCode)
	}
}

// TestServer_BadRequests pins the API's error contract.
func TestServer_BadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/studies", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("{not json"); got != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", got)
	}
	if got := post(`{"bogus_field": 1}`); got != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", got)
	}
	if got := post(`{"probes": ["q9"]}`); got != http.StatusBadRequest {
		t.Errorf("unknown probe = %d, want 400", got)
	}
	if got := post(`{"profiles": ["NoSuchService"]}`); got != http.StatusBadRequest {
		t.Errorf("unknown app = %d, want 400", got)
	}
	if got := post(`{"faults": {"rate": 2}}`); got != http.StatusBadRequest {
		t.Errorf("bad fault rate = %d, want 400", got)
	}

	for _, path := range []string{"/v1/studies/nope", "/v1/studies/nope/table", "/v1/studies/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// Unknown format on a finished job is a 400.
	sub := submit(t, ts, smallSpec(), http.StatusAccepted)
	if st := waitTerminal(t, ts, sub.ID); st.State != JobDone {
		t.Fatalf("job state = %s", st.State)
	}
	resp, err := http.Get(ts.URL + "/v1/studies/" + sub.ID + "/table?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", resp.StatusCode)
	}
}

// TestServer_Events: the event log of a finished job is a JSON array of
// stamped events, and the SSE stream replays it then reports the
// terminal state.
func TestServer_Events(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})

	sub := submit(t, ts, smallSpec(), http.StatusAccepted)
	st := waitTerminal(t, ts, sub.ID)
	if st.State != JobDone {
		t.Fatalf("job state = %s", st.State)
	}

	resp, err := http.Get(ts.URL + "/v1/studies/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("event log is empty")
	}
	if len(events) != st.Events {
		t.Errorf("events endpoint returned %d events, status says %d", len(events), st.Events)
	}
	for i, ev := range events {
		if seq, _ := ev["seq"].(float64); int(seq) != i+1 {
			t.Fatalf("event %d has seq %v", i, ev["seq"])
		}
		if at, _ := ev["at"].(string); at == "" {
			t.Fatalf("event %d missing timestamp", i)
		}
	}

	// SSE replay of a finished job: the backlog then a done marker.
	sresp, err := http.Get(ts.URL + "/v1/studies/" + sub.ID + "/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if got := sresp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("stream content type = %q", got)
	}
	var stream bytes.Buffer
	stream.ReadFrom(sresp.Body)
	text := stream.String()
	if got := strings.Count(text, "data: "); got != len(events)+1 {
		t.Errorf("stream carried %d data frames, want %d events + done", got, len(events))
	}
	if !strings.Contains(text, fmt.Sprintf("event: done\ndata: {\"state\":%q}", JobDone)) {
		t.Errorf("stream missing done frame:\n%s", text)
	}
}

// TestServer_List: the index lists jobs newest first.
func TestServer_List(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	a := submit(t, ts, smallSpec(), http.StatusAccepted)
	waitTerminal(t, ts, a.ID)
	otherSpec := smallSpec()
	otherSpec.Seed = "serve-test-list"
	b := submit(t, ts, otherSpec, http.StatusAccepted)
	waitTerminal(t, ts, b.ID)

	resp, err := http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != b.ID || list[1].ID != a.ID {
		t.Fatalf("list = %+v, want [%s %s]", list, b.ID, a.ID)
	}
}

// TestServer_JobRetention: past the job-table bound, registering a job
// drops the oldest terminal record, whose ID then answers 410 on every
// endpoint. An ID the server never issued answers 404, and a live job
// is never dropped, however many terminal ones come after it.
func TestServer_JobRetention(t *testing.T) {
	const bound = 3
	liveSpec := smallSpec()
	liveSpec.Seed = "serve-test-retention-live"
	gate := make(chan struct{})
	srv := New(Config{Workers: 1, QueueSize: 4})
	srv.jobs = newJobTable(bound)
	srv.testHookJobStart = func(j *Job) {
		if j.Specs[0].Seed == liveSpec.Seed {
			<-gate
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	status := func(method, path string) int {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	first := submit(t, ts, smallSpec(), http.StatusAccepted)
	waitTerminal(t, ts, first.ID)
	live := submit(t, ts, liveSpec, http.StatusAccepted)
	waitInFlight(t, srv, 1)
	var hits []string
	for i := 0; i < bound; i++ {
		hits = append(hits, submit(t, ts, smallSpec(), http.StatusOK).ID)
	}

	// Records in submission order: first, live, hits[0..2]. Two terminal
	// ones had to go: first, then hits[0], skipping the live job.
	for _, id := range []string{first.ID, hits[0]} {
		for _, path := range []string{"", "/table", "/events", "/events?stream=1"} {
			if got := status(http.MethodGet, "/v1/studies/"+id+path); got != http.StatusGone {
				t.Errorf("GET %s%s = %d, want 410", id, path, got)
			}
		}
		if got := status(http.MethodDelete, "/v1/studies/"+id); got != http.StatusGone {
			t.Errorf("DELETE %s = %d, want 410", id, got)
		}
	}
	if st := getStatus(t, ts, live.ID); st.State.terminal() {
		t.Errorf("live job %s is %s, want it live and held", live.ID, st.State)
	}
	for _, id := range hits[1:] {
		if got := status(http.MethodGet, "/v1/studies/"+id+"/table"); got != http.StatusOK {
			t.Errorf("GET %s/table = %d, want 200", id, got)
		}
	}
	for _, path := range []string{"/v1/studies/s999999-00000000", "/v1/studies/x000001",
		"/v1/batches/b000001", "/v1/batches/" + hits[1]} {
		if got := status(http.MethodGet, path); got != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, got)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	var list []StudyStatus
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, st := range list {
		ids = append(ids, st.ID)
	}
	if want := []string{hits[2], hits[1], live.ID}; !slices.Equal(ids, want) {
		t.Errorf("listing = %v, want %v", ids, want)
	}

	close(gate)
	if st := waitTerminal(t, ts, live.ID); st.State != JobDone {
		t.Errorf("live job ended %s", st.State)
	}
}
