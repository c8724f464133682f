package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wideleak"
)

// submitBatch POSTs a batch request and decodes the response.
func submitBatch(t *testing.T, ts *httptest.Server, specs []wideleak.RunSpec, wantStatus int) BatchSubmitResponse {
	t.Helper()
	body, err := json.Marshal(map[string]any{"specs": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("batch submit status = %d, want %d (body: %s)", resp.StatusCode, wantStatus, raw.String())
	}
	var sub BatchSubmitResponse
	if wantStatus < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub
}

// getBatchStatus fetches one batch's status document.
func getBatchStatus(t *testing.T, ts *httptest.Server, id string) BatchStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/batches/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %s = %d", id, resp.StatusCode)
	}
	var st BatchStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitBatchTerminal polls a batch until it leaves the live states.
func waitBatchTerminal(t *testing.T, ts *httptest.Server, id string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getBatchStatus(t, ts, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("batch %s never finished", id)
	return BatchStatus{}
}

// fetchBatchTable downloads one spec's table from a finished batch.
func fetchBatchTable(t *testing.T, ts *httptest.Server, id string, spec int, format string) []byte {
	t.Helper()
	url := fmt.Sprintf("%s/v1/batches/%s/tables/%d", ts.URL, id, spec)
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
		t.Fatalf("batch table %s/%d format=%q = %d (body: %s)", id, spec, format, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// freshEncoded runs one spec from scratch (no server, no caches) and
// encodes its table — the ground truth batch responses must match.
func freshEncoded(t *testing.T, spec wideleak.RunSpec, format string) []byte {
	t.Helper()
	c, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	study, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	table, err := study.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := table.Encode(format)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServer_BatchEndToEnd: three overlapping specs submitted as one
// batch share a single world and their overlapping cells, yet every
// per-spec table is byte-identical to a fresh standalone run.
func TestServer_BatchEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	specs := []wideleak.RunSpec{
		{Seed: "batch-e2e", Profiles: []string{"Showtime", "Netflix"}},
		{Seed: "batch-e2e", Profiles: []string{"Showtime", "Netflix"}, Probes: []string{"q2", "q3"}},
		{Seed: "batch-e2e", Profiles: []string{"Showtime"}, Probes: []string{"q1"}},
	}
	sub := submitBatch(t, ts, specs, 202)
	if sub.Specs != 3 {
		t.Fatalf("submit specs = %d, want 3", sub.Specs)
	}
	st := waitBatchTerminal(t, ts, sub.ID)
	if st.State != JobDone {
		t.Fatalf("batch ended %s: %s", st.State, st.Error)
	}
	if st.RowsDone != 5 {
		t.Errorf("rows done = %d, want 5 (2+2+1)", st.RowsDone)
	}
	if len(st.TableURLs) != 3 {
		t.Fatalf("table urls = %d, want 3", len(st.TableURLs))
	}

	// Sharing actually happened: one world for all three specs, and the
	// subset specs' cells were planned once, not per spec.
	if st.Stats.WorldsBuilt != 1 {
		t.Errorf("worlds built = %d, want 1", st.Stats.WorldsBuilt)
	}
	if st.Stats.CellsPlanned >= st.Stats.CellsNeeded {
		t.Errorf("cells planned = %d, needed = %d: no dedup", st.Stats.CellsPlanned, st.Stats.CellsNeeded)
	}

	// Byte identity against fresh standalone runs, every format.
	for i, spec := range specs {
		for _, format := range wideleak.TableFormats() {
			got := fetchBatchTable(t, ts, sub.ID, i, format)
			want := freshEncoded(t, spec, format)
			if !bytes.Equal(got, want) {
				t.Errorf("spec %d format %s: batch table differs from fresh run\ngot:\n%s\nwant:\n%s", i, format, got, want)
			}
		}
	}

	// The rows endpoint has every (spec, app) exactly once, Seq 1..5.
	resp, err := http.Get(ts.URL + "/v1/batches/" + sub.ID + "/rows")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []Row
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	seen := make(map[string]bool)
	for i, row := range rows {
		if row.Seq != int64(i+1) {
			t.Errorf("row %d Seq = %d, want %d", i, row.Seq, i+1)
		}
		key := fmt.Sprintf("%d/%s", row.Spec, row.App)
		if seen[key] {
			t.Errorf("row %s delivered twice", key)
		}
		seen[key] = true
		if row.Err == "" && len(row.Cells) == 0 {
			t.Errorf("row %s has neither cells nor an error", key)
		}
	}

	// The batch shows up in the listing.
	listResp, err := http.Get(ts.URL + "/v1/batches")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listed []BatchStatus
	if err := json.NewDecoder(listResp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].ID != sub.ID {
		t.Errorf("batch list = %+v, want the one batch", listed)
	}
}

// TestServer_BatchRowsSSE pins the streaming contract: a client that
// connects while the batch is live sees every row exactly once as an
// `event: row` frame, Seq strictly ascending from 1 with no gaps
// (backlog replay and live delivery never duplicate or reorder), then
// a final `event: done` with the terminal state. Run under -race this
// also exercises appendRow/subscribeRows interleaving.
func TestServer_BatchRowsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	specs := []wideleak.RunSpec{
		{Seed: "batch-sse", Profiles: []string{"Showtime", "Netflix"}, Probes: []string{"q2"}},
		{Seed: "batch-sse", Profiles: []string{"Showtime", "Netflix"}, Probes: []string{"q2", "q3"}},
	}
	sub := submitBatch(t, ts, specs, 202)

	// Connect immediately — typically mid-run, so the stream crosses the
	// backlog→live handoff.
	resp, err := http.Get(ts.URL + "/v1/batches/" + sub.ID + "/rows?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	var (
		rows      []Row
		doneState string
		event     string
	)
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "row":
				var row Row
				if err := json.Unmarshal([]byte(data), &row); err != nil {
					t.Fatalf("bad row frame %q: %v", data, err)
				}
				rows = append(rows, row)
			case "done":
				var fin struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &fin); err != nil {
					t.Fatalf("bad done frame %q: %v", data, err)
				}
				doneState = fin.State
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	if doneState != string(JobDone) {
		t.Errorf("done state = %q, want %q", doneState, JobDone)
	}
	if len(rows) != 4 {
		t.Fatalf("streamed %d rows, want 4", len(rows))
	}
	seen := make(map[string]bool)
	for i, row := range rows {
		if row.Seq != int64(i+1) {
			t.Errorf("frame %d Seq = %d, want %d (ordering/duplication bug)", i, row.Seq, i+1)
		}
		key := fmt.Sprintf("%d/%s", row.Spec, row.App)
		if seen[key] {
			t.Errorf("row %s streamed twice", key)
		}
		seen[key] = true
	}
	for spec := range specs {
		for _, app := range []string{"Showtime", "Netflix"} {
			if !seen[fmt.Sprintf("%d/%s", spec, app)] {
				t.Errorf("row %d/%s never streamed", spec, app)
			}
		}
	}
}

// TestServer_CellRecombination: after a full run primes the cell tier,
// a probe-subset job is reassembled purely from memoized cells — zero
// observations, zero new keys, no world built or restored — and still
// serves bytes identical to a fresh run.
func TestServer_CellRecombination(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})
	pool := wideleak.SharedKeyPool("cell-tier")

	full := wideleak.RunSpec{Seed: "cell-tier", Profiles: []string{"Showtime"}}
	if st := waitTerminal(t, ts, submit(t, ts, full, 202).ID); st.State != JobDone {
		t.Fatalf("full job ended %s: %s", st.State, st.Error)
	}
	minted := pool.Minted()

	subset := wideleak.RunSpec{Seed: "cell-tier", Profiles: []string{"Showtime"}, Probes: []string{"q2", "q3"}}
	st := waitTerminal(t, ts, submit(t, ts, subset, 202).ID)
	if st.State != JobDone {
		t.Fatalf("subset job ended %s: %s", st.State, st.Error)
	}
	if st.CellCache != "hit" {
		t.Errorf("cell_cache = %q, want \"hit\"", st.CellCache)
	}
	if st.Observations != 0 {
		t.Errorf("subset ran %d observations, want 0 (pure recombination)", st.Observations)
	}
	if got := pool.Minted(); got != minted {
		t.Errorf("subset minted %d new keys, want 0", got-minted)
	}

	m := metricsText(t, ts)
	if got := counterValue(t, m, "wideleakd_jobs_cell_recombined_total"); got != "1" {
		t.Errorf("cell recombined jobs = %s, want 1", got)
	}
	if got := counterValue(t, m, "wideleakd_cells_executed_total"); got == "0" {
		t.Error("cells executed = 0: the full run never populated the counter")
	}

	got := fetchTable(t, ts, st.ID, "json")
	want := freshEncoded(t, subset, "json")
	if !bytes.Equal(got, want) {
		t.Errorf("recombined table differs from fresh run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestServer_BatchValidation covers the unhappy paths.
func TestServer_BatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	// Empty batch and malformed specs are rejected up front.
	submitBatch(t, ts, nil, 400)
	submitBatch(t, ts, []wideleak.RunSpec{{Probes: []string{"nope"}}}, 400)

	// Unknown batch IDs 404 everywhere.
	for _, path := range []string{"/v1/batches/b999999", "/v1/batches/b999999/rows", "/v1/batches/b999999/tables/0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	// Tables of a live batch conflict; out-of-range spec indexes 404.
	sub := submitBatch(t, ts, []wideleak.RunSpec{smallSpec()}, 202)
	if st := waitBatchTerminal(t, ts, sub.ID); st.State != JobDone {
		t.Fatalf("batch ended %s: %s", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/batches/" + sub.ID + "/tables/7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range table = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/batches/" + sub.ID + "/tables/0?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format = %d, want 400", resp.StatusCode)
	}
}

// TestServer_BatchDeviceAxis pins the device axis through the service
// layer: specs carrying a device set execute over exactly those cells,
// the status document reports the per-profile cell counts, the metrics
// endpoint exposes them as wideleakd_device_cells_total, device-set
// order never splits the cache, and unknown profiles are rejected up
// front.
func TestServer_BatchDeviceAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 4})

	// Unknown device profiles fail validation at submit time.
	submitBatch(t, ts, []wideleak.RunSpec{
		{Seed: "device-axis", Profiles: []string{"Showtime"}, Devices: []string{"warpphone"}},
	}, 400)

	// Two specs over the same non-default device pair, submitted in
	// different orders: canonicalization must collapse them onto one
	// world, and a third over the default trio builds its own.
	specs := []wideleak.RunSpec{
		{Seed: "device-axis", Profiles: []string{"Showtime"}, Probes: []string{"q2"}, Devices: []string{"l3", "pixel"}},
		{Seed: "device-axis", Profiles: []string{"Showtime"}, Probes: []string{"q2"}, Devices: []string{"pixel", "l3"}},
		{Seed: "device-axis", Profiles: []string{"Showtime"}, Probes: []string{"q2"}},
	}
	sub := submitBatch(t, ts, specs, 202)
	st := waitBatchTerminal(t, ts, sub.ID)
	if st.State != JobDone {
		t.Fatalf("batch ended %s: %s", st.State, st.Error)
	}
	if st.Stats.WorldsBuilt != 2 {
		t.Errorf("worlds built = %d, want 2 (device pair + default trio)", st.Stats.WorldsBuilt)
	}

	// The status document carries the device-cell dimension: each built
	// world manufactured one cell per (device, app).
	want := map[string]int{"pixel": 2, "l3": 2, "nexus5": 1}
	for profile, n := range want {
		if got := st.Stats.DeviceCells[profile]; got != n {
			t.Errorf("device cells[%s] = %d, want %d", profile, got, n)
		}
	}
	if len(st.Stats.DeviceCells) != len(want) {
		t.Errorf("device cells = %v, want exactly %v", st.Stats.DeviceCells, want)
	}

	// The same counts reach /metrics, labeled per profile.
	m := metricsText(t, ts)
	for profile, n := range want {
		line := fmt.Sprintf("wideleakd_device_cells_total{profile=%q} %d", profile, n)
		if !strings.Contains(m, line) {
			t.Errorf("metrics missing %q", line)
		}
	}

	// Device-set provenance: the canonical specs echo registry order.
	for i := 0; i < 2; i++ {
		if got := fmt.Sprint(st.Specs[i].Devices); got != "[pixel l3]" {
			t.Errorf("spec %d canonical devices = %s, want [pixel l3]", i, got)
		}
	}

	// Byte identity against a fresh standalone run of the device spec.
	got := fetchBatchTable(t, ts, sub.ID, 0, "txt")
	if !bytes.Equal(got, freshEncoded(t, specs[0], "txt")) {
		t.Errorf("device-axis batch table differs from fresh run:\n%s", got)
	}
}
