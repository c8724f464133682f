package wideleak

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/ott"
	"repro/internal/wideleak/probe"
)

// golden reads one pinned pre-refactor output from testdata.
func golden(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// profilesNamed selects a subset of the paper's apps by name.
func profilesNamed(t *testing.T, names ...string) []ott.Profile {
	t.Helper()
	var out []ott.Profile
	for _, name := range names {
		found := false
		for _, p := range ott.Profiles() {
			if p.Name == name {
				out = append(out, p)
				found = true
			}
		}
		if !found {
			t.Fatalf("no profile %q", name)
		}
	}
	return out
}

// TestProbePipeline_DefaultGolden pins the registry-driven pipeline to the
// exact bytes the pre-registry engine produced for the default full-probe
// run (seed "default"): rendered table + insights, CSV, and indented JSON,
// under both the sequential and the parallel builder.
func TestProbePipeline_DefaultGolden(t *testing.T) {
	w, err := NewWorld("default", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)

	for _, parallelism := range []int{1, 8} {
		s.Concurrency = parallelism
		table, err := s.BuildTable()
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		text := table.Render() + "\n" + table.Summarize().Render()
		if want := golden(t, "tableI_default.txt"); text != want {
			t.Errorf("parallelism %d: text output diverged from pre-refactor golden:\n%s", parallelism, text)
		}
		csvOut, err := table.MarshalCSV()
		if err != nil {
			t.Fatal(err)
		}
		if want := golden(t, "tableI_default.csv"); string(csvOut) != want {
			t.Errorf("parallelism %d: CSV diverged from pre-refactor golden:\n%s", parallelism, csvOut)
		}
		jsonOut, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want := golden(t, "tableI_default.json"); string(jsonOut)+"\n" != want {
			t.Errorf("parallelism %d: JSON diverged from pre-refactor golden:\n%s", parallelism, jsonOut)
		}
	}
}

// TestProbeSelection_SubsetSkipsWork: selecting q2+q3 runs only the shared
// observation playbacks — no Nexus 5 (Q4) work at all — and renders only
// the selected probes' columns.
func TestProbeSelection_SubsetSkipsWork(t *testing.T) {
	w, err := NewWorld("subset", profilesNamed(t, "Netflix", "Amazon Prime Video", "Showtime"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)
	s.Concurrency = 1
	s.Probes = []string{"q2", "q3"}
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}

	if got := s.Observations(); got != 3 {
		t.Errorf("observations = %d, want 3 (one per app)", got)
	}
	if got := s.LegacyPlaybacks(); got != 0 {
		t.Errorf("legacy playbacks = %d, want 0 (q4 not selected)", got)
	}

	out := table.Render()
	for _, want := range []string{"Video", "Audio", "Subtitles", "Key Usage"} {
		if !strings.Contains(out, want) {
			t.Errorf("subset render missing column %q:\n%s", want, out)
		}
	}
	for _, forbidden := range []string{"Widevine", "Playback on L3 legacy", "Licensing"} {
		if strings.Contains(out, forbidden) {
			t.Errorf("subset render contains unselected column %q:\n%s", forbidden, out)
		}
	}
	for _, r := range table.Rows {
		if r.Q1() != nil || r.Q4() != nil || r.Q5() != nil {
			t.Errorf("%s: row carries results for unselected probes", r.App)
		}
		if r.Q2() == nil || r.Q3() == nil {
			t.Errorf("%s: row missing selected results", r.App)
		}
	}
}

// TestProbeSelection_DependencyPulled: selecting only q3 runs q2 as a
// dependency (the observation still happens) but renders only q3's column.
func TestProbeSelection_DependencyPulled(t *testing.T) {
	w, err := NewWorld("dep-pull", profilesNamed(t, "Showtime"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)
	s.Concurrency = 1
	s.Probes = []string{"q3"}
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	out := table.Render()
	if !strings.Contains(out, "Key Usage") {
		t.Errorf("render missing Key Usage:\n%s", out)
	}
	for _, forbidden := range []string{"Video", "Audio", "Subtitles", "Widevine"} {
		if strings.Contains(out, forbidden) {
			t.Errorf("render contains dependency column %q:\n%s", forbidden, out)
		}
	}
	row := table.Rows[0]
	if row.Result("q2") != nil {
		t.Error("dependency result leaked onto the row")
	}
	if row.Q3() == nil || row.Q3().Usage != KeyUsageMinimum {
		t.Errorf("q3 = %+v", row.Q3())
	}
}

// TestProbeQ5_LicenseCaching runs the opt-in fifth probe over a mixed set:
// caching apps (Disney+, Amazon) replay without any LoadKeys call, the
// rest re-license per playback.
func TestProbeQ5_LicenseCaching(t *testing.T) {
	w, err := NewWorld("q5", profilesNamed(t, "Netflix", "Disney+", "Amazon Prime Video", "Showtime"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)
	s.Concurrency = 1
	s.Probes = []string{"q5"}
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]LicensePolicy{
		"Netflix":            LicensePerPlayback,
		"Disney+":            LicenseCached,
		"Amazon Prime Video": LicenseCached,
		"Showtime":           LicensePerPlayback,
	}
	for _, r := range table.Rows {
		q5 := r.Q5()
		if q5 == nil {
			t.Errorf("%s: no q5 result", r.App)
			continue
		}
		if q5.Policy != want[r.App] {
			t.Errorf("%s: policy = %v (replay LoadKeys = %d), want %v",
				r.App, q5.Policy, q5.ReplayLoadKeys, want[r.App])
		}
	}
	out := table.Render()
	if !strings.Contains(out, "Licensing") || !strings.Contains(out, "cached") || !strings.Contains(out, "per-playback") {
		t.Errorf("q5 render:\n%s", out)
	}
	if got := s.LegacyPlaybacks(); got != 0 {
		t.Errorf("legacy playbacks = %d, want 0", got)
	}
}

// TestExporterParity: CSV and JSON must carry the same cells for the same
// table — including Err-annotated rows — with both column sets derived
// from the registry.
func TestExporterParity(t *testing.T) {
	table := PaperTable()
	table.Rows = append(table.Rows, Row{App: "DeadCo", Err: "netsim: retries exhausted: 5 attempts"})

	jsonOut, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var jsonRows []map[string]any
	if err := json.Unmarshal(jsonOut, &jsonRows); err != nil {
		t.Fatal(err)
	}
	csvOut, err := table.MarshalCSV()
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}

	if len(records) != len(jsonRows)+1 {
		t.Fatalf("csv records = %d, json rows = %d", len(records), len(jsonRows))
	}
	header := records[0]
	fields := exportFields(table.probeIDs())
	if len(header) != len(fields)+2 {
		t.Fatalf("csv header = %v, want app + %d fields + error", header, len(fields))
	}

	// Map each CSV column to its JSON key and compare every cell.
	jsonKeys := []string{"app"}
	for _, f := range fields {
		jsonKeys = append(jsonKeys, f.JSON)
	}
	jsonKeys = append(jsonKeys, "error")
	for i, rec := range records[1:] {
		for col, cell := range rec {
			v, ok := jsonRows[i][jsonKeys[col]]
			if !ok {
				// omitempty: an absent JSON error key must pair with an
				// empty CSV cell.
				if jsonKeys[col] == "error" && cell == "" {
					continue
				}
				t.Errorf("row %d: JSON missing key %q present in CSV", i, jsonKeys[col])
				continue
			}
			var asString string
			switch val := v.(type) {
			case bool:
				asString = fmt.Sprintf("%t", val)
			default:
				asString = fmt.Sprint(val)
			}
			if asString != cell {
				t.Errorf("row %d col %s: csv %q != json %q", i, header[col], cell, asString)
			}
		}
	}
}

// TestTableDiff_Subsets pins Diff's column-set reporting: a probe selected
// on one side only surfaces as added/removed columns, and shared probes
// still compare cell by cell.
func TestTableDiff_Subsets(t *testing.T) {
	fullRow := func(app string) Row {
		return paperRow(app, false, ProtectionEncrypted, ProtectionClear, ProtectionClear, KeyUsageMinimum, LegacyPlays)
	}
	subsetRow := func(app string, audio Protection) Row {
		return NewRow(app,
			&Q2Result{App: app, Video: ProtectionEncrypted, Audio: audio, Subtitles: ProtectionClear},
			&Q3Result{App: app, Usage: KeyUsageMinimum},
		)
	}
	cases := []struct {
		name string
		a, b *Table
		want []string
	}{
		{
			name: "identical subsets",
			a:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			b:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			want: nil,
		},
		{
			name: "subset vs full reports columns once",
			a:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			b:    &Table{Rows: []Row{fullRow("X")}},
			want: []string{
				"column widevine: only in other table",
				"column legacy: only in other table",
			},
		},
		{
			name: "full vs subset reports removed columns",
			a:    &Table{Rows: []Row{fullRow("X")}},
			b:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			want: []string{
				"column widevine: missing from other table",
				"column legacy: missing from other table",
			},
		},
		{
			name: "shared probe mismatch still detected",
			a:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			b:    &Table{Rows: []Row{fullRow("X"), fullRow("Y")}},
			want: []string{
				"column widevine: only in other table",
				"column legacy: only in other table",
			},
		},
		{
			name: "value mismatch in shared probe",
			a:    &Table{Rows: []Row{subsetRow("X", ProtectionEncrypted)}},
			b:    &Table{Rows: []Row{subsetRow("X", ProtectionClear)}},
			want: []string{"X/audio: Encrypted != Clear"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.a.Diff(tc.b)
			if len(got) != len(tc.want) {
				t.Fatalf("diff = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("diff[%d] = %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestRunEvents: the structured event stream brackets every probe run and
// surfaces masked transport retries with host attribution and virtual-
// clock accounting.
func TestRunEvents(t *testing.T) {
	w, err := NewWorld("events", profilesNamed(t, "Showtime"))
	if err != nil {
		t.Fatal(err)
	}
	w.InstallFaults(FaultSpec{Seed: "evt", Default: TransientFaults(0.3)})
	s := NewStudy(w)
	s.Concurrency = 1
	var log probe.Log
	s.SetEventSink(log.Record)
	if _, err := s.BuildTable(); err != nil {
		t.Fatal(err)
	}

	started := log.ByKind(probe.EventProbeStarted)
	finished := log.ByKind(probe.EventProbeFinished)
	if len(started) != 4 || len(finished) != 4 {
		t.Fatalf("started = %d, finished = %d, want 4 each", len(started), len(finished))
	}
	seen := make(map[string]bool)
	for _, ev := range finished {
		seen[ev.Probe] = true
		if ev.App != "Showtime" {
			t.Errorf("event app = %q", ev.App)
		}
	}
	for _, id := range []string{"q1", "q2", "q3", "q4"} {
		if !seen[id] {
			t.Errorf("no finished event for %s", id)
		}
	}

	retries := log.ByKind(probe.EventRetry)
	if len(retries) == 0 {
		t.Fatal("no retry events under a 30% transient fault rate")
	}
	for _, ev := range retries {
		if ev.Host == "" || ev.Attempt < 1 || ev.Err == "" {
			t.Errorf("malformed retry event: %+v", ev)
		}
	}
	virtualSeen := false
	for _, ev := range finished {
		if ev.Virtual > 0 {
			virtualSeen = true
		}
	}
	if !virtualSeen {
		t.Error("no probe charged virtual-clock time despite injected latency and backoff")
	}

	// Detaching the sink stops the stream.
	s.SetEventSink(nil)
	before := log.Len()
	s.ResetObservations()
	if _, err := s.BuildTable(); err != nil {
		t.Fatal(err)
	}
	if log.Len() != before {
		t.Errorf("events recorded after detach: %d -> %d", before, log.Len())
	}
}

// TestRunEvents_Degraded: a permanently dead backend emits a degraded
// event for the probe that exhausted its retries, and the row is
// annotated rather than the build failing.
func TestRunEvents_Degraded(t *testing.T) {
	profile := profilesNamed(t, "Showtime")[0]
	w, err := NewWorld("degraded", []ott.Profile{profile})
	if err != nil {
		t.Fatal(err)
	}
	w.InstallFaults(FaultSpec{
		Seed: "dead",
		PerHost: map[string]netsim.FaultProfile{
			profile.LicenseHost(): {Permanent: true},
		},
	})
	s := NewStudy(w)
	s.Concurrency = 1
	var log probe.Log
	s.SetEventSink(log.Record)
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if !table.Rows[0].Failed() {
		t.Fatalf("row not annotated: %+v", table.Rows[0])
	}
	degraded := log.ByKind(probe.EventProbeDegraded)
	if len(degraded) != 1 {
		t.Fatalf("degraded events = %d, want 1", len(degraded))
	}
	if ev := degraded[0]; ev.Probe == "" || ev.App != "Showtime" || ev.Err == "" {
		t.Errorf("malformed degraded event: %+v", ev)
	}
}
