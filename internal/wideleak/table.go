package wideleak

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/wideleak/probe"
)

// appColumn is the fixed leading column every table renders.
var appColumn = probe.Column{Key: "app", Header: "OTT", Width: 20}

// Row is one app's line of Table I: the app name plus one typed result
// per selected probe.
type Row struct {
	App string

	// Probes lists the selected probe IDs in registry order — the row's
	// column set. Dependencies that ran only to feed a selected probe do
	// not appear.
	Probes []string

	// Results holds the typed probe results, keyed by probe ID.
	Results map[string]probe.Result

	// Err annotates a row whose app could not be studied because its
	// backend stayed unreachable through every retry. The other cells are
	// zero; Render prints the row as unavailable instead of failing the
	// whole table.
	Err string
}

// NewRow assembles a row from typed probe results, ordering the probe
// list by registry order.
func NewRow(app string, results ...probe.Result) Row {
	row := Row{App: app, Results: make(map[string]probe.Result, len(results))}
	for _, res := range results {
		if res != nil {
			row.Results[res.ProbeID()] = res
		}
	}
	for _, id := range probeRegistry.IDs() {
		if _, ok := row.Results[id]; ok {
			row.Probes = append(row.Probes, id)
		}
	}
	return row
}

// Failed reports whether the row is a transport-failure annotation
// rather than study results.
func (r *Row) Failed() bool { return r.Err != "" }

// Result returns the row's typed result for a probe ID, nil when the
// probe was not selected or the row failed.
func (r *Row) Result(id string) probe.Result {
	if r.Results == nil {
		return nil
	}
	return r.Results[id]
}

// Q1 returns the row's Widevine-usage result, nil when absent.
func (r *Row) Q1() *Q1Result { q, _ := r.Result("q1").(*Q1Result); return q }

// Q2 returns the row's content-protection result, nil when absent.
func (r *Row) Q2() *Q2Result { q, _ := r.Result("q2").(*Q2Result); return q }

// Q3 returns the row's key-usage result, nil when absent.
func (r *Row) Q3() *Q3Result { q, _ := r.Result("q3").(*Q3Result); return q }

// Q4 returns the row's legacy-device result, nil when absent.
func (r *Row) Q4() *Q4Result { q, _ := r.Result("q4").(*Q4Result); return q }

// Q5 returns the row's license-caching result, nil when absent.
func (r *Row) Q5() *Q5Result { q, _ := r.Result("q5").(*Q5Result); return q }

// UsesWidevine reports the Q1 verdict (false when Q1 is absent).
func (r *Row) UsesWidevine() bool {
	if q := r.Q1(); q != nil {
		return q.UsesWidevine
	}
	return false
}

// CustomDRMOnL3 reports the Q1 custom-DRM verdict (false when absent).
func (r *Row) CustomDRMOnL3() bool {
	if q := r.Q1(); q != nil {
		return q.CustomDRMOnL3
	}
	return false
}

// Video reports the Q2 video protection (Unknown when absent).
func (r *Row) Video() Protection {
	if q := r.Q2(); q != nil {
		return q.Video
	}
	return ProtectionUnknown
}

// Audio reports the Q2 audio protection (Unknown when absent).
func (r *Row) Audio() Protection {
	if q := r.Q2(); q != nil {
		return q.Audio
	}
	return ProtectionUnknown
}

// Subtitles reports the Q2 subtitle protection (Unknown when absent).
func (r *Row) Subtitles() Protection {
	if q := r.Q2(); q != nil {
		return q.Subtitles
	}
	return ProtectionUnknown
}

// KeyUsage reports the Q3 classification (Unknown when absent).
func (r *Row) KeyUsage() KeyUsage {
	if q := r.Q3(); q != nil {
		return q.Usage
	}
	return KeyUsageUnknown
}

// Legacy reports the Q4 outcome (OtherFailure when absent).
func (r *Row) Legacy() LegacyOutcome {
	if q := r.Q4(); q != nil {
		return q.Outcome
	}
	return LegacyOtherFailure
}

// Table is the reproduced Table I.
type Table struct {
	// Probes is the selected probe ID set the table was built with, in
	// registry order. Empty means "derive from rows, defaulting to the
	// registry's default set" — so hand-built tables keep working.
	Probes []string

	Rows []Row
}

// probeIDs resolves the table's column set: the explicit selection,
// else the first populated row's probe list, else the default probes.
func (t *Table) probeIDs() []string {
	if len(t.Probes) > 0 {
		return t.Probes
	}
	for _, r := range t.Rows {
		if len(r.Probes) > 0 {
			return r.Probes
		}
	}
	return probeRegistry.DefaultIDs()
}

// BuildTable runs every selected probe for every app and assembles
// Table I. It fans rows out over Study.Concurrency workers (<= 0 selects
// runtime.GOMAXPROCS(0), 1 is the sequential build); the result is
// byte-identical at every setting because every app draws from its own
// deterministic rand stream. Rows are reassembled in profile order, the
// first error in profile order is propagated, and no further rows start
// once any worker has failed.
func (s *Study) BuildTable() (*Table, error) {
	selected, _, err := probeRegistry.Resolve(s.Probes)
	if err != nil {
		return nil, err
	}
	profiles := s.World.Profiles()
	parallelism := s.Concurrency
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	parallelism = min(parallelism, len(profiles))

	rows := make([]*Row, len(profiles))
	errs := make([]error, len(profiles))
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for i := 0; i < parallelism; i++ {
		go func() {
			defer wg.Done()
			for idx := range next {
				rows[idx], errs[idx] = s.buildRowGraceful(profiles[idx].Name)
				if errs[idx] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range profiles {
		if failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()

	// Rows are fed in profile order, so a row never started sits after a
	// failed one, whose error returns first.
	t := &Table{Probes: selected, Rows: make([]Row, 0, len(profiles))}
	for i, p := range profiles {
		if errs[i] != nil {
			return nil, fmt.Errorf("wideleak: row %s: %w", p.Name, errs[i])
		}
		t.Rows = append(t.Rows, *rows[i])
	}
	return t, nil
}

// buildRowGraceful degrades a transport failure — the app's backend dead
// through every retry — into an annotated row, so one unreachable
// deployment costs its own cell, not the whole table. Every other error
// (a genuine study bug) still propagates.
func (s *Study) buildRowGraceful(app string) (*Row, error) {
	row, err := s.buildRow(app)
	if err == nil {
		return row, nil
	}
	if errors.Is(err, netsim.ErrRetriesExhausted) {
		return &Row{App: app, Err: err.Error()}, nil
	}
	return nil, err
}

// buildRow resolves the study's probe selection and runs the execution
// order — dependencies first, by registry construction — feeding each
// probe the results it requires. Only selected probes land on the row.
func (s *Study) buildRow(app string) (*Row, error) {
	selected, execution, err := probeRegistry.Resolve(s.Probes)
	if err != nil {
		return nil, err
	}
	results := make(probe.Results, len(execution))
	for _, id := range execution {
		res, err := s.runProbe(context.Background(), id, app, results)
		if err != nil {
			return nil, err
		}
		results[id] = res
	}
	row := &Row{App: app, Probes: selected, Results: make(map[string]probe.Result, len(selected))}
	for _, id := range selected {
		row.Results[id] = results[id]
	}
	return row, nil
}

// runProbe executes one probe for one app, emitting the
// started/finished/degraded events with wall and virtual timing. deps
// carries the results of the probe's execution-order predecessors (the
// registry hands the probe only what it declared via Requires). Both the
// sequential row builder and the matrix scheduler run cells through this
// single body, so a memoized cell is produced by exactly the code a
// fresh run would have executed.
func (s *Study) runProbe(ctx context.Context, id, app string, deps probe.Results) (probe.Result, error) {
	spec := probeSpec(id)
	s.emit(probe.Event{Kind: probe.EventProbeStarted, Probe: id, App: app})
	wallStart := time.Now()
	virtStart := s.World.Clock().Now()
	res, err := spec.Run(ctx, s, app, deps)
	wall := time.Since(wallStart)
	virtual := s.World.Clock().Now() - virtStart
	if err != nil {
		if errors.Is(err, netsim.ErrRetriesExhausted) {
			s.emit(probe.Event{Kind: probe.EventProbeDegraded, Probe: id, App: app,
				Err: err.Error(), Wall: wall, Virtual: virtual})
		}
		return nil, err
	}
	s.emit(probe.Event{Kind: probe.EventProbeFinished, Probe: id, App: app,
		Wall: wall, Virtual: virtual})
	return res, nil
}

// Render prints the table in the paper's layout, deriving columns and
// legend from the registered probes.
func (t *Table) Render() string {
	ids := t.probeIDs()
	cols := []probe.Column{appColumn}
	for _, id := range ids {
		cols = append(cols, probeSpec(id).Columns...)
	}

	var b strings.Builder
	b.WriteString("TABLE I: WIDEVINE USAGE AND ASSET PROTECTIONS BY OTTS\n")
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = fmt.Sprintf("%-*s", c.Width, c.Header)
	}
	headerLine := strings.Join(header, " ") + "\n"
	b.WriteString(headerLine)
	b.WriteString(strings.Repeat("-", len(headerLine)-1) + "\n")

	for _, r := range t.Rows {
		if r.Failed() {
			fmt.Fprintf(&b, "%-*s unavailable: %s\n", appColumn.Width, r.App, r.Err)
			continue
		}
		cells := []string{r.App}
		for _, id := range ids {
			spec := probeSpec(id)
			if res := r.Result(id); res != nil {
				cells = append(cells, res.Cells()...)
			} else {
				cells = append(cells, spec.ZeroCells()...)
			}
		}
		padded := make([]string, len(cells))
		for i, cell := range cells {
			padded[i] = fmt.Sprintf("%-*s", cols[i].Width, cell)
		}
		b.WriteString(strings.Join(padded, " ") + "\n")
	}

	seen := make(map[string]bool)
	for _, id := range ids {
		for _, line := range probeSpec(id).Legend {
			if seen[line] {
				continue
			}
			seen[line] = true
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// paperRow builds one ground-truth row of the paper's Table I (every app
// uses Widevine).
func paperRow(app string, customDRM bool, video, audio, subs Protection, usage KeyUsage, legacy LegacyOutcome) Row {
	return NewRow(app,
		&Q1Result{App: app, UsesWidevine: true, CustomDRMOnL3: customDRM},
		&Q2Result{App: app, Video: video, Audio: audio, Subtitles: subs},
		&Q3Result{App: app, Usage: usage},
		&Q4Result{App: app, Outcome: legacy},
	)
}

// PaperTable returns the expected Table I from the paper, cell for cell —
// the ground truth the reproduction is checked against.
func PaperTable() *Table {
	return &Table{Rows: []Row{
		paperRow("Netflix", false, ProtectionEncrypted, ProtectionClear, ProtectionClear, KeyUsageMinimum, LegacyPlays),
		paperRow("Disney+", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionClear, KeyUsageMinimum, LegacyProvisioningFails),
		paperRow("Amazon Prime Video", true, ProtectionEncrypted, ProtectionEncrypted, ProtectionClear, KeyUsageRecommended, LegacyPlaysCustomDRM),
		paperRow("Hulu", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionUnknown, KeyUsageUnknown, LegacyPlays),
		paperRow("HBO Max", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionClear, KeyUsageUnknown, LegacyProvisioningFails),
		paperRow("Starz", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionUnknown, KeyUsageMinimum, LegacyProvisioningFails),
		paperRow("myCANAL", false, ProtectionEncrypted, ProtectionClear, ProtectionClear, KeyUsageMinimum, LegacyPlays),
		paperRow("Showtime", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionClear, KeyUsageMinimum, LegacyPlays),
		paperRow("OCS", false, ProtectionEncrypted, ProtectionEncrypted, ProtectionClear, KeyUsageMinimum, LegacyPlays),
		paperRow("Salto", false, ProtectionEncrypted, ProtectionClear, ProtectionClear, KeyUsageMinimum, LegacyPlays),
	}}
}

// Diff compares two tables and returns a human-readable list of
// mismatching cells (empty when identical). Column sets are compared
// first — a probe selected on one side only reports its columns as
// added or removed — then rows are compared over the shared probes.
func (t *Table) Diff(other *Table) []string {
	var out []string
	ids := t.probeIDs()
	otherIDs := other.probeIDs()
	has := make(map[string]bool, len(ids))
	for _, id := range ids {
		has[id] = true
	}
	otherHas := make(map[string]bool, len(otherIDs))
	for _, id := range otherIDs {
		otherHas[id] = true
	}
	var shared []string
	for _, id := range ids {
		if !otherHas[id] {
			for _, col := range probeSpec(id).Columns {
				out = append(out, fmt.Sprintf("column %s: missing from other table", col.Key))
			}
			continue
		}
		shared = append(shared, id)
	}
	for _, id := range otherIDs {
		if !has[id] {
			for _, col := range probeSpec(id).Columns {
				out = append(out, fmt.Sprintf("column %s: only in other table", col.Key))
			}
		}
	}

	byApp := make(map[string]Row, len(other.Rows))
	for _, r := range other.Rows {
		byApp[r.App] = r
	}
	for _, r := range t.Rows {
		o, ok := byApp[r.App]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from other table", r.App))
			continue
		}
		check := func(col string, a, b any) {
			if a != b {
				out = append(out, fmt.Sprintf("%s/%s: %v != %v", r.App, col, a, b))
			}
		}
		// A failed row carries no cells; compare only the annotations.
		if r.Failed() || o.Failed() {
			check("error", r.Err, o.Err)
			continue
		}
		for _, id := range shared {
			spec := probeSpec(id)
			mine, theirs := spec.ZeroValues(), spec.ZeroValues()
			if res := r.Result(id); res != nil {
				mine = res.Values()
			}
			if res := o.Result(id); res != nil {
				theirs = res.Values()
			}
			for i, f := range spec.Fields {
				check(f.Diff, mine[i], theirs[i])
			}
		}
	}
	return out
}
