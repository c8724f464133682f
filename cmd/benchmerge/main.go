// Command benchmerge runs the in-process benchmark suite — the
// `go test -bench` guard for the layers under the end-to-end benchmark in
// perfbench/ — and keeps its one baseline file.
//
//	benchmerge BENCH_inner.json          record: run the suite, rewrite the baseline
//	benchmerge -guard BENCH_inner.json   guard: run the suite, fail on regression
//
// The suite is the table below. Each row runs the root package's
// benchmarks matching its regex at its -benchtime and -count, in one
// process, and reads the unit the row names: ns/op, or the per-item unit
// a benchmark reports itself (ns/repack, ns/lookup). An entry's number is
// its median over its -count runs, with the GOMAXPROCS "-N" suffix
// stripped from its name, so baselines compare across core counts.
//
// The guard fails when an entry's median exceeds its baseline by more
// than tolerance, when a baseline entry has no current result (a renamed
// or deleted benchmark must be re-recorded, not silently leave the gate),
// or when nothing was compared. A flaky entry gets a higher count, never
// a wider bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// row is one line of the suite: a benchmark regex (`go test -bench`
// syntax) run count times at one benchtime, compared in one unit.
type row struct {
	bench     string
	benchtime string
	count     int
	unit      string
}

// Every row runs a fixed iteration count, so each run does the same work
// and leaves the shared worlds in the same state: several benchmarks scan
// process memory that grows with every playback the ones before them
// served. A row's -count runs follow each other in one process, so they
// see the machine in much the same state; only runs seconds long (the
// cold tables, the served batches) span its drift. Counts fill a wall
// time of about 100 s on 2 vCPUs, the cost of the guard this replaced.
var suite = []row{
	// Millisecond ops over the shared warm study: Table I probes, the
	// Figure 1 flow, the §IV-D chain, restores and fixture builds.
	{`^BenchmarkTableI_Q[124]_.*$` +
		`|^Benchmark(WorldSnapshot_Restore|WarmFixtures_ParallelN|Figure1_PlaybackFlow|E5_FullChain|E5_KeyLadder|E6_.*|E7_.*)$`,
		"20x", 5, "ns/op"},
	// Whole-table passes over warm worlds.
	{`^BenchmarkTableI_(Full|Full_Faulty|ProbeSubset|Full_WarmParallelN)$|^BenchmarkColdStart_Pooled$`, "2x", 4, "ns/op"},
	// Microsecond ops: manifest analysis, the served tier-1 hit and the
	// keybox scan.
	{`^BenchmarkTableI_Q3_KeyUsage$|^BenchmarkServer_Throughput$/^Warm$`, "1000x", 5, "ns/op"},
	{`^BenchmarkE5_KeyboxRecovery$`, "100000x", 5, "ns/op"},
	// Served tier-2 hits: three full periods of 10 request shapes per run.
	{`^BenchmarkServer_ColdWithWorldCache$`, "30x", 3, "ns/op"},
	// Cold worlds: every op mints its own 2048-bit device keys.
	{`^BenchmarkTableI_Full_Parallel(1|4|N)$|^BenchmarkServer_Throughput$/^Cold$`, "1x", 3, "ns/op"},
	// End-to-end served batches against sequential requests.
	{`^BenchmarkMatrix(Devices)?$`, "1x", 5, "ns/op"},
	// CDN manifest repackaging: first request, then every later one.
	{`^BenchmarkManifestProtocols$/^dash_cold$`, "100x", 5, "ns/repack"},
	{`^BenchmarkManifestProtocols$/^(hls|sstr)_cold$`, "20x", 5, "ns/repack"},
	{`^BenchmarkManifestProtocols$/_memoized$`, "100x", 5, "ns/lookup"},
}

// tolerance is the one regression bound: a median more than 25% over
// its baseline fails the guard.
const tolerance = 0.25

// baseline maps a benchmark name to its median in the row's unit,
// {"BenchmarkX": {"ns/op": 1234}}.
type baseline map[string]map[string]float64

func main() {
	guard := flag.Bool("guard", false, "compare against the baseline instead of rewriting it")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchmerge [-guard] BENCH_inner.json")
		os.Exit(2)
	}
	path := flag.Arg(0)
	cur, err := runSuite()
	if err != nil {
		fatal(err)
	}
	if !*guard {
		if err := os.WriteFile(path, cur.encode(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchmerge: recorded %d benchmarks into %s\n", len(cur), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %v", path, err))
	}
	problems := compare(base, cur, os.Stdout)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "benchmerge:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmerge:", err)
	os.Exit(1)
}

// runSuite builds the root package's test binary once, runs the suite's
// rows through it with the output streamed to stdout, and returns the
// medians.
func runSuite() (baseline, error) {
	dir, err := os.MkdirTemp("", "benchmerge")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "inner.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("building the benchmark binary: %w", err)
	}
	out := baseline{}
	for _, r := range suite {
		var buf bytes.Buffer
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", r.bench,
			"-test.benchtime", r.benchtime, "-test.count", strconv.Itoa(r.count))
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &buf), os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("benchmarks %s: %w", r.bench, err)
		}
		for name, m := range medians(&buf, r.unit) {
			out[name] = map[string]float64{r.unit: m}
		}
	}
	return out, nil
}

// gomaxprocsSuffix is the "-N" testing appends to benchmark names when
// GOMAXPROCS != 1.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// medians reads `go test -bench` output and returns, per benchmark, the
// median of the values it reported in unit across its -count lines.
func medians(r io.Reader, unit string) map[string]float64 {
	runs := map[string][]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		for i := 3; i < len(fields); i++ {
			if fields[i] != unit {
				continue
			}
			if v, err := strconv.ParseFloat(fields[i-1], 64); err == nil {
				runs[name] = append(runs[name], v)
			}
		}
	}
	out := make(map[string]float64, len(runs))
	for name, vs := range runs {
		sort.Float64s(vs)
		mid := len(vs) / 2
		if len(vs)%2 == 0 {
			out[name] = (vs[mid-1] + vs[mid]) / 2
		} else {
			out[name] = vs[mid]
		}
	}
	return out
}

// compare checks every baseline entry against the current run, writes one
// line per entry to w, and returns the problems that fail the guard.
func compare(base, cur baseline, w io.Writer) []string {
	var problems []string
	compared := 0
	for _, name := range base.names() {
		for unit, want := range base[name] {
			got, ok := cur[name][unit]
			if !ok {
				problems = append(problems, fmt.Sprintf("%s: no current result in %s", name, unit))
				continue
			}
			compared++
			delta := got/want - 1
			verdict := "ok"
			if delta > tolerance {
				verdict = "REGRESSION"
				problems = append(problems, fmt.Sprintf("%s: %s %s against baseline %s (%+.1f%% > %.0f%%)",
					name, formatNum(got), unit, formatNum(want), 100*delta, 100*tolerance))
			}
			fmt.Fprintf(w, "%-52s %14s %14s %-9s %+7.1f%%  %s\n",
				name, formatNum(want), formatNum(got), unit, 100*delta, verdict)
		}
	}
	if compared == 0 {
		problems = append(problems, "compared zero benchmarks against the baseline")
	}
	fmt.Fprintf(w, "benchmerge: compared %d benchmarks at %.0f%% tolerance: %d problems\n",
		compared, 100*tolerance, len(problems))
	return problems
}

func (b baseline) names() []string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// encode renders the baseline one entry per line, sorted by name.
func (b baseline) encode() []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range b.names() {
		units := make([]string, 0, len(b[name]))
		for unit, v := range b[name] {
			units = append(units, fmt.Sprintf("%q: %s", unit, formatNum(v)))
		}
		sort.Strings(units)
		comma := ","
		if i == len(b)-1 {
			comma = ""
		}
		fmt.Fprintf(&buf, "  %q: {%s}%s\n", name, strings.Join(units, ", "), comma)
	}
	buf.WriteString("}\n")
	return buf.Bytes()
}

// formatNum renders a number the shortest way: integral medians print
// as integers, sub-nanosecond ones keep their decimals.
func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
