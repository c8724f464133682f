package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// steadiness runs the workload n times, each run a child process of this
// binary on seed, seed+1, ..., and prints, for every end-to-end metric,
// the median, the quartiles and the spread (q3-q1)/median against the
// metric's bound in BENCHMARK.json. Child logs go to outDir.
func steadiness(cfg *benchConfig, workload string, seed int64, seconds, n int, fleetBin, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		logPath := filepath.Join(outDir, fmt.Sprintf("steady-%s-%d.log", workload, s))
		logFile, err := os.Create(logPath)
		if err != nil {
			return err
		}
		var stdout bytes.Buffer
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", "0", "--fleet-bin", fleetBin, "--out", outDir)
		cmd.Stdout = &stdout
		cmd.Stderr = logFile
		err = cmd.Run()
		logFile.Close()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w; see %s", i+1, s, err, logPath)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		fmt.Fprintf(os.Stderr, "run %d seed %d: correct=%v attempted=%d failed=%d %s\n",
			i+1, s, res.Correct, res.Attempted, res.Failed, lines[len(lines)-1])
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d) was not correct; see %s", i+1, s, logPath)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	bounds := make(map[string]float64)
	for _, e := range cfg.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs from seed %d, %d s each\n", workload, n, seed, seconds)
	fmt.Printf("%-16s %12s %12s %12s %8s %7s %8s\n", "metric", "median", "q1", "q3", "spread", "bound", "/bound")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := (q3 - q1) / med
		fmt.Printf("%-16s %12.4f %12.4f %12.4f %8.4f %7.3f %8.3f\n", name, med, q1, q3, spread, bounds[name], spread/bounds[name])
	}
	return nil
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(values, n=4) does (its default "exclusive"
// method), so the report matches an independent check.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
