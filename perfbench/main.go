// Command perfbench is the repository's end-to-end benchmark. It boots a
// fresh `wideleakfleet -spawn 2` server process per set-up, drives it from
// one client with at most two connections in an open loop, checks every
// table that comes back against the in-process engine, and prints one JSON
// result line.
//
// Usage (from the repository root; perfbench/run.sh builds and calls it):
//
//	perfbench --workload repeat|fresh|batch --seed n --seconds s --trace 0|1
//	perfbench --workload fresh --steady 10 [--seed n]
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced run. --steady n
// repeats the workload n times, each run a child process on its own seed,
// and prints every end-to-end metric's median, quartiles and spread
// against the bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit bounds one run, set-up and checks included.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: repeat, fresh or batch")
	seed := flag.Int64("seed", 1, "workload seed: drives the op stream only")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	steady := flag.Int("steady", 0, "repeat the workload this many times and report the spread")
	fleetBin := flag.String("fleet-bin", filepath.Join(".bench_build", "wideleakfleet"), "wideleakfleet binary")
	out := flag.String("out", ".bench_build", "directory for span files and steadiness logs")
	spinChild := flag.Bool("spin", false, "run as the idle-CPU spinner child (started by the benchmark itself)")
	flag.Parse()
	if *spinChild {
		if err := spin(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*workload, *seed, *seconds, *trace, *steady, *fleetBin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace, steady int, fleetBin, out string) error {
	cfg, err := loadConfig("BENCHMARK.json")
	if err != nil {
		return err
	}
	wl, ok := cfg.workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json lists %v)", workload, cfg.names)
	}
	if seconds <= 0 {
		seconds = cfg.RunSeconds
	}
	if steady > 0 {
		return steadiness(cfg, workload, seed, seconds, steady, fleetBin, out)
	}
	if _, err := os.Stat(fleetBin); err != nil {
		return fmt.Errorf("server binary: %w", err)
	}

	// A run that hangs must still end, well within three minutes; the
	// server and spinner children die with this process.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	sp, err := startSpinner()
	if err != nil {
		return err
	}
	defer stopSpinner(sp)
	b := &bench{wl: wl, seed: seed, seconds: seconds, fleetBin: fleetBin}
	var res *result
	if trace == 1 {
		res, err = b.traced(out)
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	if err := cfg.checkMetrics(res, trace == 1); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
