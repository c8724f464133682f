package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// benchConfig is the part of BENCHMARK.json the benchmark reads: the run
// length, each workload's fixed offered rate and latency limit (stated in
// its "why" as "rate=<ops>/s" and "limit=<ms>ms"), and each end-to-end
// metric's bound for the steadiness report.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`

	workloads map[string]workload
	names     []string
}

// workload is one traffic mix with its fixed operating point.
type workload struct {
	name    string
	rate    float64 // offered ops/s of the fixed-rate phase
	limitMS float64 // p90 latency limit of the capacity search
}

var (
	rateRE  = regexp.MustCompile(`rate=([0-9.]+)/s`)
	limitRE = regexp.MustCompile(`limit=([0-9.]+)ms`)
)

func loadConfig(path string) (*benchConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read config: %w", err)
	}
	var cfg benchConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	cfg.workloads = make(map[string]workload)
	for _, w := range cfg.Workloads {
		rate, err1 := firstFloat(rateRE, w.Why)
		limit, err2 := firstFloat(limitRE, w.Why)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: workload %q must state rate=<n>/s and limit=<n>ms in its why", path, w.Name)
		}
		cfg.workloads[w.Name] = workload{name: w.Name, rate: rate, limitMS: limit}
		cfg.names = append(cfg.names, w.Name)
	}
	return &cfg, nil
}

func firstFloat(re *regexp.Regexp, s string) (float64, error) {
	m := re.FindStringSubmatch(s)
	if m == nil {
		return 0, fmt.Errorf("no match for %s", re)
	}
	return strconv.ParseFloat(m[1], 64)
}

// checkMetrics verifies that a result reports exactly the metrics
// BENCHMARK.json lists for its mode, with the listed units.
func (c *benchConfig) checkMetrics(res *result, traced bool) error {
	want := make(map[string]string)
	if traced {
		for _, m := range c.PerLayer {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range c.EndToEnd {
			want[m.Name] = m.Unit
		}
	}
	for name, m := range res.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("metric %s: unit %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	return nil
}
