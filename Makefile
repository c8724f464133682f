# WideLeak reproduction — convenience targets.

GO ?= go

# Per-target budget for the native fuzz pass wired into check.
FUZZTIME ?= 5s

.PHONY: all build vet lint test race bench bench-guard bench-matrix bench-devices bench-protocols bench-cold bench-fleet fuzz chaos check study impact report serve serve-smoke fleet-smoke clean

all: build vet test

# check is the full verification gate: build, lint (gofmt + vet), plain
# tests, the race detector, the daemon and fleet smoke tests, the bench
# guard (current numbers vs the committed baseline — BEFORE bench, which
# would overwrite that baseline), a benchmark pass recording
# BENCH_tableI.json, and a short native-fuzz pass over the
# attacker-facing parsers.
check: build lint test race serve-smoke fleet-smoke bench-guard bench fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint fails on any file gofmt would rewrite, then runs go vet — also
# over the benchmark module, which root ./... does not reach but which
# imports internal packages, so an API change there breaks its build.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
	# The keypool's concurrency contract gets a dedicated -race pass:
	# hammer tests exercise singleflight mints under contention.
	$(GO) test -race -count=1 -run 'TestKeyPool' ./internal/provision

# bench runs every root-package benchmark (except the matrix suite, which
# has its own baseline file), tees the raw output, and distills it into
# BENCH_tableI.json ({"name": {"ns_per_op": N, "allocs_per_op": M}}) for
# tooling that tracks the Table I numbers across commits.
bench:
	$(GO) test -bench '^Benchmark[^M]' -benchmem -run '^$$' . | tee BENCH_tableI.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_tableI.txt > BENCH_tableI.json

# bench-guard reruns the benchmark suites and fails when any benchmark's
# ns/op regressed against its committed baseline: the root suite vs
# BENCH_tableI.json at 25%, the device-matrix suite vs BENCH_devices.json
# at 50% (its entries are single-iteration end-to-end served studies, so
# they are noisier), and the manifest-dialect suite vs
# BENCH_protocols.json at 100% (single-iteration ms-scale batches — the
# guard still catches order-of-magnitude repack regressions). New
# benchmarks (absent from a baseline) are skipped, so the guard never
# blocks adding coverage — only slowing existing paths.
bench-guard:
	$(GO) test -bench '^Benchmark[^M]' -benchmem -run '^$$' . | tee BENCH_guard.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_guard.txt > BENCH_guard.json
	$(GO) run ./cmd/benchmerge -guard -tolerance 25 BENCH_tableI.json BENCH_guard.json
	$(GO) test -bench '^BenchmarkMatrixDevices$$' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_guard_devices.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_guard_devices.txt > BENCH_guard_devices.json
	$(GO) run ./cmd/benchmerge -guard -tolerance 50 BENCH_devices.json BENCH_guard_devices.json
	$(GO) test -bench '^BenchmarkManifestProtocols$$' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_guard_protocols.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_guard_protocols.txt > BENCH_guard_protocols.json
	$(GO) run ./cmd/benchmerge -guard -tolerance 100 BENCH_protocols.json BENCH_guard_protocols.json
	rm -f BENCH_guard.txt BENCH_guard.json BENCH_guard_devices.txt BENCH_guard_devices.json
	rm -f BENCH_guard_protocols.txt BENCH_guard_protocols.json

# bench-matrix records the shared-work scheduler's payoff into
# BENCH_matrix.json: an overlapping 8-seed x 4-probe-subset mix served as
# one batch vs the same specs as sequential requests (cell dedup must win
# >=3x), plus a non-overlapping control mix where there is nothing to
# share. One iteration each — these are end-to-end served studies.
bench-matrix:
	$(GO) test -bench '^BenchmarkMatrix$$' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_matrix.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_matrix.txt > BENCH_matrix.json

# bench-devices records the device axis's batch payoff into
# BENCH_devices.json: 4 seeds x 4 probe subsets over an 8-profile device
# matrix and 4 apps served as one dedup'd batch vs the same specs as
# sequential requests (shared worlds and cell dedup must win >=2x). One
# iteration each — these are end-to-end served studies.
bench-devices:
	$(GO) test -bench '^BenchmarkMatrixDevices$$' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_devices.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_devices.txt > BENCH_devices.json

# bench-protocols records the manifest-dialect repackaging costs into
# BENCH_protocols.json: per dialect, the cold repack (canonical DASH
# parsed and re-serialized on first request) vs the memoized serve
# (every later request — a map lookup for all three dialects).
bench-protocols:
	$(GO) test -bench '^BenchmarkManifestProtocols$$' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_protocols.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_protocols.txt > BENCH_protocols.json

# bench-cold runs only the cold-start benchmarks (one iteration each —
# they are end-to-end studies, not microbenchmarks) and merges their
# numbers into BENCH_tableI.json alongside the full-suite entries.
bench-cold:
	$(GO) test -bench 'ColdStart_Pooled|WorldSnapshot_Restore|Server_ColdWithWorldCache|TableI_Full_Parallel1' -benchtime=1x -benchmem -run '^$$' . | tee BENCH_cold.txt
	$(GO) run ./cmd/benchmerge -parse BENCH_cold.txt > BENCH_cold.json
	@if [ -f BENCH_tableI.json ]; then \
		$(GO) run ./cmd/benchmerge BENCH_tableI.json BENCH_cold.json > BENCH_tableI.json.tmp && \
		mv BENCH_tableI.json.tmp BENCH_tableI.json && rm BENCH_cold.json; \
	else mv BENCH_cold.json BENCH_tableI.json; fi

# fuzz runs the native fuzz targets over the parsers that consume
# attacker-controlled bytes, the TEE world-boundary frame decoder among
# them, and the RSA keygen small-prime filter against its big.Int
# reference, each for FUZZTIME (go permits one -fuzz pattern per invocation,
# hence one run per target).
fuzz:
	$(GO) test ./internal/dash -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hls -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sstr -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mp4 -run '^$$' -fuzz '^FuzzParseInitSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mp4 -run '^$$' -fuzz '^FuzzParseMediaSegment$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oemcrypto -run '^$$' -fuzz '^FuzzTrustletFrame$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wvcrypto -run '^$$' -fuzz '^FuzzSmallFactor$$' -fuzztime $(FUZZTIME)

# chaos runs the fault-injection suite under the race detector: for the
# five fixed seeds, Table I under transient faults must render
# byte-identical to the fault-free run, and dead hosts must degrade to
# annotated cells instead of failing the table.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestFault|TestRetry|TestBackoff|TestPlayback' ./internal/wideleak ./internal/netsim ./internal/ott

# Run the study-as-a-service daemon on the default port.
serve:
	$(GO) run ./cmd/wideleakd

# serve-smoke boots the real daemon on a random port, submits the
# default Q1-Q4 study over HTTP, and diffs the served table against
# internal/wideleak/testdata/tableI_default.txt — then SIGTERM-drains it.
serve-smoke:
	$(GO) test ./cmd/wideleakd -run '^TestServeSmoke$$' -count=1 -v

# fleet-smoke boots a 3-replica in-process fleet behind the
# consistent-hash router and drives the smoke mix through it for 2s:
# nonzero completed throughput, zero non-shed errors.
fleet-smoke:
	$(GO) test ./cmd/wideleakload -run '^TestFleetSmoke$$' -count=1 -v

# bench-fleet records the sharding payoff into BENCH_fleet.json: the warm
# mix (working set larger than one replica's result cache, Zipf-skewed)
# and the cold mix (everything computed) driven against a 1-replica and a
# 3-replica fleet. On this 1-core box the 3-replica warm speedup is pure
# cache partitioning, not parallelism.
bench-fleet:
	$(GO) run ./cmd/wideleakload -spawn 1 -mix warm -duration 10s -label Fleet1_Warm -out BENCH_fleet1_warm.json
	$(GO) run ./cmd/wideleakload -spawn 3 -mix warm -duration 10s -label Fleet3_Warm -out BENCH_fleet3_warm.json
	$(GO) run ./cmd/wideleakload -spawn 1 -mix cold -duration 10s -label Fleet1_Cold -out BENCH_fleet1_cold.json
	$(GO) run ./cmd/wideleakload -spawn 3 -mix cold -duration 10s -label Fleet3_Cold -out BENCH_fleet3_cold.json
	$(GO) run ./cmd/benchmerge BENCH_fleet1_warm.json BENCH_fleet3_warm.json BENCH_fleet1_cold.json BENCH_fleet3_cold.json > BENCH_fleet.json
	rm -f BENCH_fleet1_warm.json BENCH_fleet3_warm.json BENCH_fleet1_cold.json BENCH_fleet3_cold.json

# Reproduce Table I and check it against the paper.
study:
	$(GO) run ./cmd/wideleak

# Table I plus the §IV-D attack chain per app.
impact:
	$(GO) run ./cmd/wideleak -impact

# Full markdown report (table + summary + impact + forgery).
report:
	$(GO) run ./cmd/wideleak -report report.md

# clean leaves BENCH_tableI.json, BENCH_matrix.json, BENCH_devices.json
# and BENCH_protocols.json in place: they are the committed benchmark
# baselines, regenerated (not discarded) by `make bench` /
# `make bench-matrix` / `make bench-devices` / `make bench-protocols`.
clean:
	rm -f report.md test_output.txt bench_output.txt BENCH_tableI.txt BENCH_cold.txt BENCH_cold.json
	rm -f BENCH_guard.txt BENCH_guard.json BENCH_matrix.txt BENCH_devices.txt BENCH_protocols.txt
	rm -f BENCH_guard_devices.txt BENCH_guard_devices.json
	rm -f BENCH_guard_protocols.txt BENCH_guard_protocols.json
	rm -f BENCH_fleet1_warm.json BENCH_fleet3_warm.json BENCH_fleet1_cold.json BENCH_fleet3_cold.json
