# WideLeak reproduction — convenience targets.

GO ?= go

# Per-target budget for the native fuzz pass wired into check.
FUZZTIME ?= 5s

.PHONY: all build vet lint test race bench bench-guard fuzz chaos check study impact report serve serve-smoke fleet-smoke clean

all: build vet test

# check is the full verification gate: build, lint (gofmt + vet), plain
# tests, the race detector, the daemon and fleet smoke tests, the bench
# guard (current numbers vs the committed baseline, which it never
# rewrites), and a short native-fuzz pass over the attacker-facing
# parsers.
check: build lint test race serve-smoke fleet-smoke bench-guard fuzz

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

# bench runs the in-process benchmark suite declared in cmd/benchmerge
# and records each entry's median over its runs into BENCH_inner.json,
# the committed baseline. Recording is explicit: no other target
# rewrites it.
bench:
	$(GO) run ./cmd/benchmerge BENCH_inner.json

# bench-guard reruns the same suite and fails when any entry's median
# regressed more than 25% against BENCH_inner.json, or when a baseline
# entry has no current result.
bench-guard:
	$(GO) run ./cmd/benchmerge -guard BENCH_inner.json

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
# nonzero completed throughput, zero non-shed errors, mid-flight cancels
# through the router.
fleet-smoke:
	$(GO) test ./internal/fleet -run '^TestFleetSmoke$$' -count=1 -v

# Reproduce Table I and check it against the paper.
study:
	$(GO) run ./cmd/wideleak

# Table I plus the §IV-D attack chain per app.
impact:
	$(GO) run ./cmd/wideleak -impact

# Full markdown report (table + summary + impact + forgery).
report:
	$(GO) run ./cmd/wideleak -report report.md

# clean leaves BENCH_inner.json in place: it is the committed benchmark
# baseline, regenerated (not discarded) by `make bench`.
clean:
	rm -f report.md
