# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race ring-race audit-race fib-race span-race tsdb-race conv-smoke vet lint bench bench-smoke perf perf-compare fuzz figures testbed results clean

# Every package with micro-benchmarks: what `make bench` measures and
# what CI's `make bench-smoke` keeps runnable.
BENCH_PKGS = . ./internal/dataplane ./internal/audit ./internal/topo ./internal/bgp ./internal/ring ./internal/obs/span ./internal/obs/tsdb ./internal/netsim ./internal/netd

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	# netd's receive loop has a Linux file (recvmmsg, struct mmsghdr, the
	# UDP offloads) and a fallback file for everything else: both have to
	# compile where the tests never run.
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/netd
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/netd

# mifolint: the repository's own analyzer suite (internal/lint), six
# checks — the //mifo:hotpath cost budget, dropped errors, shadowed
# variables, goroutine lifecycle ownership, lock-scope hygiene, and obs
# metric and span naming; DESIGN.md "Static invariants" says why each
# stays. It runs over the whole tree in one process, which its
# cross-package checks need, and reports its own wall time on stderr. CI's
# lint job runs the same suite with -json and -github.
lint:
	$(GO) run ./cmd/mifo-lint ./...

test: vet lint
	$(GO) test ./...

race:
	# Extra -count on the packages with the most cross-goroutine traffic
	# (metrics hot paths, simulator epochs) before the full sweep.
	$(GO) test -race -count=2 ./internal/obs ./internal/netsim
	# -short skips the single-goroutine sweeps that `make test` runs in
	# full (bgp's every-destination oracle comparisons at N=3,000 and
	# 44,340, the tree-wide self-lint); there is no race in them to find
	# and the detector makes them ten times slower.
	$(GO) test -race -short ./...

# The two lock-free ring protocols every asynchronous observer is built
# on (internal/ring): producers against the drain goroutine, the writer
# against snapshot readers. These tests are what holds the publish
# ordering; the race detector is part of how they do it.
ring-race:
	$(GO) test -race -count=5 ./internal/ring

# The flight recorder's concurrency surface: hop hooks fire from simulator
# workers and netd receive loops while the drain goroutine assembles and
# writes journeys and answers Stats/Flush/Close barriers. Stress the
# recorder's own tests first, then the packages that drive it.
audit-race:
	$(GO) test -race -count=5 -run 'Recorder' ./internal/audit
	$(GO) test -race -count=2 ./internal/audit ./internal/dataplane ./internal/netsim ./internal/packetsim
	# netd runs every fabric test over both receive paths (batched and
	# one datagram at a time); how a burst is cut into batches differs
	# from run to run, so it gets one more.
	$(GO) test -race -count=3 ./internal/netd

# The versioned-FIB concurrency surface: wait-free lookups racing batched
# generation commits, plus the daemon runtime driving real routers' FIBs
# while packets forward, and the incremental route table feeding them.
fib-race:
	$(GO) test -race -short -count=2 ./internal/dataplane ./internal/core ./internal/bgp

# The convergence tracer's concurrency surface: producers offer spans
# from simulator/daemon goroutines while the collector drains, counts
# sheds, and answers Flush/Close barriers — and the netsim mirror
# deployment drives the whole pipeline per failure.
span-race:
	$(GO) test -race -count=5 ./internal/obs/span
	$(GO) test -race -count=2 -run 'ConvergenceTracing|NoTracer|SessionEventsTraced' ./internal/netsim ./internal/bgpsim

# The tsdb concurrency surface: the single-writer sample path racing the
# store's readers — TestGatherWhileSampling runs Gather, AnalyzeStore and
# WriteDump while a sampler runs flat out — plus the simulator feeding a
# store per epoch. (The torn-read tests of the ring itself are ring-race's.)
tsdb-race:
	$(GO) test -race -count=5 ./internal/obs/tsdb
	$(GO) test -race -count=2 -run 'TSDB' ./internal/netsim ./internal/packetsim

# End-to-end convergence gate, same as CI: every failure event injected by
# a resilience run must provably reach data-plane consistency.
conv-smoke:
	$(GO) run ./cmd/mifo-sim -exp resilience -n 300 -flows 800 -span-log /tmp/mifo-spans.jsonl > /dev/null
	$(GO) run ./cmd/mifo-conv -events -min-events 6 /tmp/mifo-spans.jsonl

bench:
	$(GO) test -run xxx -bench=. -benchmem $(BENCH_PKGS)

# One iteration of every benchmark: they still build and run.
bench-smoke:
	$(GO) test -run xxx -bench=. -benchtime=1x $(BENCH_PKGS)

# The repo's benchmark (BENCHMARK.json, bench/README.md): five workloads end
# to end with their outputs checked, about 25 s each. Every performance
# claim is made against its metric names.
perf:
	bash bench/run.sh

# Gate a change on two saved results (bash bench/run.sh -out FILE on each
# side): exit 1 when a metric is worse than its BENCHMARK.json bound.
perf-compare:
	bash bench/run.sh -compare $(OLD) $(NEW)

# Short fuzzing pass over every fuzz target.
fuzz:
	$(GO) test ./internal/dataplane -fuzz FuzzUnmarshalPacket -fuzztime 30s
	$(GO) test ./internal/topo -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/traffic -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/audit -fuzz FuzzChecker -fuzztime 30s
	$(GO) test ./internal/audit -fuzz FuzzReadRecords -fuzztime 30s
	$(GO) test ./internal/obs/span -fuzz FuzzReadRecords -fuzztime 30s
	$(GO) test ./internal/bgp -fuzz FuzzIncrementalTable -fuzztime 30s
	$(GO) test ./internal/bgp -fuzz FuzzCompactDest -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzFairShare -fuzztime 30s
	$(GO) test ./internal/obs/tsdb -fuzz FuzzReadDump -fuzztime 30s

# Regenerate every figure at default scale into results/.
figures:
	$(GO) run ./cmd/mifo-sim -exp all -o results | tee results/simulation.txt

testbed:
	$(GO) run ./cmd/mifo-testbed | tee results/testbed.txt
	$(GO) run ./cmd/mifo-testbed -packet -size-mb 20 | tee -a results/testbed.txt

results: figures testbed

clean:
	rm -rf results/*.dat results/*.txt
