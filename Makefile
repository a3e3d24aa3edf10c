# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race audit-race fib-race span-race conv-smoke vet bench bench-smoke perf perf-compare fuzz figures testbed results reproduce clean

# Every package with micro-benchmarks: what `make bench` measures and
# what CI's `make bench-smoke` keeps runnable.
BENCH_PKGS = . ./internal/dataplane ./internal/audit ./internal/topo ./internal/bgp ./internal/obs/span ./internal/obs/tsdb ./internal/netsim ./internal/netd

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

test: vet
	$(GO) test ./...

race:
	# Extra -count on the packages with the most cross-goroutine traffic
	# (metrics hot paths, simulator epochs) before the full sweep.
	$(GO) test -race -count=2 ./internal/obs ./internal/netsim
	# -short skips the single-goroutine sweeps that `make test` runs in
	# full (bgp's every-destination oracle comparisons at N=3,000 and
	# 44,340); there is no race in them to find and the detector makes
	# them ten times slower.
	$(GO) test -race -short ./...

# The flight recorder's concurrency surface: hop hooks fire from netd's
# receive loops and senders at once and contend on the recorder's one
# lock, against Stats, ViolatingRecords and Close. Stress the recorder's
# own tests first, then the packages that drive it.
audit-race:
	$(GO) test -race -count=5 -run 'Recorder|Journeys' ./internal/audit
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

# The convergence tracer's concurrency surface: spans end on simulator and
# daemon goroutines, under the tracer's one lock, while Flush and Close
# write the batch outside it — and the netsim mirror deployment drives
# the whole pipeline per failure.
span-race:
	$(GO) test -race -count=5 ./internal/obs/span
	$(GO) test -race -count=2 -run 'ConvergenceTracing|NoTracer' ./internal/netsim

# End-to-end convergence gate, same as CI: every failure event injected by
# a resilience run must provably reach data-plane consistency.
conv-smoke:
	$(GO) run ./cmd/mifo-sim -exp resilience -n 300 -flows 800 -span-log /tmp/mifo-spans.jsonl > /dev/null
	$(GO) run ./cmd/mifo-inspect spans -events -min-events 6 /tmp/mifo-spans.jsonl

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
	$(GO) test ./internal/topo -fuzz '^FuzzParse$$' -fuzztime 30s
	$(GO) test ./internal/topo -fuzz '^FuzzBuilderMatchesReference$$' -fuzztime 30s
	$(GO) test ./internal/traffic -fuzz FuzzReadCSV -fuzztime 30s
	$(GO) test ./internal/audit -fuzz FuzzChecker -fuzztime 30s
	$(GO) test ./internal/audit -fuzz FuzzReadRecords -fuzztime 30s
	$(GO) test ./internal/obs/span -fuzz FuzzReadRecords -fuzztime 30s
	$(GO) test ./internal/bgp -fuzz FuzzIncrementalTable -fuzztime 30s
	$(GO) test ./internal/bgp -fuzz FuzzCompactDest -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz '^FuzzFairShare$$' -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz '^FuzzFairShareSequence$$' -fuzztime 30s
	$(GO) test ./internal/obs/tsdb -fuzz FuzzReadDump -fuzztime 30s

# Regenerate every figure at default scale into results/.
figures:
	$(GO) run ./cmd/mifo-sim -exp all -o results | tee results/simulation.txt

# The committed figures are what the code prints: regenerate every
# results/*.dat into a temporary directory and compare each byte for byte
# (about 40 s on 2 vCPUs, the build included). The .txt files carry run
# timings, so they stay out of it.
reproduce:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mifo-sim -exp all -o "$$tmp" > /dev/null && \
	for f in results/*.dat; do cmp "$$f" "$$tmp/$${f#results/}" || exit 1; done && \
	echo "reproduce: every results/*.dat regenerated byte-identical"

# Fig. 12 (Section V): the fluid model, then the packet-level engine.
testbed:
	$(GO) run ./cmd/mifo-sim -exp fig12,fig12-packet | tee results/testbed.txt

results: figures testbed

clean:
	rm -rf results/*.dat results/*.txt
