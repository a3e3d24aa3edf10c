// Command bench is the repo's benchmark: five workloads that drive the
// program end to end, an estimator that holds on a shared host, and the
// checks that its outputs are right. See README.md in this directory.
//
//	go run ./bench                      every workload, one child process each
//	go run ./bench -workload sim-flows  one workload; the last line is its result as JSON
//	go run ./bench -trace 1 ...         the per-layer metrics and bench/out/trace-<workload>.jsonl
//	go run ./bench -aa                  two sets of runs of the same code against the bounds
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is the run length of one run (run_seconds in
// BENCHMARK.json); harness.go turns it into a segment count.
const defaultSeconds = 20

// An untraced run sets its workload up setupsBefore times before it measures
// and setupsAfter times more when it has measured, checked and torn down;
// setup_s is the quiet estimate over all of them. Two points in time some
// 20 s apart, because the host slows a whole set-up down by up to half for
// stretches that long (bench/README.md).
const setupsBefore, setupsAfter = 2, 3

// workload is one set of inputs and the calls that drive the program with
// them.
type workload interface {
	// setup builds the inputs from the seed, runs the fixed-work warm-up and
	// leaves the workload ready to measure. On error it has released what it
	// acquired.
	setup(o options, tr *tracer) error
	phases(o options) []phase
	// verify makes the end-of-run checks. It returns the operations
	// attempted, the ones that failed a check, and one line per breach.
	verify() (attempted, failed int64, breaches []string)
	teardown()
	// note is a line about the run's outputs to print with the metrics, or "".
	note() string
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	name string
	why  string
	make func() workload
}

var workloads = []workloadSpec{
	{"netd-default", "the UDP fabric's fast path: tag, deflection and encapsulation do nothing",
		func() workload { return &netdWorkload{sat: 30_000, probe: 15_000} }},
	{"netd-deflect", "the same layers with the egress congested: every packet tagged, deflected and carried IP-in-IP across iBGP",
		func() workload { return &netdWorkload{congest: true, sat: 20_000, probe: 10_000} }},
	{"sim-flows", "the flow-level simulator under MIFO, the engine behind every figure of the paper's evaluation",
		func() workload { return &simWorkload{} }},
	{"route-build", "routing tables from scratch on the 44,340-AS graph",
		func() workload { return &buildWorkload{} }},
	{"route-repair", "incremental repair of those tables while links of the largest AS fail and return",
		func() workload { return &repairWorkload{} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names a metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists what an untraced run reports, perLayer what a traced one
// does: the layer suite's rows first, then the rows the traced workload's own
// process reports. BENCHMARK.json repeats both lists; the package's test
// keeps them the same.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mib", "MiB"},
	{"lat_us_p50", "us"},
}

var perLayer = append(suiteRows, harnessRows...)

var suiteRows = []metricSpec{
	{"topo.generate_s", "s"},
	{"topo.remove_links_ms", "ms"},
	{"bgp.compute_us_per_dest", "us"},
	{"bgp.table_build_ms", "ms"},
	{"bgp.parallel_speedup", "ratio"},
	{"bgp.table_bytes_per_dest", "B"},
	{"bgp.linkdown_ms_p50", "ms"},
	{"bgp.linkup_ms_p50", "ms"},
	{"bgp.dirty_share", "share"},
	{"bgp.repair_us_per_dirty_dest", "us"},
	{"bgp.repair_vs_scratch_ratio", "ratio"},
	{"core.install_us_per_dest", "us"},
	{"core.refresh_us", "us"},
	{"core.send_ns", "ns"},
	{"dataplane.forward_ns", "ns"},
	{"dataplane.forward_deflect_ns", "ns"},
	{"dataplane.marshal_ns", "ns"},
	{"dataplane.unmarshal_ns", "ns"},
	{"dataplane.marshal_encap_ns", "ns"},
	{"dataplane.unmarshal_encap_ns", "ns"},
	{"dataplane.wire_allocs_per_pkt", "count"},
	{"netd.udp_hops_per_op", "count"},
	{"netd.hop_us", "us"},
	{"netd.allocs_per_hop", "count"},
	{"netd.udp_floor_us", "us"},
	{"netd.residual_us", "us"},
	{"netd.deflected_share", "share"},
	{"netd.lost_share", "share"},
	{"netd.legacy_pkts_per_s_ratio", "ratio"},
	{"netd.pkts_per_s_allcores", "1/s"},
	{"netd.lat_us_p95", "us"},
	{"netd.lat_us_p99", "us"},
	{"netsim.run_bgp_ms", "ms"},
	{"netsim.run_mifo_ms", "ms"},
	{"netsim.run_miro_ms", "ms"},
	{"netsim.adapt_share", "share"},
	{"netsim.stream_ms", "ms"},
	{"netsim.route_precompute_ms", "ms"},
	{"netsim.allocs_per_flow_bgp", "count"},
	{"netsim.allocs_per_flow_mifo", "count"},
	{"netsim.offload_share", "share"},
	{"netsim.mean_mbps", "Mbps"},
	{"traffic.gen_ns_per_flow", "ns"},
	{"audit.netd_pkts_per_s_ratio", "ratio"},
	{"audit.shed_share", "share"},
	{"obs.sim_observed_ratio", "ratio"},
}

var harnessRows = []metricSpec{
	{"harness.trace_overhead_share", "share"},
	{"harness.ops_per_s_median", "op/s"},
	{"harness.segment_iqr_share", "share"},
	{"host.cpu_steal_share", "share"},
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// runWorkload sets one workload up, measures it, checks its outputs and
// returns what the run reports. notes are lines about the run for a reader.
func runWorkload(spec workloadSpec, o options) (res result, notes []string, err error) {
	var tr *tracer
	if o.trace {
		tr = newTracer(spec.name)
	}
	steal0, total0 := hostCPU()

	before, after := setupsBefore, setupsAfter
	if o.trace || o.tiny {
		before, after = 1, 0
	}
	var w workload
	teardown := func() {
		if w != nil {
			w.teardown()
			w = nil
		}
	}
	defer teardown()
	var setups []float64
	setup := func() error {
		teardown()
		runtime.GC()
		w = spec.make()
		tr.enable(o.trace, "setup", len(setups))
		t0 := time.Now()
		failed := w.setup(o, tr)
		setups = append(setups, time.Since(t0).Seconds())
		tr.enable(false, "", 0)
		if failed != nil {
			w = nil // a failed set-up has released what it acquired
			return fmt.Errorf("set-up: %w", failed)
		}
		return nil
	}
	for k := 0; k < before; k++ {
		if err = setup(); err != nil {
			return res, nil, err
		}
	}
	runtime.GC()

	stats, err := measure(w.phases(o), o, tr)
	if err != nil {
		return res, nil, err
	}
	rss, err := peakRSSMiB() // before the end-of-run checks add their own
	if err != nil {
		return res, nil, err
	}
	var thr, lat *phaseStats
	for i := range stats {
		st := &stats[i]
		notes = append(notes, fmt.Sprintf("phase %s: %d segments of %d ops, timed in %d blocks", st.name, st.segments, st.ops, len(st.blocks)))
		if st.throughput {
			thr = st
		}
		if st.latency {
			lat = st
		}
	}
	var breaches []string
	res.Attempted, res.Failed, breaches = w.verify()
	if n := w.note(); n != "" {
		notes = append(notes, n)
	}
	for k := 0; k < after; k++ {
		if err = setup(); err != nil {
			return res, nil, err
		}
	}
	teardown()
	res.Correct = len(breaches) == 0
	for _, b := range breaches {
		notes = append(notes, "BREACH "+b)
	}

	res.Metrics = make(map[string]metric)
	if !o.trace {
		ops := float64(thr.totalOps())
		for name, v := range map[string]float64{
			"setup_s":            quiet(setups),
			"ops_per_s":          1 / quiet(thr.column(false, blockWall)),
			"cpu_us_per_op":      1e6 * quiet(thr.column(false, blockCPU)),
			"allocs_per_op":      float64(thr.mallocs) / ops,
			"alloc_bytes_per_op": float64(thr.bytes) / ops,
			"peak_rss_mib":       rss,
			"lat_us_p50":         quiet(lat.column(false, blockP50)),
		} {
			res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
		}
		return res, notes, nil
	}

	// The traced run reports the harness's own rows; the layers' rows come
	// from layerSuite in a process of its own (see main).
	plain, traced := thr.column(false, blockWall), thr.column(true, blockWall)
	q1, q3 := quartiles(plain)
	steal1, total1 := hostCPU()
	stealShare := 0.0
	if total1 > total0 {
		stealShare = (steal1 - steal0) / (total1 - total0)
	}
	for name, v := range map[string]float64{
		"harness.trace_overhead_share": 1 - quiet(plain)/quiet(traced),
		"harness.ops_per_s_median":     1 / median(plain),
		"harness.segment_iqr_share":    (q3 - q1) / median(plain),
		"host.cpu_steal_share":         stealShare,
	} {
		res.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
	}
	path, err := tr.write()
	if err != nil {
		return res, notes, err
	}
	notes = append(notes, fmt.Sprintf("trace %s: %d spans, %d dropped", path, len(tr.spans), tr.dropped))
	return res, notes, nil
}

// printResult writes a run's notes and metrics for a reader, one metric per
// line by name with its unit.
func printResult(name string, res result, notes []string) {
	for _, n := range notes {
		fmt.Printf("# %s %s\n", name, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-14s %-32s %16.6f %s\n", name, n, m.Value, m.Unit)
	}
}

func machine() string {
	model := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("%s, %d CPUs, %s %s/%s", model, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// traceFlag is -trace: 0 or 1, as the benchmark contract passes it.
type traceFlag bool

func (t *traceFlag) String() string {
	if *t {
		return "1"
	}
	return "0"
}

func (t *traceFlag) Set(s string) error {
	switch s {
	case "0", "false":
		*t = false
	case "1", "true":
		*t = true
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

// layersName is what the layer suite is run as: `-workload layers` measures
// every layer and none of the workloads. It is not in the workloads list
// because it has no end-to-end metrics; a traced run starts it as a child.
const layersName = "layers"

// parentRunsLayers is set in the environment of the children of a full
// traced pass: the pass runs the layer suite once itself, after the
// workloads, instead of once per workload.
const parentRunsLayers = "BENCH_PARENT_RUNS_LAYERS"

// runLayers measures every layer in this process and returns the suite's
// rows as a result.
func runLayers(o options) (result, error) {
	m, err := layerSuite(o)
	return result{Correct: err == nil, Attempted: int64(len(m)), Metrics: m}, err
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, one child process each)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = flag.Float64("seconds", defaultSeconds, "run length: every phase runs 3 segments per second asked for, a traced run a fifth of that")
		out     = flag.String("out", "", "also write the results to this file as JSON")
		aa      = flag.Bool("aa", false, "run two sets of ten passes of the same code and hold their gap against the bounds")
		compare = flag.Bool("compare", false, "compare two -out files, old then new, against the bounds")
		trace   traceFlag
	)
	flag.Var(&trace, "trace", "0 = end-to-end metrics; 1 = per-layer metrics and a span file in "+traceDir)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: bool(trace)}
	if !(o.seconds > 0) {
		fatal(fmt.Errorf("-seconds wants a positive number"))
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two files: old.json new.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *aa:
		if o.trace {
			fatal(fmt.Errorf("-aa holds the end-to-end metrics against their bounds; it takes no -trace"))
		}
		os.Exit(runAA(o, *out))
	case *name == "":
		fmt.Printf("# %s\n", machine())
		all, ok := runAll(o, true)
		if o.trace {
			res, err := runChild(layersName, o, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			all[layersName], ok = res, ok && err == nil
		}
		if *out != "" {
			if err := writeResults(*out, all); err != nil {
				fatal(err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		var res result
		var notes []string
		var err error
		if spec, ok := findWorkload(*name); ok {
			res, notes, err = runWorkload(spec, o)
		} else if *name == layersName {
			res, err = runLayers(o)
		} else {
			err = fmt.Errorf("unknown workload")
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *name, err))
		}
		printResult(*name, res, notes)
		// A traced run reports every per-layer metric: its own rows and, from
		// a fresh process that nothing has moved between CPUs, the suite's.
		if o.trace && *name != layersName && os.Getenv(parentRunsLayers) == "" {
			var suite result
			if suite, err = runChild(layersName, o, true); err != nil {
				fatal(err)
			}
			for n, m := range suite.Metrics {
				res.Metrics[n] = m
			}
		}
		if *out != "" {
			if err = writeResults(*out, resultSet{*name: res}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
