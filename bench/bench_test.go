package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// tinyOpts runs two segments of millisecond-sized inputs. The numbers mean
// nothing; the tests look at checks and shapes only.
var tinyOpts = options{seed: 1, segments: 2, tiny: true}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	sort.Strings(out)
	return out
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadRunsAndReportsEveryEndToEndMetric(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.name, func(t *testing.T) {
			res, notes, err := runWorkload(spec, tinyOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(notes, "\n"))
			}
			if got, want := metricNames(res.Metrics), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for n, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", n, m.Value)
				}
				if m.Unit != unitOf(endToEnd, n) {
					t.Errorf("%s has unit %q", n, m.Unit)
				}
			}
		})
	}
}

func TestTracedRunAndLayerSuiteReportEveryLayerAndWriteSpans(t *testing.T) {
	dir := t.TempDir()
	defer func(old string) { traceDir = old }(traceDir)
	traceDir = dir
	o := tinyOpts
	o.trace, o.segments = true, 4 // two rounds without spans, two with
	spec, _ := findWorkload("netd-deflect")
	res, notes, err := runWorkload(spec, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("incorrect:\n%s", strings.Join(notes, "\n"))
	}
	if got, want := metricNames(res.Metrics), names(harnessRows); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	suite, err := runLayers(tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metricNames(suite.Metrics), names(suiteRows); !reflect.DeepEqual(got, want) {
		t.Fatalf("layer suite reports %v, want %v", got, want)
	}
	for _, set := range []map[string]metric{res.Metrics, suite.Metrics} {
		for n, m := range set {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v", n, m.Value)
			}
			if m.Unit != unitOf(perLayer, n) {
				t.Errorf("%s has unit %q", n, m.Unit)
			}
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-netd-deflect.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var sp spanRec
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if sp.End < sp.Start || sp.Workload != "netd-deflect" || sp.ID == 0 {
			t.Fatalf("bad span %+v", sp)
		}
		seen[sp.Name] = true
	}
	for _, want := range []string{"segment", "netd.NewFabric", "core.Refresh", "packet", "netd.Inject"} {
		if !seen[want] {
			t.Errorf("no %q span in the trace", want)
		}
	}
}

// A netd segment is timed in blocks of blockPkts packets, and every block
// gets its own share of the segment's latencies.
func TestNetdSegmentsAreTimedInBlocks(t *testing.T) {
	w := &netdWorkload{}
	if err := w.setup(tinyOpts, nil); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	stats, err := measure(w.phases(tinyOpts), tinyOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if want := st.segments * st.ops / blockPkts; len(st.blocks) != want || st.segments != tinyOpts.segments {
			t.Errorf("phase %s: %d blocks over %d segments, want %d over %d", st.name, len(st.blocks), st.segments, want, tinyOpts.segments)
		}
		for _, b := range st.blocks {
			if !(b.wall > 0 && b.cpu >= 0 && b.p50 > 0) {
				t.Errorf("phase %s: block %+v", st.name, b)
			}
		}
	}
}

// The checks must fire: each case corrupts what a check compares against and
// expects a breach.
func TestChecksFire(t *testing.T) {
	cut := func(in *routeInputs) *topo.Graph {
		hub, peers := hubPeers(in.g)
		g, err := topo.RemoveLinks(in.g, []topo.LinkRef{{A: hub, B: peers[0]}})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	runSegments := func(w workload) []string {
		if _, err := measure(w.phases(tinyOpts), tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		_, failed, breaches := w.verify()
		if len(breaches) > 0 && failed == 0 {
			t.Errorf("breaches %v but no failed op", breaches)
		}
		return breaches
	}

	t.Run("netd lost packet", func(t *testing.T) {
		w := &netdWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		defer w.teardown()
		w.rig.injected++ // a packet the fabric never saw
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("netd deflection count", func(t *testing.T) {
		w := &netdWorkload{congest: true}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		defer w.teardown()
		w.rig.deflectsPerPkt++
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("sim digest", func(t *testing.T) {
		w := &simWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		w.hash++
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("sim stream totals", func(t *testing.T) {
		w := &simWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		w.in.ucfg.Seed++ // the stream now draws other flows than the batch ran
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("build table", func(t *testing.T) {
		w := &buildWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		w.first = bgp.NewTable(cut(w.in), w.in.dsts, 0)
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("repair intact table", func(t *testing.T) {
		w := &repairWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		w.intact = bgp.NewTable(cut(w.in), w.in.dsts, 0)
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("repair cut graph", func(t *testing.T) {
		w := &repairWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		for k := range w.cut {
			w.cut[k] = w.in.g // the reference now ignores the failure
		}
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
	t.Run("repair dirty share", func(t *testing.T) {
		w := &repairWorkload{}
		if err := w.setup(tinyOpts, nil); err != nil {
			t.Fatal(err)
		}
		w.dirty, w.dirtySet = [2]int64{1, 1}, true
		if b := runSegments(w); len(b) == 0 {
			t.Fatal("no breach")
		}
	})
}

// BENCHMARK.json and the harness must name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []bound `json:"end_to_end"`
		PerLayer   []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got []bound, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d is %s [%s], harness has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better=%q", m.Name, m.Better)
			}
			if bounded && !(m.Bound > 0 && m.Bound <= 0.25) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

func TestResultLineHasExactlyTheContractKeys(t *testing.T) {
	line, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {0.5, "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != want {
		t.Fatalf("result line %s, want %s", line, want)
	}
}

func TestEstimators(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if got := median(ten); got != 5.5 {
		t.Errorf("median %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := quiet(hundred); got != 2 { // never the single fastest reading
		t.Errorf("quiet estimate of 100 values %v, want 2", got)
	}
	blocks := make([]float64, 1800)
	for i := range blocks {
		blocks[i] = float64(1800 - i)
	}
	if got := quiet(blocks); got != 9 { // the fastest half percent
		t.Errorf("quiet estimate of 1800 values %v, want 9", got)
	}
	if got := quiet([]float64{7}); got != 7 {
		t.Errorf("quiet estimate of one value %v", got)
	}
	for _, c := range []struct {
		o    options
		want int
	}{
		{options{seconds: defaultSeconds}, 60},
		{options{seconds: defaultSeconds, trace: true}, 12},
		{options{seconds: 1, trace: true}, 4},
		{options{seconds: defaultSeconds, segments: 2}, 2},
	} {
		if got := segmentsFor(c.o); got != c.want {
			t.Errorf("segmentsFor(%+v) = %d, want %d", c.o, got, c.want)
		}
	}
	lower, higher := bound{Better: "lower"}, bound{Better: "higher"}
	if w := lower.worsening(100, 110); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("lower-is-better worsening %v", w)
	}
	if w := higher.worsening(100, 90); math.Abs(w-0.10) > 1e-12 {
		t.Errorf("higher-is-better worsening %v", w)
	}
}

// -compare must fail on what it cannot compare, not read it as an improvement.
func TestCompareResults(t *testing.T) {
	bounds := []bound{{Name: "ops_per_s", Better: "higher", Bound: 0.05}, {Name: "setup_s", Better: "lower", Bound: 0.10}}
	run := func(ops, setup float64) result {
		return result{Correct: true, Attempted: 1, Metrics: map[string]metric{"ops_per_s": {ops, "op/s"}, "setup_s": {setup, "s"}}}
	}
	const w = "sim-flows"
	without := run(100, 1)
	delete(without.Metrics, "setup_s")
	wrong := run(100, 1)
	wrong.Correct = false
	for _, c := range []struct {
		name     string
		old, new resultSet
		want     int
	}{
		{"within the bounds", resultSet{w: run(100, 1)}, resultSet{w: run(96, 1.09)}, 0},
		{"throughput regression", resultSet{w: run(100, 1)}, resultSet{w: run(94, 1)}, 1},
		{"set-up regression", resultSet{w: run(100, 1)}, resultSet{w: run(100, 1.11)}, 1},
		{"metric missing from new", resultSet{w: run(100, 1)}, resultSet{w: without}, 1},
		{"metric missing from old", resultSet{w: without}, resultSet{w: run(100, 1)}, 1},
		{"old value zero", resultSet{w: run(0, 1)}, resultSet{w: run(100, 1)}, 1},
		{"old incorrect", resultSet{w: wrong}, resultSet{w: run(100, 1)}, 1},
		{"new incorrect", resultSet{w: run(100, 1)}, resultSet{w: wrong}, 1},
		{"workload missing from new", resultSet{w: run(100, 1)}, resultSet{}, 1},
		{"workload only in new", resultSet{}, resultSet{w: run(100, 1)}, 0},
	} {
		if got := compareResults(bounds, c.old, c.new); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}
