package experiments

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/bgp"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Paper-scale harness: the memory and convergence story at the paper's
// 44,340-AS topology. Two modes share one entry point:
//
//   - Flow mode (Dests = K): install routes for K sampled stub
//     destinations, stream StreamFlows power-law flows from the top content
//     providers through netsim.RunStream with a hub link failing mid-run and
//     recovering later. This exercises the full pipeline — streaming
//     generator, bounded flow slots, incremental recompute, and (with
//     Options.Spans) the failure-to-data-plane convergence trace that
//     `mifo-inspect spans` turns into latency CDFs.
//
//   - Table-only mode (AllDests): install a route table for every AS — the
//     full N×N routing state, the run that must fit the memory budget — and
//     converge one hub LinkDown/LinkUp pair through the incremental
//     recompute path. No flow simulation: a router-level mirror at N
//     destinations would cost routers × dests FIB entries, which is exactly
//     the quadratic blow-up the compact tables avoid.
//
// Peak RSS is read from /proc/self/status (VmHWM) so the number includes
// everything the process touched, not just the Go heap; MemBudgetMB turns
// the budget into a soft runtime memory limit for the run's duration and
// into a hard pass/fail verdict on the result.

// PaperScaleConfig selects the paper-scale mode and budget.
type PaperScaleConfig struct {
	// Dests is how many destination ASes get routing tables in flow mode
	// (default 12). Ignored when AllDests is set.
	Dests int
	// AllDests switches to table-only mode: every AS is a destination.
	AllDests bool
	// StreamFlows is how many flows the streaming simulator pulls in flow
	// mode (default Options.Flows).
	StreamFlows int
	// MemBudgetMB, when positive, is the peak-RSS budget. The run gets a
	// soft runtime memory limit just under it and the result's OverBudget
	// verdict compares VmHWM against it.
	MemBudgetMB int
}

// PaperScale is the result of one paper-scale run.
type PaperScale struct {
	// Nodes and Links describe the topology; GraphMem its CSR footprint.
	Nodes, Links int
	GraphMem     topo.MemStats

	// Dests is the number of installed destinations; TableOnly reports
	// which mode ran.
	Dests     int
	TableOnly bool
	// BuildSec is the wall-clock time of the initial full table build.
	BuildSec float64
	// TableMem is the packed routing state's footprint after the build.
	TableMem bgp.TableMemStats

	// FailedLink is the hub link the run fails and recovers.
	FailedLink [2]int
	// DownSec and UpSec are the wall-clock incremental repair times for
	// the LinkDown and LinkUp events (table-only mode).
	DownSec, UpSec float64
	// SimSec is the wall-clock time of the streaming simulation (flow
	// mode); Stream holds its aggregate results.
	SimSec float64
	Stream *netsim.StreamResults

	// Routing counts the run's route-computation work; SkippedPct is the
	// share of per-destination recomputes the dirty-set derivation proved
	// unnecessary.
	Routing    bgp.TableStats
	SkippedPct float64

	// PeakRSS is the process peak resident set in bytes, from RSSSource
	// ("VmHWM" or the runtime fallback). Note VmHWM is a process-lifetime
	// high-water mark: run paperscale in its own process for a clean read.
	PeakRSS   int64
	RSSSource string
	// BudgetBytes and OverBudget report the MemBudgetMB verdict.
	BudgetBytes int64
	OverBudget  bool
}

// RunPaperScale executes the paper-scale memory/convergence experiment.
func RunPaperScale(o Options, cfg PaperScaleConfig) (*PaperScale, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	if cfg.MemBudgetMB > 0 {
		// Soft-limit the heap a sliver under the budget so the GC defends
		// the VmHWM verdict; restored before returning.
		budget := int64(cfg.MemBudgetMB) << 20
		prev := debug.SetMemoryLimit(-1)
		debug.SetMemoryLimit(budget - budget/16)
		defer debug.SetMemoryLimit(prev)
	}

	r := &PaperScale{Nodes: g.N(), Links: g.Links(), GraphMem: g.MemStats(), TableOnly: cfg.AllDests}
	a, b := hubLink(g)
	r.FailedLink = [2]int{a, b}

	if cfg.AllDests {
		err = r.runTableOnly(g, o)
	} else {
		err = r.runFlows(g, o, cfg)
	}
	if err != nil {
		return nil, err
	}

	if total := r.Routing.IncrementalComputes + r.Routing.CleanSkipped; total > 0 {
		r.SkippedPct = 100 * float64(r.Routing.CleanSkipped) / float64(total)
	}
	r.PeakRSS, r.RSSSource = peakRSS()
	if cfg.MemBudgetMB > 0 {
		r.BudgetBytes = int64(cfg.MemBudgetMB) << 20
		r.OverBudget = r.PeakRSS > r.BudgetBytes
	}
	return r, nil
}

// runTableOnly builds the all-destinations table and converges one
// LinkDown/LinkUp pair. The build is heap-backed (ComputeAll installed
// into an empty Table), not arena-backed: the superseded tables of the
// convergence events must be collectable, or the run would retain live +
// dirty instead of live.
func (r *PaperScale) runTableOnly(g *topo.Graph, o Options) error {
	dsts := make([]int, g.N())
	for i := range dsts {
		dsts[i] = i
	}
	r.Dests = len(dsts)

	start := time.Now()
	t := bgp.NewTable(g, nil, o.Workers)
	for _, d := range bgp.ComputeAll(g, dsts, o.Workers) {
		t.Install(d)
	}
	r.BuildSec = time.Since(start).Seconds()
	r.TableMem = t.MemStats()

	start = time.Now()
	t.LinkDown(r.FailedLink[0], r.FailedLink[1])
	r.DownSec = time.Since(start).Seconds()
	start = time.Now()
	t.LinkUp(r.FailedLink[0], r.FailedLink[1])
	r.UpSec = time.Since(start).Seconds()
	r.Routing = t.Stats()
	r.Routing.FullComputes += int64(len(dsts)) // the build ran outside the Table
	return nil
}

// runFlows streams power-law traffic from the top content providers to the
// sampled stub destinations while the hub link fails and recovers.
func (r *PaperScale) runFlows(g *topo.Graph, o Options, cfg PaperScaleConfig) error {
	k := cfg.Dests
	if k <= 0 {
		k = 12
	}
	dsts := sampleStubs(g, k)
	if len(dsts) == 0 {
		return fmt.Errorf("experiments: paperscale: topology has no stub ASes to use as destinations")
	}
	r.Dests = len(dsts)

	nProviders := 64
	if nProviders > g.N() {
		nProviders = g.N()
	}
	providers := traffic.RankContentProviders(g, nProviders)

	// The committed table footprint: same arena-backed build the serving
	// path uses. The simulator below builds its own copy.
	start := time.Now()
	r.TableMem = bgp.NewTable(g, dsts, o.Workers).MemStats()
	r.BuildSec = time.Since(start).Seconds()

	flows := cfg.StreamFlows
	if flows <= 0 {
		flows = o.Flows
	}
	stream, err := traffic.NewPowerLawStream(traffic.PowerLawConfig{
		Providers: providers, Consumers: dsts, Alpha: 1.0,
		ArrivalRate: o.ArrivalRate, SizeBits: 8e6, Seed: o.Seed + 1100,
	})
	if err != nil {
		return err
	}
	// Outage across the middle of the horizon, as in the resilience
	// experiment: failure injection, repair, and recovery all land while
	// flows are in flight.
	horizon := float64(flows) / o.ArrivalRate
	failure := netsim.LinkFailure{
		A: r.FailedLink[0], B: r.FailedLink[1],
		At: 0.35 * horizon, RecoverAt: 0.7 * horizon,
	}
	ncfg := netsim.Config{
		Policy:              netsim.PolicyMIFO,
		Workers:             o.Workers,
		Failures:            []netsim.LinkFailure{failure},
		ReconvergenceDelay:  horizon / 20,
		CongestionThreshold: o.CongestionThreshold,
		ReturnThreshold:     o.ReturnThreshold,
		Quality:             o.Quality,
		Recorder:            o.Recorder,
		Spans:               o.Spans,
		TSDB:                o.TSDB,
	}
	start = time.Now()
	res, err := netsim.RunStream(g, stream, dsts, flows, ncfg)
	if err != nil {
		return err
	}
	r.SimSec = time.Since(start).Seconds()
	r.Stream = res
	r.Routing = res.Routing
	return nil
}

// hubLink returns the highest-degree AS and its lowest-indexed neighbor —
// the deterministic "big blast radius" failure used at paper scale, where
// the resilience experiment's busiest-link search (a full workload scan
// plus trial recomputes) would dwarf the measurement.
func hubLink(g *topo.Graph) (int, int) {
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	return hub, int(g.Neighbors(hub)[0].AS)
}

// sampleStubs returns up to k stub ASes spread evenly across the stub
// population, deterministically.
func sampleStubs(g *topo.Graph, k int) []int {
	stubs := traffic.StubASes(g)
	if k >= len(stubs) {
		return stubs
	}
	out := make([]int, k)
	for i := range out {
		out[i] = stubs[i*len(stubs)/k]
	}
	return out
}

// peakRSS reads the process peak resident set from /proc/self/status
// (VmHWM), falling back to the runtime's OS-memory estimate on platforms
// without procfs.
func peakRSS() (int64, string) {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, perr := strconv.ParseInt(f[1], 10, 64); perr == nil {
					return kb << 10, "VmHWM"
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys), "runtime.MemStats.Sys"
}
