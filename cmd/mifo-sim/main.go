// mifo-sim regenerates the paper's simulation figures (Section IV) and
// its testbed figure (Section V, Fig. 12).
//
// Usage:
//
//	mifo-sim -exp fig5a                 # one experiment at default scale
//	mifo-sim -exp all -n 2000 -flows 20000
//	mifo-sim -exp table1 -n 44340       # paper-scale Table I
//	mifo-sim -exp fig12,fig12-packet    # results/testbed.txt
//
// Output is gnuplot-style rows, one "# name" block per curve.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/packetsim"
	"repro/internal/testbed"
	"repro/internal/topo"
)

// validSample says whether v is a sampling fraction the flight recorder
// honours: audit.Options.Sample reads zero, negatives and values past 1
// as "every flow".
func validSample(v float64) bool { return v > 0 && v <= 1 }

// sizeError names the first size flag out of range, or returns nil. The
// experiments read a non-positive -n, -flows or -pairs, and a zero -rate,
// -workers, -stream-flows or -mem-budget-mb, as "use the default"; a
// negative value there, or a NaN or infinite rate, is a mistake.
func sizeError(n, flows, pairs int, rate float64, workers, streamFlows, memMB int) error {
	for _, c := range []struct {
		name   string
		v, min int
	}{
		{"-n", n, 1}, {"-flows", flows, 1}, {"-pairs", pairs, 1},
		{"-workers", workers, 0}, {"-stream-flows", streamFlows, 0}, {"-mem-budget-mb", memMB, 0},
	} {
		if c.v < c.min {
			return fmt.Errorf("%s must be at least %d, got %d", c.name, c.min, c.v)
		}
	}
	if !(rate >= 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate must be a finite rate >= 0, got %v", rate)
	}
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig5a, fig5b, fig5c, fig6a, fig6b, fig6c, fig7, fig8, fig9, resilience, strategy, overhead, errorbars, sensitivity, paperscale, fig12, fig12-packet, all")
		n        = flag.Int("n", 1000, "topology size (ASes); the paper uses 44340")
		flows    = flag.Int("flows", 5000, "number of flows; the paper uses 1e6")
		topoFile = flag.String("topo", "", "read the topology from this file (mifo-topogen -o) instead of generating it")
		dests    = flag.String("dests", "12", "paperscale: routed destinations — a count, or 'all' for the full-table memory run")
		streamN  = flag.Int("stream-flows", 0, "paperscale: flows pulled through the streaming simulator (0 = -flows)")
		memMB    = flag.Int("mem-budget-mb", 0, "paperscale: fail when peak RSS exceeds this many MB (0 = no budget)")
		pairs    = flag.Int("pairs", 1000, "sampled AS pairs for fig7")
		rate     = flag.Float64("rate", 0, "flow arrival rate per second (0 = auto-scale the paper's 100/s)")
		seed     = flag.Int64("seed", 1, "PRNG seed")
		workers  = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		outDir   = flag.String("o", "", "also write each experiment's curves as gnuplot data files into this directory")
		dbgAddr  = flag.String("debug-addr", "", "serve /metrics and pprof on this address (e.g. :6061) while experiments run")
		fltLog   = flag.String("flight-log", "", "record every simulated path as a JSONL flight record here (analyse with mifo-inspect flight)")
		fltRate  = flag.Float64("flight-sample", 1.0, "fraction of flows the flight recorder samples (0..1]")
		spanLog  = flag.String("span-log", "", "trace injected link failures to data-plane consistency as JSONL spans here (analyse with mifo-inspect spans)")
		tsdbLog  = flag.String("tsdb-log", "", "dump per-link utilization/deflection/offload time series as JSONL here (analyse with mifo-inspect tsdb)")
	)
	flag.Parse()
	if !validSample(*fltRate) {
		fmt.Fprintf(os.Stderr, "mifo-sim: -flight-sample must be in (0, 1], got %v\n", *fltRate)
		os.Exit(1)
	}
	if err := sizeError(*n, *flows, *pairs, *rate, *workers, *streamN, *memMB); err != nil {
		fmt.Fprintln(os.Stderr, "mifo-sim:", err)
		os.Exit(1)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
	}

	// Experiment-progress metrics; live on -debug-addr so a long paper-scale
	// run can be watched (and pprof'd) from outside.
	reg := obs.NewRegistry()
	expDone := reg.CounterVec("sim_experiments_total", "experiments finished, by outcome", "outcome")
	expDur := reg.Histogram("sim_experiment_seconds", "wall-clock duration of one experiment",
		[]float64{0.1, 0.5, 1, 5, 15, 60, 300, 1800})
	// The embedded TSDB collects per-link utilization, deflection and
	// offload series from every simulation run for the -tsdb-log dump.
	var db *tsdb.Store
	if *tsdbLog != "" {
		db = tsdb.NewStore()
	}
	if *dbgAddr != "" {
		srv, err := obs.ServeDebug(*dbgAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		fmt.Printf("# debug server on %s (/metrics, /debug/pprof/)\n", srv.URL())
		defer srv.Close()
	}

	o := experiments.Options{N: *n, Flows: *flows, PairSamples: *pairs, ArrivalRate: *rate, Seed: *seed, Workers: *workers, TSDB: db}
	if *topoFile != "" {
		g, err := topo.ReadFile(*topoFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		o.Graph, o.N = g, g.N()
	}
	ps := experiments.PaperScaleConfig{StreamFlows: *streamN, MemBudgetMB: *memMB}
	if *dests == "all" {
		ps.AllDests = true
	} else {
		k, err := strconv.Atoi(*dests)
		if err != nil || k <= 0 {
			fmt.Fprintf(os.Stderr, "mifo-sim: -dests must be a positive count or 'all', got %q\n", *dests)
			os.Exit(1)
		}
		ps.Dests = k
	}

	// Flight recorder: every simulated path is recorded as a JSONL record
	// and audited online against MIFO's loop/valley invariants. The log is
	// what mifo-inspect flight consumes. finishFlight runs after the
	// experiment loop, before any exit, so the log is always flushed.
	finishFlight := func() bool { return true }
	if *fltLog != "" {
		sink, err := jsonl.Create(*fltLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		rec := audit.NewRecorder(audit.Options{Sample: *fltRate, Writer: sink})
		o.Recorder = rec
		finishFlight = func() bool {
			err := errors.Join(rec.Close(), sink.Close()) // Close writes the journeys still in flight first
			if err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: flight log:", err)
			}
			st := rec.Stats()
			fmt.Printf("# flight log: %d records (%d deflections, %d invariant violations) -> %s\n",
				st.Records, st.Deflections, st.Violations, *fltLog)
			if st.Violations > 0 {
				fmt.Fprintf(os.Stderr, "mifo-sim: AUDIT FAILURE: %d invariant violations recorded\n", st.Violations)
			}
			return err == nil && st.Violations == 0
		}
	}

	// Convergence tracer: every injected link event in span-aware
	// experiments (resilience) is traced from failure injection to
	// data-plane consistency. The log is what mifo-inspect spans consumes.
	finishSpans := func() bool { return true }
	if *spanLog != "" {
		sink, err := jsonl.Create(*spanLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		tr := span.New(span.Options{Writer: sink})
		o.Spans = tr
		finishSpans = func() bool {
			err := errors.Join(tr.Close(), sink.Close()) // the tracer writes into the sink first
			if err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: span log:", err)
			}
			st := tr.Stats()
			fmt.Printf("# span log: %d spans across %d failure events -> %s\n",
				st.Records, st.Roots, *spanLog)
			return err == nil
		}
	}

	// TSDB dump: the whole run's time series, written once after the
	// experiment loop. The log is what mifo-inspect tsdb consumes; the episode
	// summary printed here uses the same analyzer.
	finishTSDB := func() bool { return true }
	if *tsdbLog != "" {
		finishTSDB = func() bool {
			sink, err := jsonl.Create(*tsdbLog)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: tsdb log:", err)
				return false
			}
			ok := true
			if err := db.WriteDump(sink); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: tsdb log:", err)
				ok = false
			}
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: tsdb log:", err)
				ok = false
			}
			rep := tsdb.Analyze(db.Gather(), db.EpisodeSpec())
			fmt.Printf("# tsdb log: %d series scanned, %d congestion episodes on %d links (%d deflections, %.3g offloaded bits) -> %s\n",
				rep.SeriesScanned, len(rep.Episodes), rep.LinksWithEpisodes,
				rep.TotalDeflections, rep.TotalOffloadBits, *tsdbLog)
			return ok
		}
	}

	list := strings.Split(*exp, ",")
	if *exp == "all" {
		list = []string{"table1", "fig7", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig8", "fig9", "resilience", "strategy", "overhead"}
	}
	failed := 0
	for _, e := range list {
		start := time.Now()
		err := run(strings.TrimSpace(e), o, *outDir, ps)
		expDur.Observe(time.Since(start).Seconds())
		if err != nil {
			// Keep going: one broken experiment must not suppress the rest
			// of the suite's output, but the run as a whole still fails.
			fmt.Fprintf(os.Stderr, "mifo-sim: %s: %v\n", e, err)
			expDone.With("error").Inc()
			failed++
			continue
		}
		expDone.With("ok").Inc()
		fmt.Printf("# [%s done in %v]\n\n", e, time.Since(start).Round(time.Millisecond))
	}
	clean := finishFlight()
	if !finishSpans() {
		clean = false
	}
	if !finishTSDB() {
		clean = false
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "mifo-sim: %d/%d experiments failed\n", failed, len(list))
		os.Exit(1)
	}
	if !clean {
		os.Exit(1)
	}
}

// saveSeries writes curves to <dir>/<name>.dat in gnuplot block format.
func saveSeries(dir, name string, series ...metrics.Series) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".dat"))
	if err != nil {
		return err
	}
	if err := metrics.WriteGnuplot(f, series...); err != nil {
		f.Close() // best-effort close on the error path; the write error wins
		return err
	}
	return f.Close()
}

func run(exp string, o experiments.Options, outDir string, ps experiments.PaperScaleConfig) error {
	switch exp {
	case "paperscale":
		// The paper-scale memory/convergence run. Not part of "all": it is
		// sized for its own process (peak RSS is a process-lifetime mark).
		r, err := experiments.RunPaperScale(o, ps)
		if err != nil {
			return err
		}
		printPaperScale(r)
		if r.OverBudget {
			return fmt.Errorf("peak RSS %.0f MiB exceeds the %d MiB budget",
				float64(r.PeakRSS)/(1<<20), r.BudgetBytes>>20)
		}
	case "table1":
		return printTableI(os.Stdout, o)

	case "fig7":
		f, err := experiments.RunFig7(o)
		if err != nil {
			return err
		}
		fmt.Println("== Fig. 7: Available Paths Comparison ==")
		fmt.Println("# x: percentage of node pairs, y: paths per pair")
		for _, s := range f.Series {
			fmt.Print(s)
		}
		fmt.Printf("# median paths: MIFO(100%%)=%.0f MIRO(100%%)=%.0f\n", f.MedianMIFO100, f.MedianMIRO100)
		if err := saveSeries(outDir, "fig7", f.Series...); err != nil {
			return err
		}

	case "fig5a", "fig5b", "fig5c":
		deploy := map[string]float64{"fig5a": 1.0, "fig5b": 0.5, "fig5c": 0.1}[exp]
		c, err := experiments.RunFig5(o, deploy)
		if err != nil {
			return err
		}
		fmt.Printf("== Fig. 5 (%s): Throughput CDF at %.0f%% deployment, uniform traffic ==\n", exp, 100*deploy)
		printComparison(c)
		if err := saveSeries(outDir, exp, c.Series...); err != nil {
			return err
		}

	case "fig6a", "fig6b", "fig6c":
		alpha := map[string]float64{"fig6a": 0.8, "fig6b": 1.0, "fig6c": 1.2}[exp]
		c, err := experiments.RunFig6(o, alpha)
		if err != nil {
			return err
		}
		fmt.Printf("== Fig. 6 (%s): Throughput CDF, power-law alpha=%.1f, 50%% deployment ==\n", exp, alpha)
		printComparison(c)
		if err := saveSeries(outDir, exp, c.Series...); err != nil {
			return err
		}

	case "fig8":
		f, err := experiments.RunFig8(o)
		if err != nil {
			return err
		}
		fmt.Println("== Fig. 8: Traffic Offload on Alternative Paths ==")
		fmt.Println("# x: % of ASes deploying MIFO, y: % of flows on alternative paths")
		for _, r := range f.Rows {
			fmt.Printf("%.0f%%\t%.1f\n", r.X, r.Y)
		}
		if err := saveSeries(outDir, "fig8", metrics.Series{Name: "offload", Rows: f.Rows}); err != nil {
			return err
		}

	case "fig9":
		f, err := experiments.RunFig9(o)
		if err != nil {
			return err
		}
		fmt.Println("== Fig. 9: Path Switch Distribution (flows that switched) ==")
		fmt.Println("# deflections  count  share   (switches onto an alternative path; the paper's count)")
		fmt.Print(f.Histogram)
		fmt.Printf("# switched once: %.1f%%  at most twice: %.1f%% (paper: 67.7%% / 97.5%%)\n",
			100*f.OnceFraction, 100*f.AtMostTwiceFraction)
		fmt.Println("# all switches  count  share   (deflections plus returns to the default path)")
		fmt.Print(f.Switches)
		fmt.Printf("# switched once: %.1f%%  at most twice: %.1f%%\n",
			100*f.SwitchesOnceFraction, 100*f.SwitchesAtMostTwiceFraction)

	case "resilience":
		// Extension beyond the paper: fail the busiest link mid-run.
		r, err := experiments.RunResilience(o)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: link-failure resilience (busiest link fails mid-run) ==")
		fmt.Printf("# failed link: AS %d - AS %d\n", r.FailedLink[0], r.FailedLink[1])
		fmt.Printf("# %-6s %9s %12s %11s %8s %10s\n",
			"policy", "affected", "mean stall", "max stall", "forever", "mean Mbps")
		for _, row := range r.Rows {
			fmt.Printf("  %-6s %9d %10.3fs %9.3fs %8d %10.0f\n",
				row.Policy, row.AffectedFlows, row.MeanStallSec, row.MaxStallSec,
				row.StalledForever, row.MeanMbps)
		}
		// Route-recompute accounting: every policy shares the same failure
		// schedule, so one row tells the incremental-routing story. A
		// from-scratch rebuild would compute every destination on every
		// event; the incremental table computes only the dirty ones, and a
		// recovery that undoes the failure before it restores them.
		for _, row := range r.Rows {
			rt := row.Routing
			total := rt.IncrementalComputes + rt.Restored + rt.CleanSkipped
			saved := 0.0
			if total > 0 {
				saved = 100 * float64(rt.CleanSkipped) / float64(total)
			}
			fmt.Printf("# %s route computes: %d full (intact), %d incremental (%d repaired in place, %d fell back to a full compute), %d restored, over %d link events (%d of %d skipped as provably clean, %.1f%% saved)\n",
				row.Policy, rt.FullComputes, rt.IncrementalComputes, rt.LocalRepairs, rt.RepairFallbacks, rt.Restored, rt.LinkEvents,
				rt.CleanSkipped, total, saved)
		}

	case "strategy":
		// Extension beyond the paper: who should deploy MIFO first?
		s, err := experiments.RunStrategy(o)
		if err != nil {
			return err
		}
		if err := saveSeries(outDir, "strategy", s.Series()...); err != nil {
			return err
		}
		fmt.Println("== Extension: adopter strategy (random vs top-degree ASes) ==")
		fmt.Printf("# %-8s %-24s %-24s\n", "deploy", "random (>=500 / offload)", "top-degree (>=500 / offload)")
		for i := range s.Random {
			fmt.Printf("  %.0f%%      %5.1f%% / %5.1f%%          %5.1f%% / %5.1f%%\n",
				100*s.Random[i].Deployment,
				100*s.Random[i].AtLeast500, 100*s.Random[i].Offload,
				100*s.TopDegree[i].AtLeast500, 100*s.TopDegree[i].Offload)
		}

	case "errorbars":
		// Extension: the Fig. 5 headline with multi-seed error bars.
		r, err := experiments.RunRepeated(o, 1.0, 5)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: Fig. 5(a) headline over 5 seeds (mean ± std) ==")
		fmt.Printf("  %-6s %-18s %-18s\n", "policy", ">=500 Mbps (%)", "mean Mbps")
		for _, name := range []string{"BGP", "MIRO", "MIFO"} {
			fmt.Printf("  %-6s %-18s %-18s\n", name,
				r.AtLeast500[name].String(), r.MeanMbps[name].String())
		}

	case "sensitivity":
		// Extension: the control-knob sweeps behind the ablations.
		s, err := experiments.RunSensitivity(o)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: MIFO control-knob sensitivity ==")
		fmt.Println("# congestion threshold sweep: x | pct >=500Mbps | pct offload")
		for _, r := range s.Thresholds {
			fmt.Printf("  %.2f\t%5.1f\t%5.1f\n", r.X, r.AtLeast500, r.Offload)
		}
		fmt.Println("# control interval sweep (s): x | pct >=500Mbps | pct offload")
		for _, r := range s.Intervals {
			fmt.Printf("  %.3f\t%5.1f\t%5.1f\n", r.X, r.AtLeast500, r.Offload)
		}

	case "overhead":
		return printOverhead(os.Stdout, o)

	case "fig12": // like paperscale, not in "all": the two fig12s print results/testbed.txt
		return printFig12(os.Stdout)
	case "fig12-packet":
		return printFig12Packet(os.Stdout)

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func printPaperScale(r *experiments.PaperScale) {
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	fmt.Println("== Paper scale: Internet-size routing with memory-compact tables ==")
	fmt.Printf("# topology: %d ASes, %d links; adjacency %.1f MiB (%.1f B/link)\n",
		r.Nodes, r.Links, mib(r.GraphMem.TotalBytes), r.GraphMem.BytesPerLink)
	mode := "flow simulation"
	if r.TableOnly {
		mode = "table only"
	}
	fmt.Printf("# destinations: %d (%s)\n", r.Dests, mode)
	fmt.Printf("  full table build:   %.2fs (%d destinations)\n", r.BuildSec, r.TableMem.Dests)
	fmt.Printf("  table memory:       %.1f MiB packed + %.2f MiB side tables = %.1f B/stored entry (%.0f B/dest)\n",
		mib(r.TableMem.PackedBytes), mib(r.TableMem.OverflowBytes),
		r.TableMem.BytesPerEntry, r.TableMem.BytesPerDest)
	fmt.Printf("  failed link:        AS %d - AS %d\n", r.FailedLink[0], r.FailedLink[1])
	if r.TableOnly {
		fmt.Printf("  LinkDown repair:    %.3fs   LinkUp: %.3fs (restores the LinkDown's tables)\n", r.DownSec, r.UpSec)
	} else if s := r.Stream; s != nil {
		fmt.Printf("  streaming sim:      %d flows in %.2fs — %d routable, %d completed, %d stalled forever\n",
			s.Flows, r.SimSec, s.Routable(), s.Completed, s.StalledForever)
		fmt.Printf("  flow memory:        %d peak flow slots for %d peak active flows (of %d total)\n",
			s.PeakFlowSlots, s.PeakActive, s.Flows)
		fmt.Printf("  throughput:         mean %.0f Mbps, %.1f%% of flows >= 500 Mbps, offload %.1f%%\n",
			s.MeanThroughputMbps(), 100*s.FractionAtLeastMbps(500), 100*s.OffloadFraction())
	}
	fmt.Printf("  route computes:     %d full, %d incremental (%d repaired in place, %d fell back to a full compute), %d restored, over %d link events, %d skipped as provably clean (%.1f%% saved)\n",
		r.Routing.FullComputes, r.Routing.IncrementalComputes, r.Routing.LocalRepairs, r.Routing.RepairFallbacks, r.Routing.Restored, r.Routing.LinkEvents,
		r.Routing.CleanSkipped, r.SkippedPct)
	verdict := ""
	if r.BudgetBytes > 0 {
		verdict = fmt.Sprintf(" — budget %d MiB: ", r.BudgetBytes>>20)
		if r.OverBudget {
			verdict += "EXCEEDED"
		} else {
			verdict += "ok"
		}
	}
	fmt.Printf("  peak RSS:           %.0f MiB (%s)%s\n", mib(r.PeakRSS), r.RSSSource, verdict)
}

// fig12PacketMB is the flow size of -exp fig12-packet, the run committed
// in results/testbed.txt: at the paper's 100 MB the packet-level run
// takes 22 s against 4.3 s (2-vCPU Xeon).
const fig12PacketMB = 20

// printFig12 runs the paper's prototype experiment (Section V, Figs. 11
// and 12) in the fluid model, 30 back-to-back 100 MB flows per source on
// the six-AS testbed under BGP and under MIFO, and prints Fig. 12.
// printTableI prints Table I, the attributes of the topology.
func printTableI(w io.Writer, o experiments.Options) error {
	sum, err := experiments.TableI(o)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sum)
	return nil
}

// printOverhead prints the extension behind Section II-B's "zero
// overhead" claim: the control-plane cost of each scheme, measured with
// the message-level BGP sim.
func printOverhead(w io.Writer, o experiments.Options) error {
	ov, err := experiments.RunOverhead(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Extension: control-plane overhead of multipath schemes ==")
	fmt.Fprintf(w, "  baseline BGP:  %.0f UPDATE messages to converge one prefix\n", ov.BGPUpdatesPerPrefix)
	fmt.Fprintf(w, "  MIRO:          +%.1f negotiation messages per (src,dst) pair using alternates\n", ov.MIROMessagesPerPair)
	fmt.Fprintf(w, "  MIFO:          +%.0f messages (alternatives come from the local RIB)\n", ov.MIFOExtraMessages)
	fmt.Fprintf(w, "  BGP reconvergence after a link failure: %.2f s mean — the outage window\n", ov.ReconvergenceSec)
	fmt.Fprintln(w, "  MIFO's data-plane failover bridges (cf. -exp resilience).")
	return nil
}

func printFig12(w io.Writer) error {
	bgpRes, err := testbed.Run(testbed.Config{MIFO: false})
	if err != nil {
		return err
	}
	mifoRes, err := testbed.Run(testbed.Config{MIFO: true})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== Fig. 12(a): Aggregate Throughput (Gbps) over time ==")
	fmt.Fprint(w, "# BGP\n", bgpRes.Aggregate.String())
	fmt.Fprint(w, "# MIFO\n", mifoRes.Aggregate.String())

	fmt.Fprintln(w, "\n== Fig. 12(b): Flow Completion Time CDF ==")
	fmt.Fprintln(w, "# x: seconds, y: CDF (%)")
	fmt.Fprintln(w, "# BGP")
	for _, r := range bgpRes.FCT.Rows(0.5, 3.0, 25) {
		fmt.Fprintf(w, "%.2f\t%.1f\n", r.X, r.Y)
	}
	fmt.Fprintln(w, "# MIFO")
	for _, r := range mifoRes.FCT.Rows(0.5, 3.0, 25) {
		fmt.Fprintf(w, "%.2f\t%.1f\n", r.X, r.Y)
	}

	fmt.Fprintln(w, "\n== Summary ==")
	fmt.Fprintf(w, "BGP : aggregate %.2f Gbps, total %.1f s, max FCT %.2f s\n",
		bgpRes.MeanAggregateGbps, bgpRes.TotalTime, bgpRes.FCT.Max())
	fmt.Fprintf(w, "MIFO: aggregate %.2f Gbps, total %.1f s, max FCT %.2f s, %d flows on alternative path\n",
		mifoRes.MeanAggregateGbps, mifoRes.TotalTime, mifoRes.FCT.Max(), mifoRes.AltFlowCount)
	fmt.Fprintf(w, "MIFO improves aggregate throughput by %.0f%% over BGP (paper: 81%%)\n",
		testbed.ImprovementPercent(mifoRes, bgpRes))
	return nil
}

// printFig12Packet runs it with the packet-level engine and fig12PacketMB
// flows: congestion emerges from tx-queue occupancy and goodput from wire
// overheads, with no fluid-model efficiency factors.
func printFig12Packet(w io.Writer) error {
	cfg := testbed.Config{FlowSizeBits: fig12PacketMB * 8e6}
	bgpRes, err := testbed.RunPacketLevel(cfg)
	if err != nil {
		return err
	}
	cfg.MIFO = true
	mifoRes, err := testbed.RunPacketLevel(cfg)
	if err != nil {
		return err
	}
	summary := func(name string, r *packetsim.Results) {
		var retx, qdrops, defl int
		for _, f := range r.Flows {
			retx += f.Retransmits
			qdrops += f.QueueDrops
			defl += f.DeflectedPkts
		}
		fmt.Fprintf(w, "%-5s aggregate %.2f Gbps, total %.1f s, max FCT %.2f s, %d retransmits, %d queue drops, %d deflected pkts\n",
			name, r.MeanAggregateGbps, r.TotalTime, r.FCT.Max(), retx, qdrops, defl)
	}
	fmt.Fprintln(w, "== Packet-level testbed (per-port queues, AIMD sources) ==")
	summary("BGP", bgpRes)
	summary("MIFO", mifoRes)
	if bgpRes.MeanAggregateGbps > 0 {
		fmt.Fprintf(w, "improvement: %.0f%% (paper: 81%%)\n",
			100*(mifoRes.MeanAggregateGbps-bgpRes.MeanAggregateGbps)/bgpRes.MeanAggregateGbps)
	}
	return nil
}

func printComparison(c *experiments.ThroughputComparison) {
	fmt.Println("# x: throughput (Mbps), y: CDF (%)")
	for _, s := range c.Series {
		fmt.Print(s)
	}
	fmt.Println("# flows reaching >= 500 Mbps (half of link capacity):")
	for _, s := range c.Series {
		cdf := c.Results[s.Name].ThroughputCDF()
		fmt.Printf("#   %-22s %.1f%%  (offload %.1f%%, mean %.0f Mbps, median %.0f Mbps)\n", s.Name,
			100*c.AtLeast500[s.Name], 100*c.Results[s.Name].OffloadFraction(),
			cdf.Mean(), cdf.Quantile(0.5))
	}
}
