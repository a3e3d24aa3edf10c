// mifo-sim regenerates the paper's simulation figures (Section IV).
//
// Usage:
//
//	mifo-sim -exp fig5a                 # one experiment at default scale
//	mifo-sim -exp all -n 2000 -flows 20000
//	mifo-sim -exp table1 -n 44340       # paper-scale Table I
//
// Output is gnuplot-style rows, one "# name" block per curve.
package main

import (
	"flag"
	"fmt"
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
	"repro/internal/topo"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1, fig5a, fig5b, fig5c, fig6a, fig6b, fig6c, fig7, fig8, fig9, resilience, strategy, overhead, errorbars, sensitivity, paperscale, all")
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
		fltLog   = flag.String("flight-log", "", "record every simulated path as a JSONL flight record here (analyse with mifo-trace)")
		fltRate  = flag.Float64("flight-sample", 1.0, "fraction of flows the flight recorder samples (0..1]")
		spanLog  = flag.String("span-log", "", "trace injected link failures to data-plane consistency as JSONL spans here (analyse with mifo-conv)")
		tsdbLog  = flag.String("tsdb-log", "", "dump per-link utilization/deflection/offload time series as JSONL here (analyse with mifo-top -log)")
	)
	flag.Parse()
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
		db = tsdb.NewStore(tsdb.Options{})
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
		f, err := os.Open(*topoFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		g, _, err := topo.Parse(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mifo-sim: %s: %v\n", *topoFile, err)
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
	// what mifo-trace consumes. finishFlight runs after the experiment
	// loop, before any exit, so the log is always flushed.
	finishFlight := func() bool { return true }
	if *fltLog != "" {
		sink, err := jsonl.Create(*fltLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		rec := audit.NewRecorder(audit.Options{Sample: *fltRate, Writer: sink, Registry: reg})
		o.Recorder = rec
		finishFlight = func() bool {
			if err := rec.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: flight recorder:", err)
			}
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: flight log:", err)
			}
			st := rec.Stats()
			fmt.Printf("# flight log: %d records (%d deflections, %d invariant violations, %d shed) -> %s\n",
				st.Records, st.Deflections, st.Violations, st.RingDropped, *fltLog)
			if st.Violations > 0 {
				fmt.Fprintf(os.Stderr, "mifo-sim: AUDIT FAILURE: %d invariant violations recorded\n", st.Violations)
			}
			return st.Violations == 0
		}
	}

	// Convergence tracer: every injected link event in span-aware
	// experiments (resilience) is traced from failure injection to
	// data-plane consistency. The log is what mifo-conv consumes.
	finishSpans := func() bool { return true }
	if *spanLog != "" {
		sink, err := jsonl.Create(*spanLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mifo-sim:", err)
			os.Exit(1)
		}
		tr := span.New(span.Options{Writer: sink, Registry: reg})
		o.Spans = tr
		finishSpans = func() bool {
			ok := true
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: span tracer:", err)
				ok = false
			}
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-sim: span log:", err)
				ok = false
			}
			st := tr.Stats()
			fmt.Printf("# span log: %d spans across %d failure events (%d shed) -> %s\n",
				st.Records, st.Roots, st.Dropped, *spanLog)
			return ok
		}
	}

	// TSDB dump: the whole run's time series, written once after the
	// experiment loop. The log is what mifo-top -log consumes; the episode
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
			rep := tsdb.AnalyzeStore(db, tsdb.EpisodeSpec{})
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
		f.Close() //mifolint:ignore droppederr best-effort close on the error path; the write error wins
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
		sum, err := experiments.TableI(o)
		if err != nil {
			return err
		}
		fmt.Print(sum)

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
		fmt.Println("# switches  count  share")
		fmt.Print(f.Histogram)
		fmt.Printf("# switched once: %.1f%%  at most twice: %.1f%% (paper: 67.7%% / 97.5%%)\n",
			100*f.OnceFraction, 100*f.AtMostTwiceFraction)

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
		// from-scratch rebuild would run full + incremental + skipped
		// computes per event; the incremental table only runs the dirty ones.
		for _, row := range r.Rows {
			rt := row.Routing
			total := rt.IncrementalComputes + rt.CleanSkipped
			saved := 0.0
			if total > 0 {
				saved = 100 * float64(rt.CleanSkipped) / float64(total)
			}
			fmt.Printf("# %s route computes: %d full (intact), %d incremental (%d repaired in place, %d fell back to a full compute) over %d link events (%d of %d skipped as provably clean, %.1f%% saved)\n",
				row.Policy, rt.FullComputes, rt.IncrementalComputes, rt.LocalRepairs, rt.RepairFallbacks, rt.LinkEvents,
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
		// Extension: the control-plane cost behind Section II-B's
		// "zero overhead" claim, measured with the message-level BGP sim.
		ov, err := experiments.RunOverhead(o)
		if err != nil {
			return err
		}
		fmt.Println("== Extension: control-plane overhead of multipath schemes ==")
		fmt.Printf("  baseline BGP:  %.0f UPDATE messages to converge one prefix\n", ov.BGPUpdatesPerPrefix)
		fmt.Printf("  MIRO:          +%.1f negotiation messages per (src,dst) pair using alternates\n", ov.MIROMessagesPerPair)
		fmt.Printf("  MIFO:          +%.0f messages (alternatives come from the local RIB)\n", ov.MIFOExtraMessages)
		fmt.Printf("  BGP reconvergence after a link failure: %.2f s mean — the outage window\n", ov.ReconvergenceSec)
		fmt.Println("  MIFO's data-plane failover bridges (cf. -exp resilience).")

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
	fmt.Printf("  table memory:       %.1f MiB packed + %.2f MiB overflow = %.1f B/AS/dest (%.0f B/dest; arena retained %.1f MiB)\n",
		mib(r.TableMem.PackedBytes), mib(r.TableMem.OverflowBytes),
		r.TableMem.BytesPerEntry, r.TableMem.BytesPerDest, mib(r.TableMem.ArenaRetainedBytes))
	fmt.Printf("  failed link:        AS %d - AS %d\n", r.FailedLink[0], r.FailedLink[1])
	if r.TableOnly {
		fmt.Printf("  LinkDown repair:    %.3fs   LinkUp repair: %.3fs (incremental)\n", r.DownSec, r.UpSec)
	} else if s := r.Stream; s != nil {
		fmt.Printf("  streaming sim:      %d flows in %.2fs — %d routable, %d completed, %d stalled forever\n",
			s.Flows, r.SimSec, s.Routable(), s.Completed, s.StalledForever)
		fmt.Printf("  flow memory:        %d peak flow slots for %d peak active flows (of %d total)\n",
			s.PeakFlowSlots, s.PeakActive, s.Flows)
		fmt.Printf("  throughput:         mean %.0f Mbps, %.1f%% of flows >= 500 Mbps, offload %.1f%%\n",
			s.MeanThroughputMbps(), 100*s.FractionAtLeastMbps(500), 100*s.OffloadFraction())
	}
	fmt.Printf("  route computes:     %d full, %d incremental (%d repaired in place, %d fell back to a full compute) over %d link events, %d skipped as provably clean (%.1f%% saved)\n",
		r.Routing.FullComputes, r.Routing.IncrementalComputes, r.Routing.LocalRepairs, r.Routing.RepairFallbacks, r.Routing.LinkEvents,
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
