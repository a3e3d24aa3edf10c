// mifo-inspect reads what mifo-sim writes and prints a report. Each
// subcommand is named after the mifo-sim flag that writes its input:
//
//	mifo-sim -exp fig8 -flight-log f.jsonl -tsdb-log t.jsonl
//	mifo-inspect flight f.jsonl              # journeys, deflections, invariant audit
//	mifo-inspect flight -packet 17 f.jsonl   # one record hop by hop (-flow 42: one flow)
//	mifo-inspect tsdb t.jsonl                # hottest links, congestion episodes
//	mifo-inspect tsdb -flight f.jsonl -json t.jsonl  # + per-AS deflections, as JSON
//	mifo-sim -exp resilience -span-log s.jsonl
//	mifo-inspect spans -events s.jsonl       # failure events proven consistent, stages, CDF
//	mifo-inspect rib -src 500 -dst 3 -hops   # the control-plane state MIFO mines
//
// A log argument left out is read from stdin. The exit status is 0 when
// a report was printed, 1 when none could be produced (usage error,
// unreadable or malformed input, failed write), and 2 when the report's
// gate failed (invariant violations, unproven or too few failure events,
// too few congestion episodes), so each subcommand can gate CI.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/metrics"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// A subcommand declares its flags on fs and returns the report they configure.
type subcommand func(fs *flag.FlagSet) func(args []string, stdin io.Reader, out io.Writer) error

var subcommands = map[string]subcommand{"flight": flightCmd, "spans": spansCmd, "tsdb": tsdbCmd, "rib": ribCmd}

// unsigned names the flags whose negative values are usage errors.
var unsigned = map[string]bool{"top": true, "threshold": true, "window": true, "min-events": true, "min-episodes": true}

// gateFailure is a report that printed but failed its gate.
type gateFailure string

func (g gateFailure) Error() string { return string(g) }

// run is the whole program: it returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 || subcommands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: mifo-inspect {flight|spans|tsdb|rib} [flags] [LOG]; -h after a subcommand lists its flags")
		return 1
	}
	name := "mifo-inspect " + args[0]
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	report := subcommands[args[0]](fs)
	if err := fs.Parse(args[1:]); err != nil {
		return 1 // fs has printed the error and the flags
	}
	var negative []string
	fs.Visit(func(f *flag.Flag) {
		if unsigned[f.Name] && strings.HasPrefix(f.Value.String(), "-") {
			negative = append(negative, "-"+f.Name)
		}
	})
	if len(negative) > 0 {
		return fatal(fmt.Errorf("%s must not be negative", strings.Join(negative, ", ")))
	}

	out := bufio.NewWriter(stdout)
	err := report(fs.Args(), stdin, out)
	if ferr := out.Flush(); ferr != nil {
		return fatal(ferr)
	}
	if err != nil {
		fatal(err)
		if errors.As(err, new(gateFailure)) {
			return 2
		}
		return 1
	}
	return 0
}

// input opens the one log operand, or stdin when there is none, and
// names it for the report header.
func input(args []string, stdin io.Reader) (io.ReadCloser, string, error) {
	if len(args) > 1 {
		return nil, "", fmt.Errorf("at most one log file argument, got %d", len(args))
	}
	if len(args) == 0 {
		return io.NopCloser(stdin), "stdin", nil
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, "", err
	}
	return f, args[0], nil
}

// flightCmd reports on a flight-recorder log (mifo-sim -flight-log),
// recomputed from the records alone, so it doubles as a cross-check of
// the live counters. Its gate is zero invariant violations.
func flightCmd(fs *flag.FlagSet) func([]string, io.Reader, io.Writer) error {
	top := fs.Int("top", 10, "rows in the per-prefix table")
	packet := fs.Int64("packet", -1, "drill into one record by its sequence number")
	flow := fs.Int64("flow", -1, "drill into every journey of one flow ID")
	return func(args []string, stdin io.Reader, out io.Writer) error {
		in, name, err := input(args, stdin)
		if err != nil {
			return err
		}
		defer in.Close()
		if *packet >= 0 || *flow >= 0 {
			// Drill down: every record matching the given filters, hop by hop.
			matched := 0
			err = audit.ReadRecords(in, func(rec audit.Record) error {
				if (*packet >= 0 && int64(rec.Seq) != *packet) || (*flow >= 0 && rec.Flow != uint64(*flow)) {
					return nil
				}
				if matched > 0 {
					fmt.Fprintln(out)
				}
				audit.FormatRecord(out, rec)
				matched++
				return nil
			})
			if err == nil && matched == 0 {
				err = fmt.Errorf("no matching record (packet=%d flow=%d)", *packet, *flow)
			}
			return err
		}
		sum, err := audit.Summarize(in)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# %s\n", name)
		sum.Format(out, *top)
		if sum.TotalViolations > 0 {
			return gateFailure(fmt.Sprintf("%d invariant violations", sum.TotalViolations))
		}
		return nil
	}
}

// spansCmd reports on a convergence span log (mifo-sim -span-log): each
// failure event's causal span tree, how long the pipeline took from
// failure injection to data-plane consistency, and which stage (route
// recompute, daemon epoch, FIB commit, generation swap) the time went
// to. Its gate is every traced event proven consistent, and at least
// -min-events of them.
func spansCmd(fs *flag.FlagSet) func([]string, io.Reader, io.Writer) error {
	events := fs.Bool("events", false, "print the per-event table instead of only the summary")
	minEvents := fs.Int("min-events", 0, "fail the gate when fewer failure events were traced")
	return func(args []string, stdin io.Reader, out io.Writer) error {
		in, name, err := input(args, stdin)
		if err != nil {
			return err
		}
		defer in.Close()
		recs, err := span.ReadRecords(in)
		if err != nil {
			return err
		}
		rep := span.Analyze(recs)
		bad := len(rep.Events) - rep.CompleteEvents() + rep.OrphanTraces

		// One tabwriter for the whole report: a line without a tab ends
		// a column block, so each table is aligned on its own.
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintf(w, "# %s\n%d spans, %d failure events (%d complete), %d orphan traces\n",
			name, rep.Records, len(rep.Events), rep.CompleteEvents(), rep.OrphanTraces)
		if *events || bad > 0 {
			fmt.Fprintln(w, "\n## Failure events")
			fmt.Fprintln(w, "event\tlink\tdirty\tspans\tconvergence\tstatus")
			for _, ev := range rep.Events {
				status := "complete"
				if !ev.Complete {
					status = "INCOMPLETE: " + ev.Why
				}
				fmt.Fprintf(w, "%s\t%d-%d\t%d\t%d\t%v\t%s\n", ev.Root.Name, ev.Root.A, ev.Root.B,
					ev.Dirty, ev.Spans, ev.Convergence.Round(time.Microsecond), status)
			}
		}

		fmt.Fprintln(w, "\n## Pipeline stages (all events)")
		fmt.Fprintln(w, "stage\tspans\tmean\tmax\ttotal")
		for _, k := range append(append([]string(nil), span.StageOrder...), "other") {
			if a, ok := rep.Stage[k]; ok {
				fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\n", k, a.Count, a.Mean().Round(time.Nanosecond),
					a.Max.Round(time.Nanosecond), a.Total.Round(time.Nanosecond))
			}
		}

		if secs := rep.ConvergenceSeconds(); len(secs) > 0 {
			cdf := metrics.NewCDF(secs...)
			seconds := func(s float64) time.Duration {
				return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
			}
			fmt.Fprintln(w, "\n## Convergence latency (failure event -> data-plane consistency)")
			fmt.Fprintln(w, "quantile\tlatency")
			for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
				fmt.Fprintf(w, "p%.0f\t%v\n", q*100, seconds(cdf.Quantile(q)))
			}
			fmt.Fprintf(w, "mean\t%v\nmin\t%v\n", seconds(cdf.Mean()), seconds(cdf.Min()))
		}
		if err := w.Flush(); err != nil {
			return err
		}

		if bad > 0 {
			return gateFailure(fmt.Sprintf("%d failure events not proven consistent", bad))
		}
		if len(rep.Events) < *minEvents {
			return gateFailure(fmt.Sprintf("traced %d failure events, want at least %d", len(rep.Events), *minEvents))
		}
		return nil
	}
}

// tsdbCmd shows what MIFO's data plane did to congested links, from a
// time-series dump (mifo-sim -tsdb-log): the hottest links, congestion
// episodes, and the offload attribution joining each episode to the
// deflections that relieved it (Fig. 8's offload scalar, resolved per
// link). Its gate is -min-episodes.
func tsdbCmd(fs *flag.FlagSet) func([]string, io.Reader, io.Writer) error {
	flight := fs.String("flight", "", "also join a flight-recorder JSONL log: per-AS deflected-journey counts against each episode's link")
	asJSON := fs.Bool("json", false, "print the report (spec, top links, episode report) as one JSON document instead of tables")
	top := fs.Int("top", 10, "rows in each table (twice as many episodes)")
	threshold := fs.Float64("threshold", 0, "override the dump's episode threshold (0 = use the spec's)")
	window := fs.Int64("window", 0, "override the dump's episode window, in the series' timestamp unit (0 = use the spec's)")
	minEpisodes := fs.Int("min-episodes", 0, "fail the gate when fewer congestion episodes are detected")
	return func(args []string, stdin io.Reader, out io.Writer) error {
		in, name, err := input(args, stdin)
		if err != nil {
			return err
		}
		defer in.Close()
		snap, err := loadDump(in, name, *threshold, *window)
		if err != nil {
			return err
		}
		if *flight != "" {
			if err := joinFlight(snap, *flight); err != nil {
				return err
			}
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return err
			}
		} else {
			render(out, snap, *top)
		}
		if n := len(snap.Report.Episodes); n < *minEpisodes {
			return gateFailure(fmt.Sprintf("%d congestion episodes detected, want >= %d", n, *minEpisodes))
		}
		return nil
	}
}

// snapshot is everything one view renders; -json emits it verbatim.
type snapshot struct {
	Spec tsdb.EpisodeSpec `json:"spec"`
	// Links is the utilization table, hottest first.
	Links []linkRow `json:"links"`
	// Report is the episode analysis under the effective spec.
	Report *tsdb.Report `json:"report"`
	// DeflectionsByAS counts -flight's deflected journeys by deflecting AS.
	DeflectionsByAS map[string]int `json:"deflections_by_as,omitempty"`
}

// linkRow is one util series, summarized.
type linkRow struct {
	Series string  `json:"series"`
	Last   float64 `json:"last"`
	Peak   float64 `json:"peak"`
	Points int     `json:"points"`
}

// loadDump reads a mifo-sim -tsdb-log dump and analyzes it offline; a
// positive threshold or window overrides the dump's spec.
func loadDump(in io.Reader, name string, threshold float64, window int64) (*snapshot, error) {
	series, spec, err := tsdb.ReadDump(in)
	if err != nil {
		return nil, err
	}
	if spec.Util == "" {
		return nil, fmt.Errorf("%s carries no episode spec (not a tsdb dump?)", name)
	}
	if threshold > 0 {
		spec.Threshold = threshold
	}
	if window > 0 {
		spec.Window = window
	}
	snap := &snapshot{Spec: spec, Report: tsdb.Analyze(series, spec)}
	for _, sd := range series {
		if sd.Name != spec.Util || len(sd.Points) == 0 {
			continue
		}
		row := linkRow{Series: strings.Join(sd.Values, "/"), Points: len(sd.Points), Last: sd.Points[len(sd.Points)-1].V}
		for _, p := range sd.Points {
			row.Peak = max(row.Peak, p.V)
		}
		snap.Links = append(snap.Links, row)
	}
	// Peak first: in a dump every drained link ends at zero utilization,
	// so the final sample says nothing about how hot the link ran.
	sort.Slice(snap.Links, func(i, j int) bool {
		a, b := snap.Links[i], snap.Links[j]
		if a.Peak != b.Peak {
			return a.Peak > b.Peak
		}
		if a.Last != b.Last {
			return a.Last > b.Last
		}
		return a.Series < b.Series
	})
	return snap, nil
}

// joinFlight folds a flight-recorder log into the snapshot: every
// deflected step of every journey, counted by the AS that deflected.
// With netsim's "as->as" link labels this answers "which episodes did
// these journeys relieve" at a glance.
func joinFlight(snap *snapshot, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	byAS := map[string]int{}
	err = audit.ReadRecords(f, func(rec audit.Record) error {
		for _, s := range rec.Steps {
			if s.Deflected {
				byAS[fmt.Sprint(s.AS)]++
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	snap.DeflectionsByAS = byAS
	return nil
}

// render prints the human view: spec, hottest links, episode table, and
// the optional flight join. Each table has at most topN rows, the
// episode table 2*topN.
func render(w io.Writer, snap *snapshot, topN int) {
	rep := snap.Report
	fmt.Fprintf(w, "util series %q  threshold %.2f  window %d  (%d series scanned)\n",
		rep.Spec.Util, rep.Spec.Threshold, rep.Spec.Window, rep.SeriesScanned)

	links := snap.Links[:min(topN, len(snap.Links))]
	fmt.Fprintf(w, "\nhottest links (%d of %d):\n", len(links), len(snap.Links))
	fmt.Fprintf(w, "  %-24s %8s %8s %8s\n", "link", "util", "peak", "points")
	for _, row := range links {
		fmt.Fprintf(w, "  %-24s %8.3f %8.3f %8d\n", row.Series, row.Last, row.Peak, row.Points)
	}

	fmt.Fprintf(w, "\ncongestion episodes: %d on %d links (run totals: %d deflections, %.3g offloaded bits, %.3g in-episode)\n",
		len(rep.Episodes), rep.LinksWithEpisodes, rep.TotalDeflections, rep.TotalOffloadBits, rep.EpisodeOffloadBits)
	if len(rep.Episodes) > 0 {
		// Show the episodes that moved the most traffic; -json emits the
		// full report when everything is needed.
		shown := append([]tsdb.Episode(nil), rep.Episodes...)
		sort.Slice(shown, func(i, j int) bool {
			if shown[i].OffloadBits != shown[j].OffloadBits {
				return shown[i].OffloadBits > shown[j].OffloadBits
			}
			return shown[i].Start < shown[j].Start
		})
		shown = shown[:min(2*topN, len(shown))]
		fmt.Fprintf(w, "  %-24s %-14s %6s %6s %6s %10s %14s %12s\n",
			"link", "start", "dur", "peak", "defl", "offload", "relief-lat", "state")
		for _, e := range shown {
			state, lat := "relieved", "-"
			if e.Active {
				state = "active"
			}
			if e.ReliefLatency >= 0 {
				lat = fmt.Sprint(e.ReliefLatency)
			}
			fmt.Fprintf(w, "  %-24s %-14d %6d %6.2f %6d %10.3g %14s %12s\n",
				e.Series, e.Start, e.Duration(), e.Peak, e.Deflections, e.OffloadBits, lat, state)
		}
		if n := len(rep.Episodes) - len(shown); n > 0 {
			fmt.Fprintf(w, "  ... %d more episodes (use -json for the full JSON report)\n", n)
		}
	}

	if byAS := snap.DeflectionsByAS; byAS != nil {
		ases := make([]string, 0, len(byAS))
		for as := range byAS {
			ases = append(ases, as)
		}
		sort.Slice(ases, func(i, j int) bool {
			if byAS[ases[i]] != byAS[ases[j]] {
				return byAS[ases[i]] > byAS[ases[j]]
			}
			return ases[i] < ases[j]
		})
		fmt.Fprintf(w, "\nflight-recorder join: deflected journeys by AS (%d ASes deflected)\n", len(ases))
		for _, as := range ases[:min(topN, len(ases))] {
			fmt.Fprintf(w, "  AS %-6s %6d journeys\n", as, byAS[as])
		}
	}
}

// ribCmd inspects the control-plane state MIFO mines: for a (src, dst)
// AS pair, the default BGP path, the source's full multi-path RIB with
// each alternative's spliced path, and the number of forwarding paths
// at different deployment levels (Fig. 7's quantity for one pair). It
// has no gate.
func ribCmd(fs *flag.FlagSet) func([]string, io.Reader, io.Writer) error {
	n := fs.Int("n", 1000, "generate a topology with this many ASes")
	seed := fs.Int64("seed", 1, "generator seed")
	in := fs.String("in", "", "read a topology file (mifo-topogen -o) instead of generating")
	src := fs.Int("src", 1, "source AS")
	dst := fs.Int("dst", 0, "destination AS")
	hops := fs.Bool("hops", false, "also print per-hop RIBs along the default path")
	return func(args []string, _ io.Reader, out io.Writer) error {
		if len(args) > 0 {
			return fmt.Errorf("no operands expected, got %q (a topology file is -in)", args)
		}
		var g *topo.Graph
		var err error
		if *in != "" {
			g, err = topo.ReadFile(*in)
		} else {
			g, err = topo.Generate(topo.GenConfig{N: *n, Seed: *seed})
		}
		if err != nil {
			return err
		}
		if *src < 0 || *src >= g.N() || *dst < 0 || *dst >= g.N() || *src == *dst {
			return fmt.Errorf("need distinct src/dst in [0, %d)", g.N())
		}

		table := bgp.Compute(g, *dst)
		if !table.Reachable(*src) {
			fmt.Fprintf(out, "AS %d has no route to AS %d\n", *src, *dst)
			return nil
		}
		fmt.Fprintf(out, "default path (%s route, %d hops): %v\n",
			table.Class(*src), table.Hops(*src), table.ASPath(*src))
		fmt.Fprintf(out, "\nRIB at AS %d towards AS %d:\n", *src, *dst)
		printRIB(out, g, table, *src)
		if *hops {
			for _, v := range table.ASPath(*src)[1:] {
				if v == *dst {
					break
				}
				fmt.Fprintf(out, "\nRIB at on-path AS %d:\n", v)
				printRIB(out, g, table, v)
			}
		}

		full := bgp.CountForwardingPaths(g, table, *src, nil)
		halfMask := make([]bool, g.N())
		for v := 0; v < g.N(); v += 2 {
			halfMask[v] = true
		}
		half := bgp.CountForwardingPaths(g, table, *src, halfMask)
		fmt.Fprintf(out, "\nforwarding paths available: %d at 100%% deployment, %d at 50%%, 1 under plain BGP\n",
			full, half)
		return nil
	}
}

func printRIB(w io.Writer, g *topo.Graph, table *bgp.Dest, v int) {
	rib := bgp.RIB(g, table, v)
	if len(rib) == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	for i, alt := range rib {
		marker := "alt    "
		if i == 0 {
			marker = "default"
		}
		fmt.Fprintf(w, "  %s via AS %-6d class=%-8s hops=%-2d path=%v\n",
			marker, alt.Via, alt.Class, alt.Hops, bgp.PathVia(table, v, int(alt.Via)))
	}
}
