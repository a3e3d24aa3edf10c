// mifo-top shows what MIFO's data plane did to congested links: the
// hottest links by utilization, detected congestion episodes, and the
// offload attribution joining each episode to the deflections that
// relieved it (Fig. 8's offload scalar, resolved per link). It reads a
// time-series dump written by mifo-sim -tsdb-log:
//
//	mifo-top -log tsdb.jsonl                 # tables
//	mifo-top -log tsdb.jsonl -once           # the full report as JSON
//	mifo-top -log tsdb.jsonl -flight f.jsonl # join per-AS flight-recorder deflections
//	mifo-top -log tsdb.jsonl -min-episodes 1 # CI gate: exit 1 below the floor
//
// A dump or flight log it cannot read exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/obs/tsdb"
)

func main() {
	var (
		logPath     = flag.String("log", "", "the mifo-sim -tsdb-log dump to analyze (required)")
		flight      = flag.String("flight", "", "also join a flight-recorder JSONL log: per-AS deflected-journey counts against each episode's link")
		once        = flag.Bool("once", false, "print the report (spec, top links, episode report) as one JSON document instead of tables")
		topN        = flag.Int("top", 10, "links shown in the utilization table")
		threshold   = flag.Float64("threshold", 0, "override the dump's episode threshold (0 = use the spec's)")
		window      = flag.Int64("window", 0, "override the dump's episode window, in the series' timestamp unit (0 = use the spec's)")
		minEpisodes = flag.Int("min-episodes", 0, "exit non-zero when fewer congestion episodes are detected (CI gate)")
	)
	flag.Parse()
	if *logPath == "" {
		fmt.Fprintln(os.Stderr, "mifo-top: -log is required")
		os.Exit(2)
	}

	snap, err := loadDump(*logPath, *threshold, *window)
	if err != nil {
		fatal(err)
	}
	if *flight != "" {
		if err := joinFlight(snap, *flight); err != nil {
			fatal(err)
		}
	}

	if *once {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fatal(err)
		}
	} else {
		render(os.Stdout, snap, *topN)
	}

	if *minEpisodes > 0 && len(snap.Report.Episodes) < *minEpisodes {
		fmt.Fprintf(os.Stderr, "mifo-top: %d congestion episodes detected, want >= %d\n",
			len(snap.Report.Episodes), *minEpisodes)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mifo-top:", err)
	os.Exit(1)
}

// snapshot is everything one view renders; -once emits it verbatim.
type snapshot struct {
	Spec tsdb.EpisodeSpec `json:"spec"`
	// Links is the utilization table, hottest first.
	Links []linkRow `json:"links"`
	// Report is the episode analysis under the effective spec.
	Report *tsdb.Report `json:"report"`
	// DeflectionsByAS joins the flight log (when -flight is given):
	// deflected-journey counts keyed by the AS that deflected.
	DeflectionsByAS map[string]int `json:"deflections_by_as,omitempty"`
}

// linkRow is one util series' retained window, summarized.
type linkRow struct {
	Series string  `json:"series"`
	Last   float64 `json:"last"`
	Peak   float64 `json:"peak"`
	Points int     `json:"points"`
}

// loadDump reads a mifo-sim -tsdb-log file and analyzes it offline.
func loadDump(path string, threshold float64, window int64) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	series, spec, err := tsdb.ReadDump(f)
	if err != nil {
		return nil, err
	}
	if spec.Util == "" {
		return nil, fmt.Errorf("%s carries no episode spec (not a tsdb dump?)", path)
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
		row := linkRow{Series: strings.Join(sd.Values, "/"), Points: len(sd.Points)}
		row.Last = sd.Points[len(sd.Points)-1].V
		for _, p := range sd.Points {
			if p.V > row.Peak {
				row.Peak = p.V
			}
		}
		snap.Links = append(snap.Links, row)
	}
	sortLinks(snap.Links)
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

func sortLinks(rows []linkRow) {
	// Peak first: in a dump every drained link ends at zero utilization,
	// so the final sample says nothing about how hot the link ran.
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Peak != rows[j].Peak {
			return rows[i].Peak > rows[j].Peak
		}
		if rows[i].Last != rows[j].Last {
			return rows[i].Last > rows[j].Last
		}
		return rows[i].Series < rows[j].Series
	})
}

// render prints the human view: spec, hottest links, episode table, and
// the optional flight join.
func render(w io.Writer, snap *snapshot, topN int) {
	sp := snap.Report.Spec
	fmt.Fprintf(w, "util series %q  threshold %.2f  window %d  (%d series scanned)\n",
		sp.Util, sp.Threshold, sp.Window, snap.Report.SeriesScanned)

	fmt.Fprintf(w, "\nhottest links (%d of %d):\n", min(topN, len(snap.Links)), len(snap.Links))
	fmt.Fprintf(w, "  %-24s %8s %8s %8s\n", "link", "util", "peak", "points")
	for i, row := range snap.Links {
		if i >= topN {
			break
		}
		fmt.Fprintf(w, "  %-24s %8.3f %8.3f %8d\n", row.Series, row.Last, row.Peak, row.Points)
	}

	rep := snap.Report
	fmt.Fprintf(w, "\ncongestion episodes: %d on %d links (run totals: %d deflections, %.3g offloaded bits, %.3g in-episode)\n",
		len(rep.Episodes), rep.LinksWithEpisodes, rep.TotalDeflections, rep.TotalOffloadBits, rep.EpisodeOffloadBits)
	if len(rep.Episodes) > 0 {
		// Show the episodes that moved the most traffic; -once emits the
		// full report as JSON when everything is needed.
		shown := append([]tsdb.Episode(nil), rep.Episodes...)
		sort.Slice(shown, func(i, j int) bool {
			if shown[i].OffloadBits != shown[j].OffloadBits {
				return shown[i].OffloadBits > shown[j].OffloadBits
			}
			return shown[i].Start < shown[j].Start
		})
		if len(shown) > 2*topN {
			shown = shown[:2*topN]
		}
		fmt.Fprintf(w, "  %-24s %-14s %6s %6s %6s %10s %14s %12s\n",
			"link", "start", "dur", "peak", "defl", "offload", "relief-lat", "state")
		for _, e := range shown {
			state := "relieved"
			if e.Active {
				state = "active"
			}
			lat := "-"
			if e.ReliefLatency >= 0 {
				lat = fmt.Sprint(e.ReliefLatency)
			}
			fmt.Fprintf(w, "  %-24s %-14d %6d %6.2f %6d %10.3g %14s %12s\n",
				e.Series, e.Start, e.Duration(), e.Peak, e.Deflections, e.OffloadBits, lat, state)
		}
		if n := len(rep.Episodes) - len(shown); n > 0 {
			fmt.Fprintf(w, "  ... %d more episodes (use -once for the full JSON report)\n", n)
		}
	}

	if snap.DeflectionsByAS != nil {
		type kv struct {
			as string
			n  int
		}
		var rows []kv
		for as, n := range snap.DeflectionsByAS {
			rows = append(rows, kv{as, n})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].as < rows[j].as
		})
		fmt.Fprintf(w, "\nflight-recorder join: deflected journeys by AS (%d ASes deflected)\n", len(rows))
		for i, r := range rows {
			if i >= topN {
				break
			}
			fmt.Fprintf(w, "  AS %-6s %6d journeys\n", r.as, r.n)
		}
	}
}
