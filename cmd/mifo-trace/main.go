// mifo-trace analyses a packet flight-recorder log (JSONL, produced by
// mifo-sim -flight-log or any audit.Recorder sink) entirely offline: the
// report is recomputed from the records alone, so it doubles as a
// cross-check of the live obs counters.
//
// Usage:
//
//	mifo-sim -exp fig8 -flight-log flight.jsonl
//	mifo-trace flight.jsonl                 # aggregate report
//	mifo-trace -top 20 flight.jsonl         # wider per-prefix table
//	mifo-trace -packet 17 flight.jsonl      # hop-by-hop drill-down of record 17
//	mifo-trace -flow 42 flight.jsonl        # all journeys of flow 42
//	cat flight.jsonl | mifo-trace           # reads stdin without a file arg
//
// Exit status is 2 when the log contains invariant violations, so the
// auditor can gate CI: `mifo-trace flight.jsonl || fail`. A malformed
// line exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/audit"
)

func main() {
	var (
		top    = flag.Int("top", 10, "rows in the per-prefix table")
		packet = flag.Int64("packet", -1, "drill into one record by its sequence number")
		flow   = flag.Int64("flow", -1, "drill into every journey of one flow ID")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() > 1 {
		fatal(fmt.Errorf("at most one log file argument, got %d", flag.NArg()))
	}
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	if *packet >= 0 || *flow >= 0 {
		if err := drill(in, *packet, *flow); err != nil {
			fatal(err)
		}
		return
	}

	sum, err := audit.Summarize(in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s\n", name)
	sum.Format(os.Stdout, *top)
	if sum.TotalViolations > 0 {
		os.Exit(2)
	}
}

// drill streams the log and pretty-prints every matching record. A -packet
// filter matches the record's sequence number; -flow matches its flow ID
// (all packets/paths of that flow). Both given means both must match.
func drill(in io.Reader, packet, flow int64) error {
	matched := 0
	err := audit.ReadRecords(in, func(rec audit.Record) error {
		if packet >= 0 && int64(rec.Seq) != packet {
			return nil
		}
		if flow >= 0 && rec.Flow != uint64(flow) {
			return nil
		}
		if matched > 0 {
			fmt.Println()
		}
		audit.FormatRecord(os.Stdout, rec)
		matched++
		return nil
	})
	if err != nil {
		return err
	}
	if matched == 0 {
		return fmt.Errorf("no matching record (packet=%d flow=%d)", packet, flow)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mifo-trace:", err)
	os.Exit(1)
}
