package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ReadRecords streams a JSONL flight log, invoking fn per record. Blank
// lines are skipped; a malformed line, or one whose kind is neither
// KindPacket nor KindPath, aborts with an error naming it.
func ReadRecords(r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("audit: line %d: %w", line, err)
		}
		if rec.Kind != KindPacket && rec.Kind != KindPath {
			return fmt.Errorf("audit: line %d: record kind %q is neither %q nor %q", line, rec.Kind, KindPacket, KindPath)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// PrefixStat aggregates one destination prefix's records.
type PrefixStat struct {
	Dst         int32
	Records     int
	Deflected   int // records with at least one deflected step
	Deflections int // total deflected steps
	Violations  int
}

// DeflectionRate is the share of this prefix's journeys that used an
// alternative path.
func (p PrefixStat) DeflectionRate() float64 {
	if p.Records == 0 {
		return 0
	}
	return float64(p.Deflected) / float64(p.Records)
}

// Summary is the aggregate view of a flight log, the payload behind
// `mifo-inspect flight`'s default report.
type Summary struct {
	Records       int
	PacketRecords int
	PathRecords   int
	Verdicts      map[string]int
	DropReasons   map[string]int

	// Deflection accounting.
	DeflectedRecords int
	TotalDeflections int

	// Path length and stretch (AS hops; stretch only where BaselineLen
	// is known).
	PathLen    map[int]int
	Stretch    map[int]int
	StretchN   int
	lenSamples int
	lenSum     int

	// Invariant accounting — all zero in a correct run.
	Violations       map[string]int
	TotalViolations  int
	ViolationSamples []string

	PerPrefix map[int32]*PrefixStat
}

// Summarize aggregates every record of a JSONL flight log.
func Summarize(r io.Reader) (*Summary, error) {
	s := &Summary{
		Verdicts:    map[string]int{},
		DropReasons: map[string]int{},
		PathLen:     map[int]int{},
		Stretch:     map[int]int{},
		Violations:  map[string]int{},
		PerPrefix:   map[int32]*PrefixStat{},
	}
	err := ReadRecords(r, func(rec Record) error {
		s.add(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

const maxViolationSamples = 8

func (s *Summary) add(rec Record) {
	s.Records++
	switch rec.Kind {
	case KindPath:
		s.PathRecords++
	default:
		s.PacketRecords++
	}
	s.Verdicts[rec.Verdict]++
	if rec.Verdict == VerdictDropped && rec.Reason != "" {
		s.DropReasons[rec.Reason]++
	}
	if rec.Deflections > 0 {
		s.DeflectedRecords++
		s.TotalDeflections += rec.Deflections
	}
	n := rec.ASPathLen()
	s.PathLen[n]++
	s.lenSamples++
	s.lenSum += n
	if rec.BaselineLen > 0 {
		s.Stretch[n-rec.BaselineLen]++
		s.StretchN++
	}
	for _, v := range rec.Violations {
		s.Violations[v.Invariant.String()]++
		s.TotalViolations++
		if len(s.ViolationSamples) < maxViolationSamples {
			s.ViolationSamples = append(s.ViolationSamples,
				fmt.Sprintf("record %d step %d: %s: %s", rec.Seq, v.Step, v.Invariant, v.Detail))
		}
	}
	ps := s.PerPrefix[rec.Dst]
	if ps == nil {
		ps = &PrefixStat{Dst: rec.Dst}
		s.PerPrefix[rec.Dst] = ps
	}
	ps.Records++
	if rec.Deflections > 0 {
		ps.Deflected++
		ps.Deflections += rec.Deflections
	}
	ps.Violations += len(rec.Violations)
}

// TopPrefixes returns at most n of the busiest prefixes by record count,
// deflection-heavy first among ties.
func (s *Summary) TopPrefixes(n int) []*PrefixStat {
	out := make([]*PrefixStat, 0, len(s.PerPrefix))
	for _, p := range s.PerPrefix {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Records != out[j].Records {
			return out[i].Records > out[j].Records
		}
		if out[i].Deflections != out[j].Deflections {
			return out[i].Deflections > out[j].Deflections
		}
		return out[i].Dst < out[j].Dst
	})
	return out[:max(0, min(n, len(out)))]
}

// MeanPathLen is the mean journey length in AS hops.
func (s *Summary) MeanPathLen() float64 {
	if s.lenSamples == 0 {
		return 0
	}
	return float64(s.lenSum) / float64(s.lenSamples)
}

// Format renders the report `mifo-inspect flight` prints. top bounds the
// per-prefix table.
func (s *Summary) Format(w io.Writer, top int) {
	fmt.Fprintf(w, "flight log: %d records (%d packet, %d flow-path)\n",
		s.Records, s.PacketRecords, s.PathRecords)
	for _, v := range sortedKeys(s.Verdicts) {
		fmt.Fprintf(w, "  %-10s %d\n", v, s.Verdicts[v])
	}
	if len(s.DropReasons) > 0 {
		fmt.Fprintf(w, "drop reasons:\n")
		for _, k := range sortedKeys(s.DropReasons) {
			fmt.Fprintf(w, "  %-12s %d\n", k, s.DropReasons[k])
		}
	}

	rate := 0.0
	if s.Records > 0 {
		rate = 100 * float64(s.DeflectedRecords) / float64(s.Records)
	}
	fmt.Fprintf(w, "\ndeflections: %d across %d records (%.1f%% of journeys deflected)\n",
		s.TotalDeflections, s.DeflectedRecords, rate)

	fmt.Fprintf(w, "\npath length (AS hops): mean %.2f\n", s.MeanPathLen())
	writeIntHist(w, s.PathLen)
	if s.StretchN > 0 {
		fmt.Fprintf(w, "stretch vs BGP default path (AS hops, %d journeys with a baseline):\n", s.StretchN)
		writeIntHist(w, s.Stretch)
	}

	fmt.Fprintf(w, "\ninvariant violations: %d (should be zero)\n", s.TotalViolations)
	if s.TotalViolations > 0 {
		for _, k := range sortedKeys(s.Violations) {
			fmt.Fprintf(w, "  %-12s %d\n", k, s.Violations[k])
		}
		for _, sample := range s.ViolationSamples {
			fmt.Fprintf(w, "  ! %s\n", sample)
		}
	}

	fmt.Fprintf(w, "\ntop %d prefixes by journeys:\n", top)
	fmt.Fprintf(w, "  %-8s %8s %10s %12s %6s\n", "prefix", "records", "deflected", "deflections", "viol")
	for _, p := range s.TopPrefixes(top) {
		fmt.Fprintf(w, "  %-8d %8d %9.1f%% %12d %6d\n",
			p.Dst, p.Records, 100*p.DeflectionRate(), p.Deflections, p.Violations)
	}
}

func writeIntHist(w io.Writer, h map[int]int) {
	keys := make([]int, 0, len(h))
	total := 0
	for k, n := range h {
		keys = append(keys, k)
		total += n
	}
	sort.Ints(keys)
	for _, k := range keys {
		n := h[k]
		bar := strings.Repeat("#", int(40*float64(n)/float64(total)+0.5))
		fmt.Fprintf(w, "  %4d  %8d  %s\n", k, n, bar)
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatRecord pretty-prints one journey hop by hop — the `mifo-inspect
// flight -packet` drill-down.
func FormatRecord(w io.Writer, rec Record) {
	fmt.Fprintf(w, "record %d: %s flow=%d", rec.Seq, rec.Kind, rec.Flow)
	if rec.PktID != 0 {
		fmt.Fprintf(w, " pkt=%d", rec.PktID)
	}
	fmt.Fprintf(w, " dst=%d verdict=%s", rec.Dst, rec.Verdict)
	if rec.Reason != "" {
		fmt.Fprintf(w, " (%s)", rec.Reason)
	}
	if rec.BaselineLen > 0 {
		fmt.Fprintf(w, " baseline=%d AS hops", rec.BaselineLen)
	}
	fmt.Fprintln(w)
	for i, s := range rec.Steps {
		marks := ""
		if s.Deflected {
			marks += " DEFLECTED"
		}
		if s.EncapArrival {
			marks += " encap-in"
		}
		if s.Encap {
			marks += " encap-out"
		}
		if s.Refused != EdgeNone {
			marks += fmt.Sprintf(" refused=%s", s.Refused)
		}
		tag := "-"
		if s.Tag {
			tag = "T"
		}
		loc := fmt.Sprintf("AS%d", s.AS)
		if s.Router >= 0 {
			loc = fmt.Sprintf("AS%d/r%d", s.AS, s.Router)
		}
		fmt.Fprintf(w, "  hop %2d  %-12s tag=%s edge=%-8s%s\n", i, loc, tag, s.Edge, marks)
	}
	for _, v := range rec.Violations {
		fmt.Fprintf(w, "  ! step %d: %s: %s\n", v.Step, v.Invariant, v.Detail)
	}
}
