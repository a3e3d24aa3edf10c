package tsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/jsonl"
)

// SeriesDump is one series' retained raw window in portable form: what
// Gather snapshots from a live store, what WriteDump streams to disk,
// and what the episode analyzer consumes — the same shape online and
// offline, so `mifo-inspect tsdb` and mifo-sim's own episode summary agree
// by construction.
type SeriesDump struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Values []string `json:"values,omitempty"`
	Points []Point  `json:"points"`
}

// Gather snapshots the named families' series (all families when no
// names are given). Empty names are skipped, so callers can pass a
// spec's optional fields directly.
func (st *Store) Gather(names ...string) []SeriesDump {
	want := map[string]bool{}
	for _, n := range names {
		if n != "" {
			want[n] = true
		}
	}
	var out []SeriesDump
	for _, f := range st.families() {
		if len(want) > 0 && !want[f.name] {
			continue
		}
		for _, s := range f.snapshotSeries() {
			out = append(out, SeriesDump{
				Name:   s.name,
				Labels: f.labels,
				Values: s.values,
				Points: s.Raw(),
			})
		}
	}
	return out
}

// dump file line kinds.
type dumpHeader struct {
	Kind string      `json:"kind"` // "tsdb"
	Spec EpisodeSpec `json:"spec"`
}

type dumpSeries struct {
	Kind string `json:"kind"` // "series"
	SeriesDump
}

// WriteDump streams the store's full contents to a JSONL sink: one
// header line carrying the episode spec, then one line per series.
// The caller owns the sink (and its Close); WriteDump returns the
// first error the write hit.
func (st *Store) WriteDump(sink *jsonl.Sink) error {
	if err := sink.Encode(dumpHeader{Kind: "tsdb", Spec: st.EpisodeSpec()}); err != nil {
		return err
	}
	for _, sd := range st.Gather() {
		if err := sink.Encode(dumpSeries{Kind: "series", SeriesDump: sd}); err != nil {
			return err
		}
	}
	return sink.Flush()
}

// ReadDump parses a dump written by WriteDump (or by hand: unknown line
// kinds are skipped so dumps stay forward-compatible). It returns the
// series and the spec recorded in the header.
func ReadDump(r io.Reader) ([]SeriesDump, EpisodeSpec, error) {
	var (
		series []SeriesDump
		spec   EpisodeSpec
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &kind); err != nil {
			return nil, spec, fmt.Errorf("tsdb dump line %d: %w", line, err)
		}
		switch kind.Kind {
		case "tsdb":
			var h dumpHeader
			if err := json.Unmarshal(b, &h); err != nil {
				return nil, spec, fmt.Errorf("tsdb dump line %d: %w", line, err)
			}
			spec = h.Spec
		case "series":
			var ds dumpSeries
			if err := json.Unmarshal(b, &ds); err != nil {
				return nil, spec, fmt.Errorf("tsdb dump line %d: %w", line, err)
			}
			series = append(series, ds.SeriesDump)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, spec, err
	}
	return series, spec, nil
}
