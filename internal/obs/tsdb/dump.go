package tsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/jsonl"
)

// SeriesDump is one series' points in portable form: what Gather hands
// out from a live store, what WriteDump streams to disk, and what the
// episode analyzer consumes — the same shape online and offline, so
// `mifo-inspect tsdb` and mifo-sim's own episode summary agree by
// construction.
type SeriesDump struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Values []string `json:"values,omitempty"`
	Points []Point  `json:"points"`
}

// Gather lists every series of the store: families in name order, each
// family's series in registration order. Points are the series' own
// slices, not copies: call it once the writers are done, and do not
// modify what it returns.
func (st *Store) Gather() []SeriesDump {
	var out []SeriesDump
	for _, f := range st.families() {
		for _, s := range f.snapshotSeries() {
			out = append(out, SeriesDump{Name: s.name, Labels: f.labels, Values: s.values, Points: s.Raw()})
		}
	}
	return out
}

// dump file line kinds.
type dumpHeader struct {
	Kind string      `json:"kind"` // "tsdb"
	Spec EpisodeSpec `json:"spec"`
}

// seriesHead is a series line's fields before its points.
type seriesHead struct {
	Kind   string   `json:"kind"` // "series"
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Values []string `json:"values,omitempty"`
}

// WriteDump streams the store's full contents to a JSONL sink: one
// header line carrying the episode spec, then one line per series.
// The caller owns the sink (and its Close); WriteDump returns the
// first error the write hit.
func (st *Store) WriteDump(sink *jsonl.Sink) error {
	if err := sink.Encode(dumpHeader{Kind: "tsdb", Spec: st.EpisodeSpec()}); err != nil {
		return err
	}
	var line []byte
	for _, sd := range st.Gather() {
		var err error
		if line, err = appendSeriesLine(line[:0], sd); err != nil {
			return err
		}
		if _, err := sink.Write(line); err != nil {
			return err
		}
	}
	return sink.Flush()
}

// appendSeriesLine appends sd's dump line to b: the bytes a json.Encoder
// writes for the line (TestSeriesLineMatchesEncoder). The points, millions
// in a long run's dump, are appended by hand; only the head goes through
// encoding/json, which escapes the names and label values.
func appendSeriesLine(b []byte, sd SeriesDump) ([]byte, error) {
	head, err := json.Marshal(seriesHead{Kind: "series", Name: sd.Name, Labels: sd.Labels, Values: sd.Values})
	if err != nil {
		return b, err
	}
	b = append(b, head[:len(head)-1]...) // without its closing brace
	b = append(b, `,"points":`...)
	if sd.Points == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range sd.Points {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPoint(b, p)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
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
			// The points decode in the same pass as the rest of the line,
			// as bare number pairs.
			var ds struct {
				seriesHead
				Points [][2]json.Number `json:"points"`
			}
			if err := json.Unmarshal(b, &ds); err != nil {
				return nil, spec, fmt.Errorf("tsdb dump line %d: %w", line, err)
			}
			sd := SeriesDump{Name: ds.Name, Labels: ds.Labels, Values: ds.Values}
			if ds.Points != nil {
				sd.Points = make([]Point, len(ds.Points))
			}
			for i, arr := range ds.Points {
				p, err := pointOf(arr)
				if err != nil {
					return nil, spec, fmt.Errorf("tsdb dump line %d: point %d: %w", line, i, err)
				}
				sd.Points[i] = p
			}
			series = append(series, sd)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, spec, err
	}
	return series, spec, nil
}
