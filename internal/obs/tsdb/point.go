package tsdb

import (
	"encoding/json"
	"fmt"
	"math"
)

// Point is one raw sample. It marshals compactly as [ts, v].
type Point struct {
	TS int64
	V  float64
}

// MarshalJSON encodes the point as a two-element array.
func (p Point) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("[%d,%s]", p.TS, formatFloat(p.V))), nil
}

// UnmarshalJSON decodes the [ts, v] form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var arr [2]json.Number
	if err := json.Unmarshal(b, &arr); err != nil {
		return err
	}
	ts, err := arr[0].Int64()
	if err != nil {
		return err
	}
	v, err := arr[1].Float64()
	if err != nil {
		return err
	}
	p.TS, p.V = ts, v
	return nil
}

// formatFloat keeps JSON compact and round-trippable.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Raw snapshots the series' retained raw points, oldest first, and how
// many older points the ring overwrote. Once the ring has wrapped a
// snapshot retains at most capacity-1 points (see ring.Words).
func (s *Series) Raw() (pts []Point, overwritten int64) {
	w, written := s.raw.Snapshot()
	overwritten = int64(written) - int64(len(w)/pointWords)
	if len(w) == 0 {
		return nil, overwritten // a dump writes an empty series' points as null
	}
	pts = make([]Point, 0, len(w)/pointWords)
	for ; len(w) >= pointWords; w = w[pointWords:] {
		pts = append(pts, Point{TS: int64(w[0]), V: math.Float64frombits(w[1])})
	}
	return pts, overwritten
}
