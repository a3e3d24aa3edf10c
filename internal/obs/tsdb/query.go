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

// Bucket is one aggregated interval: a sealed downsampling bucket, or a
// query-time re-aggregation of raw points / finer buckets.
type Bucket struct {
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Sum   float64 `json:"sum"`
	Count int64   `json:"count"`
}

// Avg returns the bucket's mean value.
func (b Bucket) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Raw snapshots the series' retained raw points, oldest first, appending
// to buf. Once the ring has wrapped a snapshot retains at most
// capacity-1 points (see ring.Words).
func (s *Series) Raw(buf []Point) []Point {
	w := s.raw.Snapshot()
	out := buf[:0]
	if n := len(w) / pointWords; cap(out) < n {
		out = make([]Point, 0, n)
	}
	for ; len(w) >= pointWords; w = w[pointWords:] {
		out = append(out, pointOf(w))
	}
	return out
}

// Latest returns the most recent point, if any.
func (s *Series) Latest() (Point, bool) {
	var buf [pointWords]uint64
	w, ok := s.raw.Last(buf[:])
	if !ok {
		return Point{}, false
	}
	return pointOf(w), true
}

func pointOf(w []uint64) Point {
	return Point{TS: int64(w[0]), V: math.Float64frombits(w[1])}
}

// Tier snapshots a downsampling tier's sealed buckets, oldest first
// (level 1 = 10 raw points per bucket, level 2 = 100), appending to buf.
func (s *Series) Tier(level int, buf []Bucket) []Bucket {
	var t *tier
	switch level {
	case 1:
		t = &s.t1
	case 2:
		t = &s.t2
	default:
		return buf[:0]
	}
	w := t.ring.Snapshot()
	out := buf[:0]
	if n := len(w) / bucketWords; cap(out) < n {
		out = make([]Bucket, 0, n)
	}
	for ; len(w) >= bucketWords; w = w[bucketWords:] {
		out = append(out, Bucket{
			Start: int64(w[0]),
			End:   int64(w[1]),
			Min:   math.Float64frombits(w[2]),
			Max:   math.Float64frombits(w[3]),
			Sum:   math.Float64frombits(w[4]),
			Count: int64(w[5]),
		})
	}
	return out
}

// QueryOpts select a time range and output resolution.
type QueryOpts struct {
	// From/To bound the range in the series' own timestamp unit
	// (nanoseconds by convention); To <= 0 means "to the newest point".
	From, To int64
	// Step, when > 0, re-aggregates the chosen resolution into buckets
	// of this width aligned to From. Step == 0 returns the source
	// resolution unchanged.
	Step int64
	// Tier forces a resolution: 0 = raw, 1, 2, or -1 (default here
	// means auto: the finest tier whose retained data still covers
	// From).
	Tier int
}

// Query returns aggregated buckets for the requested range. With
// Tier == -1 it cascades: raw if the raw ring still reaches back to
// From, else tier 1, else tier 2 — so short ranges get full detail and
// long ranges degrade gracefully instead of coming back empty.
func (s *Series) Query(q QueryOpts) []Bucket {
	var src []Bucket
	switch {
	case q.Tier == 0:
		src = pointsToBuckets(s.Raw(nil))
	case q.Tier == 1 || q.Tier == 2:
		src = s.Tier(q.Tier, nil)
	default:
		src = pointsToBuckets(s.Raw(nil))
		if len(src) > 0 && src[0].Start > q.From {
			if t1 := s.Tier(1, nil); len(t1) > 0 && t1[0].Start < src[0].Start {
				src = t1
				if src[0].Start > q.From {
					if t2 := s.Tier(2, nil); len(t2) > 0 && t2[0].Start < src[0].Start {
						src = t2
					}
				}
			}
		}
	}
	// Range filter.
	out := src[:0]
	for _, b := range src {
		if b.End < q.From {
			continue
		}
		if q.To > 0 && b.Start > q.To {
			break
		}
		out = append(out, b)
	}
	if q.Step <= 0 || len(out) == 0 {
		return out
	}
	return rebucket(out, q.From, q.Step)
}

// pointsToBuckets lifts raw points into single-sample buckets.
func pointsToBuckets(pts []Point) []Bucket {
	out := make([]Bucket, len(pts))
	for i, p := range pts {
		out[i] = Bucket{Start: p.TS, End: p.TS, Min: p.V, Max: p.V, Sum: p.V, Count: 1}
	}
	return out
}

// rebucket merges source buckets into step-wide output buckets aligned
// to origin. A source bucket lands in the output bucket its Start falls
// into (sealed buckets never straddle queries' step boundaries exactly;
// min/max/sum/count merging keeps every aggregate derivable).
func rebucket(src []Bucket, origin, step int64) []Bucket {
	var out []Bucket
	cur := -1
	var curSlot int64
	for _, b := range src {
		slot := (b.Start - origin) / step
		if b.Start < origin {
			slot = 0
		}
		if cur < 0 || slot != curSlot {
			out = append(out, Bucket{
				Start: origin + slot*step,
				End:   origin + (slot+1)*step,
				Min:   b.Min, Max: b.Max,
			})
			cur = len(out) - 1
			curSlot = slot
		}
		o := &out[cur]
		if b.Min < o.Min {
			o.Min = b.Min
		}
		if b.Max > o.Max {
			o.Max = b.Max
		}
		o.Sum += b.Sum
		o.Count += b.Count
	}
	return out
}
