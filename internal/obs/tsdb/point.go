package tsdb

import (
	"encoding/json"
	"math"
	"strconv"
)

// Point is one raw sample. It marshals compactly as [ts, v].
type Point struct {
	TS int64
	V  float64
}

// MarshalJSON encodes the point as a two-element array, as WriteDump does.
func (p Point) MarshalJSON() ([]byte, error) {
	return appendPoint(nil, p), nil
}

// UnmarshalJSON decodes the [ts, v] form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var arr [2]json.Number
	if err := json.Unmarshal(b, &arr); err != nil {
		return err
	}
	q, err := pointOf(arr)
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// pointOf converts a decoded [ts, v] pair.
func pointOf(arr [2]json.Number) (Point, error) {
	ts, err := arr[0].Int64()
	if err != nil {
		return Point{}, err
	}
	v, err := arr[1].Float64()
	if err != nil {
		return Point{}, err
	}
	return Point{TS: ts, V: v}, nil
}

// appendPoint appends p's JSON form, [ts,v], to b.
func appendPoint(b []byte, p Point) []byte {
	b = append(b, '[')
	b = strconv.AppendInt(b, p.TS, 10)
	b = append(b, ',')
	b = appendFloat(b, p.V)
	return append(b, ']')
}

// appendFloat keeps JSON compact and round-trippable: an integral value
// below 1e15 as an integer, anything else in the shortest form that reads
// back exactly.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Raw returns the series' points, oldest first: the series' own slice,
// which the caller must not modify.
func (s *Series) Raw() []Point { return s.pts }
