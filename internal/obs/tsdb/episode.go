package tsdb

import (
	"fmt"
	"sort"
)

// The episode analyzer turns per-link utilization series into the report
// MIFO's evaluation actually needs: congestion episodes (utilization at
// or above a threshold for at least a window) joined against the same
// link's cumulative deflection and offloaded-bits series, so every
// episode answers "how hot, for how long, how many flows were deflected
// off this link, how much traffic moved, and how fast did relief come"
// — Fig. 8's single offload scalar, resolved per link and per episode.

// EpisodeSpec names the families the analyzer joins and tunes detection.
// Components that instrument a Store install their spec with
// SetEpisodeSpec so dumps are self-describing.
type EpisodeSpec struct {
	// Util is the utilization family (fraction of capacity, 0..1; failed
	// links may read as 2). Required.
	Util string `json:"util"`
	// Deflections is the cumulative per-link deflection-count family
	// with the same labels as Util (optional).
	Deflections string `json:"deflections,omitempty"`
	// OffloadBits is the cumulative per-link offloaded-bits family with
	// the same labels as Util (optional): bits that crossed an
	// alternative path because this link's congestion deflected them.
	OffloadBits string `json:"offload_bits,omitempty"`
	// Threshold is the congestion threshold (default 0.95).
	Threshold float64 `json:"threshold"`
	// Window is the minimum duration, in the series' timestamp unit,
	// utilization must hold at or above Threshold to count as an episode
	// (default 10e6 ns = two default netsim control epochs).
	Window int64 `json:"window"`
	// MaxGap ends an episode when consecutive samples are further apart
	// than this (default 1e9 ns): a sampling gap means the component
	// stopped observing the link, not that congestion persisted.
	MaxGap int64 `json:"max_gap"`
}

func (sp EpisodeSpec) withDefaults() EpisodeSpec {
	if sp.Threshold <= 0 {
		sp.Threshold = 0.95
	}
	if sp.Window <= 0 {
		sp.Window = 10e6
	}
	if sp.MaxGap <= 0 {
		sp.MaxGap = 1e9
	}
	return sp
}

// Episode is one detected congestion episode on one link, with offload
// attribution joined from the cumulative companion series.
type Episode struct {
	// Series identifies the link: the util series' label values joined
	// by "/" (run/link for netsim's utilization series).
	Series string `json:"series"`
	// Labels are the raw label values of the util series.
	Labels []string `json:"labels,omitempty"`
	// Start is the first at-or-above-threshold sample; End is the first
	// below-threshold sample after it (relief), or the last sample when
	// the episode was still active at snapshot time.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Active marks an episode with no relief observed yet.
	Active bool `json:"active,omitempty"`
	// Peak and Mean summarize utilization over the episode's samples.
	Peak float64 `json:"peak"`
	Mean float64 `json:"mean"`
	// Samples is how many at-or-above-threshold points the episode spans.
	Samples int `json:"samples"`

	// Deflections is how many flows were deflected off this link during
	// the episode (cumulative-series delta); FirstDeflection is the
	// timestamp of the first one, or -1 if none.
	Deflections     int64 `json:"deflections"`
	FirstDeflection int64 `json:"first_deflection"`
	// OffloadBits is the traffic moved off this link during the episode
	// (cumulative-series delta, in bits).
	OffloadBits float64 `json:"offload_bits"`
	// ReliefLatency is End - FirstDeflection: how long after the first
	// deflection the link fell back below the threshold (-1 when the
	// episode saw no deflection or no relief).
	ReliefLatency int64 `json:"relief_latency"`
	// ReliefDrop is the utilization drop from the sample at the first
	// deflection to the relief sample (0 when not measurable).
	ReliefDrop float64 `json:"relief_drop"`
}

// Duration returns End - Start.
func (e Episode) Duration() int64 { return e.End - e.Start }

// Report is the analyzer's output over one snapshot or dump.
type Report struct {
	Spec EpisodeSpec `json:"spec"`
	// Episodes are sorted by start time, then series.
	Episodes []Episode `json:"episodes"`
	// SeriesScanned counts util series examined; LinksWithEpisodes the
	// subset that had at least one episode.
	SeriesScanned     int `json:"series_scanned"`
	LinksWithEpisodes int `json:"links_with_episodes"`
	// TotalDeflections and TotalOffloadBits are whole-run totals over
	// the cumulative companion series (last sample of each), not just
	// the in-episode deltas — TotalOffloadBits is the figure that must
	// agree with netsim's Results accounting.
	TotalDeflections int64   `json:"total_deflections"`
	TotalOffloadBits float64 `json:"total_offload_bits"`
	// EpisodeOffloadBits is the in-episode subset of TotalOffloadBits.
	EpisodeOffloadBits float64 `json:"episode_offload_bits"`
}

// Analyze runs episode detection over a set of dumped or gathered
// series. The util family named by the spec is scanned; companion
// cumulative families are joined by label values.
func Analyze(series []SeriesDump, spec EpisodeSpec) *Report {
	spec = spec.withDefaults()
	rep := &Report{Spec: spec}
	defl := map[string][]Point{}
	off := map[string][]Point{}
	for _, sd := range series {
		key := joinKey(sd.Values)
		switch sd.Name {
		case spec.Deflections:
			defl[key] = sd.Points
			if n := len(sd.Points); n > 0 {
				rep.TotalDeflections += int64(sd.Points[n-1].V)
			}
		case spec.OffloadBits:
			off[key] = sd.Points
			if n := len(sd.Points); n > 0 {
				rep.TotalOffloadBits += sd.Points[n-1].V
			}
		}
	}
	for _, sd := range series {
		if sd.Name != spec.Util {
			continue
		}
		rep.SeriesScanned++
		key := joinKey(sd.Values)
		eps := detect(sd, spec)
		if len(eps) == 0 {
			continue
		}
		rep.LinksWithEpisodes++
		for i := range eps {
			attribute(&eps[i], sd.Points, defl[key], off[key])
			rep.EpisodeOffloadBits += eps[i].OffloadBits
		}
		rep.Episodes = append(rep.Episodes, eps...)
	}
	sort.Slice(rep.Episodes, func(i, j int) bool {
		a, b := rep.Episodes[i], rep.Episodes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Series < b.Series
	})
	return rep
}

// detect finds the maximal at-or-above-threshold runs in one util
// series that last at least the window and have no sampling gap wider
// than MaxGap.
func detect(sd SeriesDump, spec EpisodeSpec) []Episode {
	var out []Episode
	var cur *Episode
	var sum float64
	var lastTS int64
	flush := func(active bool) {
		if cur == nil {
			return
		}
		if active {
			cur.Active = true
			cur.End = lastTS
		}
		if cur.End-cur.Start >= spec.Window {
			cur.Mean = sum / float64(cur.Samples)
			out = append(out, *cur)
		}
		cur = nil
	}
	for _, p := range sd.Points {
		if cur != nil && p.TS-lastTS > spec.MaxGap {
			flush(true) // observation gap: close at the last seen sample
		}
		switch {
		case p.V >= spec.Threshold:
			if cur == nil {
				cur = &Episode{
					Series:          joinSlash(sd.Values),
					Labels:          sd.Values,
					Start:           p.TS,
					FirstDeflection: -1,
					ReliefLatency:   -1,
					Peak:            p.V,
				}
				sum = 0
			}
			if p.V > cur.Peak {
				cur.Peak = p.V
			}
			sum += p.V
			cur.Samples++
			cur.End = p.TS // provisional; relief or flush finalizes
		default:
			if cur != nil {
				cur.End = p.TS // relief: first below-threshold sample
				flush(false)
			}
		}
		lastTS = p.TS
	}
	flush(true)
	return out
}

// attribute joins one episode against its link's cumulative deflection
// and offload series and the util points (for relief quality).
func attribute(e *Episode, util, defl, off []Point) {
	if len(defl) > 0 {
		dStart := cumulativeAt(defl, e.Start)
		dEnd := cumulativeEnd(defl, e.End, e.Active)
		e.Deflections = int64(dEnd - dStart)
		for _, p := range defl {
			if p.TS > e.End && !e.Active {
				break
			}
			if p.V > dStart {
				e.FirstDeflection = p.TS
				break
			}
		}
	}
	if len(off) > 0 {
		e.OffloadBits = cumulativeEnd(off, e.End, e.Active) - cumulativeAt(off, e.Start)
		if e.OffloadBits < 0 {
			e.OffloadBits = 0
		}
	}
	if e.FirstDeflection >= 0 && !e.Active {
		e.ReliefLatency = e.End - e.FirstDeflection
		uAtDefl := utilAt(util, e.FirstDeflection)
		uAtEnd := utilAt(util, e.End)
		if uAtDefl > uAtEnd {
			e.ReliefDrop = uAtDefl - uAtEnd
		}
	}
}

// cumulativeAt returns the cumulative series' value at the last sample
// at or before ts (0 before the first sample: cumulative counters start
// from zero).
func cumulativeAt(pts []Point, ts int64) float64 {
	v := 0.0
	for _, p := range pts {
		if p.TS > ts {
			break
		}
		v = p.V
	}
	return v
}

// cumulativeEnd returns the value at the first sample at or after ts
// (capturing increments that landed between the episode's last two util
// samples), or the last value for still-active episodes.
func cumulativeEnd(pts []Point, ts int64, active bool) float64 {
	if active {
		if len(pts) == 0 {
			return 0
		}
		return pts[len(pts)-1].V
	}
	v := 0.0
	for _, p := range pts {
		v = p.V
		if p.TS >= ts {
			break
		}
	}
	return v
}

// utilAt returns the utilization at the last sample at or before ts.
func utilAt(pts []Point, ts int64) float64 {
	v := 0.0
	for _, p := range pts {
		if p.TS > ts {
			break
		}
		v = p.V
	}
	return v
}

func joinSlash(values []string) string {
	if len(values) == 0 {
		return ""
	}
	out := values[0]
	for _, v := range values[1:] {
		out += "/" + v
	}
	return out
}

// String renders one episode as a compact human-readable line.
func (e Episode) String() string {
	state := "relieved"
	if e.Active {
		state = "active"
	}
	return fmt.Sprintf("%s: [%d..%d] peak %.2f mean %.2f defl %d offload %.0f bits (%s)",
		e.Series, e.Start, e.End, e.Peak, e.Mean, e.Deflections, e.OffloadBits, state)
}
