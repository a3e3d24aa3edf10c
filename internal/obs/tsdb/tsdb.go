// Package tsdb is an embedded time-series store for link telemetry: the
// fourth observability layer next to internal/obs (aggregated metrics),
// internal/audit (per-journey flight records) and internal/obs/span
// (control-plane causality). Where a counter answers "how much, ever" and
// a flight record answers "what happened to this packet", a tsdb series
// answers MIFO's temporal question: which links were congested, for how
// long, and did deflection relieve them.
//
// Each series keeps every raw (timestamp, value) point it was given, in
// one append-only slice: 16 bytes a point, so memory grows with the run
// and nothing is lost. The store is read through Gather and its dumps
// (WriteDump, ReadDump), which the episode analyzer consumes.
//
// The sample path is netsim's per-epoch hook, the store's only producer:
// one writer per series, no locks, and an allocation only when a series'
// slice doubles (TestSampleAllocFree). Every reader — mifo-sim's dump,
// the bench's layers suite — reads the store after the runs that wrote
// it have ended, so a series needs no protection from its readers.
package tsdb

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Store registers and owns series. Registration mirrors the obs.Registry
// idiom — SeriesVec(...).With(values), no labels for a scalar series —
// and takes locks, so concurrent runs may register series in one store;
// sampling never does. Registration is idempotent for identical shapes
// and panics on conflicts, like the metrics registry.
type Store struct {
	mu   sync.Mutex
	fams map[string]*family
	// run hands out run-scoped label values (see NextRun).
	run atomic.Int64
	// spec is the store's default episode-analysis configuration, set by
	// whichever component instruments it (see SetEpisodeSpec).
	spec atomic.Pointer[EpisodeSpec]
}

// NewStore builds an empty store.
func NewStore() *Store {
	return &Store{fams: make(map[string]*family)}
}

// family is one named series family (all series share labels and help).
type family struct {
	name   string
	help   string
	labels []string

	mu     sync.Mutex
	series map[string]*Series
	order  []*Series // registration order, for stable dumps and listings
}

// SeriesVec registers (or returns) a series family; use With to resolve
// a concrete series. Resolve handles once, off the sample path.
func (st *Store) SeriesVec(name, help string, labels ...string) *SeriesVec {
	return &SeriesVec{fam: st.family(name, help, labels)}
}

// seriesName is the form every series name takes, the same as a metric
// name's: lowercase snake_case of at least two segments, the first naming
// the owning component.
var seriesName = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

func (st *Store) family(name, help string, labels []string) *family {
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.fams[name]
	if !ok {
		if !seriesName.MatchString(name) {
			panic(fmt.Sprintf("tsdb: series name %q is not snake_case with a component prefix", name))
		}
		f = &family{name: name, help: help, labels: labels, series: make(map[string]*Series)}
		st.fams[name] = f
		return f
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("tsdb: series %q re-registered with different labels", name))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("tsdb: series %q re-registered with different labels", name))
		}
	}
	return f
}

// NextRun returns a fresh run identifier (1, 2, ...). Components that
// run repeatedly inside one process (netsim: one run per deployment
// point of a sweep) label their series with it so cumulative
// counters and time axes never mix across runs.
func (st *Store) NextRun() int64 { return st.run.Add(1) }

// SetEpisodeSpec installs the store's default episode-analysis
// configuration: which families hold utilization, deflection counts and
// offloaded bits, and the detection knobs. The instrumenting component
// calls it so dumps need no external config.
func (st *Store) SetEpisodeSpec(spec EpisodeSpec) {
	s := spec.withDefaults()
	st.spec.Store(&s)
}

// EpisodeSpec returns the installed default spec (zero value if none).
func (st *Store) EpisodeSpec() EpisodeSpec {
	if p := st.spec.Load(); p != nil {
		return *p
	}
	return EpisodeSpec{}
}

// families snapshots the family list sorted by name.
func (st *Store) families() []*family {
	st.mu.Lock()
	fams := make([]*family, 0, len(st.fams))
	for _, f := range st.fams {
		fams = append(fams, f)
	}
	st.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// SeriesVec resolves label values to concrete series.
type SeriesVec struct{ fam *family }

// With returns the series for the given label values, registering it on
// first use. Like obs vec handles, resolve once and keep the *Series;
// With takes the family lock and allocates on first resolution.
func (v *SeriesVec) With(values ...string) *Series {
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("tsdb: series %q wants %d label values, got %d", v.fam.name, len(v.fam.labels), len(values)))
	}
	return v.fam.with(values)
}

func (f *family) with(values []string) *Series {
	key := joinKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &Series{name: f.name, values: append([]string(nil), values...)}
	f.series[key] = s
	f.order = append(f.order, s)
	return s
}

// snapshotSeries returns the family's series in registration order.
func (f *family) snapshotSeries() []*Series {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Series(nil), f.order...)
}

func joinKey(values []string) string {
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\x1f"
		}
		key += v
	}
	return key
}

// Series is one time series: every point sampled into it, oldest first.
// Exactly one goroutine may call Sample, and nothing may read the series
// while it does.
type Series struct {
	name   string
	values []string
	pts    []Point
}

// Sample appends one point. Single writer per series; timestamps must be
// non-decreasing (the store never reorders). The path takes no lock and
// allocates only when the slice is full, which it then doubles.
func (s *Series) Sample(ts int64, v float64) {
	if len(s.pts) == cap(s.pts) {
		grown := make([]Point, len(s.pts), max(1, 2*len(s.pts)))
		copy(grown, s.pts)
		s.pts = grown
	}
	s.pts = append(s.pts, Point{TS: ts, V: v})
}
