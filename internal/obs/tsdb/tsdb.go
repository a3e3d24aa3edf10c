// Package tsdb is an embedded, fixed-memory time-series store for link
// telemetry: the fourth observability layer next to internal/obs
// (aggregated metrics), internal/audit (per-journey flight records) and
// internal/obs/span (control-plane causality). Where a counter answers
// "how much, ever" and a flight record answers "what happened to this
// packet", a tsdb series answers MIFO's temporal question: which links
// were congested, for how long, and did deflection relieve them.
//
// Each series owns a power-of-two ring of raw (timestamp, value) points.
// Memory is fixed at registration: nothing grows, and old points are
// overwritten in ring order. The store is read through Gather and its
// dumps (WriteDump, ReadDump), which the episode analyzer consumes.
//
// The sample path is the contract that makes the store usable from the
// simulators' per-epoch hooks: one writer per series, no locks, no
// allocation (//mifo:hotpath, enforced by mifolint). Points land in
// ring.Words, the single-writer overwriting ring of internal/ring, so
// concurrent readers snapshot consistent windows without ever blocking
// the writer.
package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ring"
)

// Options size a Store's rings. The zero value uses defaults.
type Options struct {
	// RawCap is the per-series raw ring capacity in points, rounded up
	// to a power of two (default 2048; 16 bytes per point).
	RawCap int
}

func (o Options) withDefaults() Options {
	if o.RawCap <= 0 {
		o.RawCap = 2048
	}
	if o.RawCap < 16 {
		o.RawCap = 16
	}
	return o
}

// Store registers and owns series. Registration mirrors the obs.Registry
// idiom — Series for an unlabeled series, SeriesVec(...).With(values)
// for labeled ones — and takes locks; sampling never does. Registration
// is idempotent for identical shapes and panics on conflicts, like the
// metrics registry.
type Store struct {
	opt  Options
	mu   sync.Mutex
	fams map[string]*family
	// run hands out run-scoped label values (see NextRun).
	run atomic.Int64
	// spec is the store's default episode-analysis configuration, set by
	// whichever component instruments it (see SetEpisodeSpec).
	spec atomic.Pointer[EpisodeSpec]
}

// NewStore builds an empty store.
func NewStore(opts ...Options) *Store {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return &Store{opt: o.withDefaults(), fams: make(map[string]*family)}
}

// family is one named series family (all series share labels and help).
type family struct {
	name   string
	help   string
	labels []string
	opt    Options

	mu     sync.Mutex
	series map[string]*Series
	order  []*Series // registration order, for stable dumps and listings
}

// Series registers (or returns) the unlabeled series called name.
func (st *Store) Series(name, help string) *Series {
	f := st.family(name, help, nil)
	return f.with(nil)
}

// SeriesVec registers (or returns) a labeled series family; use With to
// resolve a concrete series. Resolve handles once, off the sample path.
func (st *Store) SeriesVec(name, help string, labels ...string) *SeriesVec {
	if len(labels) == 0 {
		panic("tsdb: SeriesVec needs at least one label (use Series)")
	}
	return &SeriesVec{fam: st.family(name, help, labels)}
}

func (st *Store) family(name, help string, labels []string) *family {
	if name == "" {
		panic("tsdb: empty series name")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f, ok := st.fams[name]
	if !ok {
		f = &family{name: name, help: help, labels: labels, opt: st.opt, series: make(map[string]*Series)}
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
// run repeatedly inside one process (the simulators: one run per
// deployment point of a sweep) label their series with it so cumulative
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
	s := newSeries(f.name, values, f.opt)
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

// Series is one fixed-memory time series: a ring of raw points.
// Exactly one goroutine may call Sample; any number may snapshot
// concurrently.
type Series struct {
	name   string
	values []string

	raw ring.Words // pointWords per point: timestamp, value bits
}

// pointWords is a point's size in the ring, in 64-bit words (see Raw for
// the field order).
const pointWords = 2

func newSeries(name string, values []string, opt Options) *Series {
	s := &Series{
		name:   name,
		values: append([]string(nil), values...),
	}
	s.raw.Init(opt.RawCap, pointWords)
	return s
}

// Sample records one point. Single writer per series; timestamps must be
// non-decreasing (the store never reorders). The point is one ring put,
// so the path is lock- and allocation-free.
//
//mifo:hotpath
func (s *Series) Sample(ts int64, v float64) {
	s.raw.Put(uint64(ts), math.Float64bits(v))
}
