// Package tsdb is an embedded, fixed-memory time-series store for link
// telemetry: the fourth observability layer next to internal/obs
// (aggregated metrics), internal/audit (per-journey flight records) and
// internal/obs/span (control-plane causality). Where a counter answers
// "how much, ever" and a flight record answers "what happened to this
// packet", a tsdb series answers MIFO's temporal question: which links
// were congested, for how long, and did deflection relieve them.
//
// Each series owns a power-of-two ring of raw (timestamp, value) points
// plus two cascading downsampling tiers — every 10 raw points seal one
// tier-1 bucket, every 10 tier-1 buckets seal one tier-2 bucket (100 raw
// points) — each bucket carrying min/max/sum/count so any aggregate is
// derivable at query time. Memory is fixed at registration: nothing
// grows, old data is overwritten in ring order, raw detail degrades into
// buckets exactly the way a query wants coarser data for longer ranges.
//
// The sample path is the contract that makes the store usable from the
// netd link monitor and the simulators' per-epoch hooks: one writer per
// series, no locks, no allocation (//mifo:hotpath, enforced by
// mifolint). Points and buckets land in ring.Words, the single-writer
// overwriting ring of internal/ring, so concurrent readers snapshot
// consistent windows without ever blocking the writer.
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
	// TierCap is the per-tier bucket ring capacity, rounded up to a
	// power of two (default 512; 48 bytes per bucket). Tier 1 then
	// covers TierCap*10 raw samples, tier 2 TierCap*100.
	TierCap int
}

func (o Options) withDefaults() Options {
	if o.RawCap <= 0 {
		o.RawCap = 2048
	}
	if o.TierCap <= 0 {
		o.TierCap = 512
	}
	if o.RawCap < 16 {
		o.RawCap = 16
	}
	if o.TierCap < 16 {
		o.TierCap = 16
	}
	return o
}

// tierFanout is the cascading downsampling ratio: raw -> 10x -> 100x.
const tierFanout = 10

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
// calls it so /debug/tsdb/episodes and dumps need no external config.
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
	s := newSeries(f.name, f.labels, values, f.opt)
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

// Series is one fixed-memory time series: a raw point ring and two
// downsampled bucket tiers. Exactly one goroutine may call Sample; any
// number may snapshot or query concurrently.
type Series struct {
	name   string
	labels []string
	values []string

	raw    ring.Words // pointWords per point: timestamp, value bits
	t1, t2 tier
}

// Record sizes in the rings, in 64-bit words (see Raw and Tier for the
// field order).
const (
	pointWords  = 2
	bucketWords = 6
)

func newSeries(name string, labels, values []string, opt Options) *Series {
	s := &Series{
		name:   name,
		labels: labels,
		values: append([]string(nil), values...),
	}
	s.raw.Init(opt.RawCap, pointWords)
	s.t1.ring.Init(opt.TierCap, bucketWords)
	s.t2.ring.Init(opt.TierCap, bucketWords)
	return s
}

// Name returns the series' family name.
func (s *Series) Name() string { return s.name }

// LabelValues returns the series' label values (nil for unlabeled).
func (s *Series) LabelValues() []string { return s.values }

// Total returns how many points were ever sampled.
func (s *Series) Total() uint64 { return s.raw.Len() }

// Sample records one point. Single writer per series; timestamps must be
// non-decreasing (the store never reorders). The raw point goes into
// its ring, then cascades into the downsampling tiers — all plain
// stores to writer-private accumulators and ring puts, so the whole
// path is lock- and allocation-free.
//
//mifo:hotpath
func (s *Series) Sample(ts int64, v float64) {
	s.raw.Put(uint64(ts), math.Float64bits(v))
	if s.t1.feed(ts, ts, v, v, v, 1) {
		t := &s.t1
		s.t2.feed(t.lastStart, t.lastEnd, t.lastMin, t.lastMax, t.lastSum, t.lastCnt)
	}
}

// tier is one downsampling level: a bucket ring plus the writer-private
// partial accumulator for the bucket being built. The sealed-bucket
// fields (last*) hand a completed bucket to the next tier without
// re-reading the ring.
type tier struct {
	ring ring.Words

	// Writer-private partial accumulator (never read by snapshots).
	feeds  int
	pStart int64
	pEnd   int64
	pMin   float64
	pMax   float64
	pSum   float64
	pCnt   int64

	// Last sealed bucket, for cascading into the next tier.
	lastStart, lastEnd int64
	lastMin, lastMax   float64
	lastSum            float64
	lastCnt            int64
}

// feed folds one raw point or sealed lower-tier bucket into the partial
// accumulator, sealing a bucket of this tier every tierFanout feeds.
// It reports whether a bucket was sealed.
//
//mifo:hotpath
func (t *tier) feed(start, end int64, mn, mx, sum float64, cnt int64) bool {
	if t.feeds == 0 {
		t.pStart, t.pMin, t.pMax = start, mn, mx
		t.pSum, t.pCnt = 0, 0
	}
	t.pEnd = end
	if mn < t.pMin {
		t.pMin = mn
	}
	if mx > t.pMax {
		t.pMax = mx
	}
	t.pSum += sum
	t.pCnt += cnt
	t.feeds++
	if t.feeds < tierFanout {
		return false
	}
	t.feeds = 0
	t.seal()
	return true
}

// seal publishes the partial accumulator as one bucket.
//
//mifo:hotpath
func (t *tier) seal() {
	t.ring.Put(uint64(t.pStart), uint64(t.pEnd),
		math.Float64bits(t.pMin), math.Float64bits(t.pMax), math.Float64bits(t.pSum),
		uint64(t.pCnt))
	t.lastStart, t.lastEnd = t.pStart, t.pEnd
	t.lastMin, t.lastMax = t.pMin, t.pMax
	t.lastSum, t.lastCnt = t.pSum, t.pCnt
}
