package span

import (
	"io"
	"sync"
	"time"

	"repro/internal/jsonl"
	"repro/internal/obs"
	"repro/internal/ring"
)

// Options configure a Tracer. The zero value keeps spans in memory only
// (ring segments with nothing draining them into a sink still feed
// Stats) and exports no metrics.
type Options struct {
	// Writer, when non-nil, receives one JSONL line per finished span as
	// the collector drains it. The collector serializes writes; buffering
	// and closing the underlying file are the caller's job.
	Writer io.Writer
	// Segments is the number of ring segments span records are sharded
	// over, rounded up to a power of two (default 8). SegmentCap is each
	// segment's capacity in records, rounded up to a power of two
	// (default 4096). A full segment sheds records rather than stalling
	// the instrumented pipeline.
	Segments   int
	SegmentCap int
	// Poll is the collector's drain period (default 1ms).
	Poll time.Duration
	// Registry, when non-nil, exports span_records_total,
	// span_traces_total, span_dropped_total, span_backpressure_total,
	// span_queue_depth/highwater gauges, and the per-stage duration
	// histogram span_stage_seconds{stage}.
	Registry *obs.Registry
	// Clock overrides the monotonic timestamp source (nanoseconds since
	// an arbitrary origin). Tests use it for deterministic durations; nil
	// uses the wall clock's monotonic reading since tracer creation.
	Clock func() int64
}

// Stats is a snapshot of a tracer's counters.
type Stats struct {
	// Records counts spans collected; Roots counts the subset that were
	// trace roots (failure events, for the convergence instrumentation).
	Records uint64
	Roots   uint64
	// Dropped counts spans shed because a ring segment stayed full;
	// Backpressure counts ring-full events where the producer yielded
	// once before retrying.
	Dropped      uint64
	Backpressure uint64
}

// collector is the cold half of the Tracer: what the rings' drain
// goroutine does with each record — write it as JSONL, mirror counters
// into obs. The fields are grouped here so span.go stays all hot path.
type collector struct {
	// mu guards the snapshot state shared with callers. The first sink
	// error lives in the jsonl sink itself.
	mu    sync.Mutex
	stats Stats

	// Collector-goroutine-owned state; no locking (single goroutine). The
	// sink serializes internally and retains the first write error.
	sink                        *jsonl.Sink
	records, roots              uint64
	pubDropped, pubBackpressure int64

	recTotal, rootTotal             *obs.Counter
	droppedTotal, backpressureTotal *obs.Counter
	queueDepth, queueHigh           *obs.Gauge
	stageVec                        *obs.HistogramVec
	// stageHist caches label resolution so the drain loop skips the
	// family lock for names it has already seen.
	stageHist map[string]*obs.Histogram
}

// New builds a tracer from options, enabled, and starts its collector.
// Call Close when done; a tracer that is never closed leaks one
// goroutine and leaves undrained spans in its rings.
func New(o Options) *Tracer {
	t := &Tracer{
		epoch: time.Now(),
		clock: o.Clock,
	}
	if t.clock == nil {
		tscOnce.Do(calibrateTSC)
		t.tscScale = tscScale
		t.tscEpoch = rdtsc()
	}
	poll := o.Poll
	if poll <= 0 {
		poll = time.Millisecond
	}
	poll = max(poll, 200*time.Microsecond)
	if o.Writer != nil {
		t.sink = jsonl.New(o.Writer)
	}
	nseg := o.Segments
	if nseg <= 0 {
		nseg = 8
	}
	segCap := o.SegmentCap
	if segCap <= 0 {
		segCap = 4096
	}
	if o.Registry != nil {
		t.recTotal = o.Registry.Counter("span_records_total", "spans collected from the tracing rings")
		t.rootTotal = o.Registry.Counter("span_traces_total", "root spans collected (one per traced failure event)")
		t.droppedTotal = o.Registry.Counter("span_dropped_total", "spans shed because a ring segment stayed full")
		t.backpressureTotal = o.Registry.Counter("span_backpressure_total", "ring-full events where a producer yielded before retrying")
		t.queueDepth = o.Registry.Gauge("span_queue_depth", "span records pending in the tracing ring segments")
		t.queueHigh = o.Registry.Gauge("span_queue_highwater", "highest pending span-record count observed")
		t.stageVec = o.Registry.HistogramVec("span_stage_seconds", "span duration by pipeline stage",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1}, "stage")
		t.stageHist = make(map[string]*obs.Histogram)
	}
	t.rings = ring.NewDrainer(nseg, segCap, poll, t.process, t.publish)
	t.enabled.Store(true)
	return t
}

// process handles one drained record: count it, observe its stage
// duration, and hand it to the sink (collector only).
func (t *Tracer) process(rec *Record) {
	t.records++
	if rec.Parent == 0 {
		t.roots++
	}
	if t.recTotal != nil {
		t.recTotal.Inc()
		if rec.Parent == 0 {
			t.rootTotal.Inc()
		}
		h, ok := t.stageHist[rec.Name]
		if !ok {
			h = t.stageVec.With(rec.Name)
			t.stageHist[rec.Name] = h
		}
		h.Observe(rec.Duration().Seconds())
	}
	if t.sink != nil {
		t.sink.Encode(rec)
	}
}

// publish runs on the collector after each sweep of the rings, whatever
// the barrier: it mirrors the collector's counters and the rings' shed
// accounting into the stats snapshot and the obs registry, and answers
// with the first sink error.
func (t *Tracer) publish(_ ring.Barrier, load ring.Load) error {
	t.mu.Lock()
	t.stats.Records = t.records
	t.stats.Roots = t.roots
	t.stats.Dropped = uint64(load.Dropped)
	t.stats.Backpressure = uint64(load.Backpressure)
	t.mu.Unlock()
	if t.droppedTotal != nil {
		t.droppedTotal.Add(load.Dropped - t.pubDropped)
		t.pubDropped = load.Dropped
		t.backpressureTotal.Add(load.Backpressure - t.pubBackpressure)
		t.pubBackpressure = load.Backpressure
		t.queueDepth.Set(float64(load.Depth))
		t.queueHigh.Set(float64(load.Highwater))
	}
	if t.sink == nil {
		return nil
	}
	return t.sink.Err()
}

// Flush drains every span pushed before the call into the sink and
// returns the first sink error seen so far.
func (t *Tracer) Flush() error {
	return t.rings.Wait(ring.Flush)
}

// Close disables the tracer, drains every ring segment, stops the
// collector, and returns the first sink error. Spans still live at
// Close are harmless: their End pushes land in the rings and are never
// drained.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.enabled.Store(false)
	return t.rings.Close()
}

// Stats drains everything pushed before the call and returns a snapshot
// of the tracer's counters. A nil tracer returns zeros.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.rings.Wait(ring.Drain) // sink errors are for Flush and Close to report
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}
