package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/jsonl"
)

// traceDir is where traced runs leave their span files (the package test
// points it elsewhere).
var traceDir = "bench/out"

// maxSpans bounds the spans one run keeps in memory; later ones are counted
// as dropped.
const maxSpans = 1 << 18

// spanRec is one finished span: a call from the harness into a layer of the
// program, or the segment or set-up that made the call.
type spanRec struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Segment  int    `json:"segment"`
}

// tracer records spans in memory and writes them out when the run ends. It
// records only while on; a nil tracer never records. The spans come from the
// harness's own files, around its calls into each layer: the program itself
// is not instrumented.
type tracer struct {
	on       bool
	workload string
	phase    string
	segment  int
	root     int // the enclosing segment or set-up span
	epoch    time.Time
	spans    []spanRec
	dropped  int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), spans: make([]spanRec, 0, maxSpans)}
}

// enable turns recording on or off for one segment of one phase and, when
// on, opens the segment's own span as the parent of what follows. Turning it
// off closes that span.
func (t *tracer) enable(on bool, phase string, segment int) {
	if t == nil {
		return
	}
	if t.on {
		t.end(t.root)
	}
	t.on, t.phase, t.segment, t.root = on, phase, segment, 0
	if on {
		t.root = t.start("segment", 0)
	}
}

// start opens a span under parent (0 = the enclosing segment) and returns
// its id, or 0 when nothing is recorded.
func (t *tracer) start(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return 0
	}
	if parent == 0 {
		parent = t.root
	}
	t.spans = append(t.spans, spanRec{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start:    time.Since(t.epoch).Nanoseconds(),
		Workload: t.workload, Phase: t.phase, Segment: t.segment,
	})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// write stores the spans as JSON lines in traceDir and returns the path.
func (t *tracer) write() (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, "trace-"+t.workload+".jsonl")
	sink, err := jsonl.Create(path)
	if err != nil {
		return "", err
	}
	for i := range t.spans {
		if err := sink.Encode(&t.spans[i]); err != nil {
			break // Close reports the sink's first error
		}
	}
	if err := sink.Close(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
