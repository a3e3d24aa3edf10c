// Package jsonl is the shared JSONL sink used by every component that
// streams newline-delimited JSON to disk: the audit flight recorder, the
// span tracer, and the tsdb dump writer. It folds the plumbing those
// sinks previously duplicated — buffered file creation, serialized
// encoding, first-error retention, flush and close-with-first-error —
// into one type with one error policy:
//
//	the first error wins, every later operation keeps running
//	best-effort, and Close/Err report that first error.
//
// A Sink is safe for concurrent use; writers that already serialize
// (single background drain goroutines) pay one uncontended mutex.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// bufferSize is a file-backed Sink's write-buffer size.
const bufferSize = 1 << 20

// Sink writes newline-delimited JSON with first-error retention. Build
// one with Create (owned file, buffered) or New (caller-owned writer).
type Sink struct {
	mu  sync.Mutex
	out io.Writer // raw target: bw in file mode, the wrapped writer otherwise
	enc *json.Encoder
	err error

	// File mode only.
	path   string
	f      *os.File
	bw     *bufio.Writer
	closed bool
}

// New wraps a caller-owned writer. Close flushes nothing and does not
// close w; it only reports the first error. w must not be nil.
func New(w io.Writer) *Sink {
	return &Sink{out: w, enc: json.NewEncoder(w)}
}

// Create opens path for writing (truncating) with a buffered writer the
// sink owns: Flush drains the buffer, Close flushes and closes the file.
func Create(path string) (*Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, bufferSize)
	return &Sink{out: bw, enc: json.NewEncoder(bw), path: path, f: f, bw: bw}, nil
}

// Encode writes one JSONL line. It returns the error of this encode (or
// the retained first error if this one succeeded after a failure), so
// callers may either check per-record or rely on Close.
func (s *Sink) Encode(v any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.firstLocked(fmt.Errorf("jsonl: encode on closed sink %q", s.path))
	}
	if err := s.enc.Encode(v); err != nil {
		return s.firstLocked(err)
	}
	return s.err
}

// Write implements io.Writer so a file Sink can stand in wherever an
// io.Writer sink is expected (e.g. audit.Options.Writer); errors are
// retained like Encode's.
func (s *Sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, s.firstLocked(fmt.Errorf("jsonl: write on closed sink %q", s.path))
	}
	n, err := s.out.Write(p)
	if err != nil {
		return n, s.firstLocked(err)
	}
	return n, nil
}

// Err returns the retained first error.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush drains the write buffer (file mode) and returns the first error.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bw != nil && !s.closed {
		if err := s.bw.Flush(); err != nil {
			return s.firstLocked(err)
		}
	}
	return s.err
}

// Close flushes, closes the owned file, and returns the first error seen
// across the sink's whole life. Closing twice is safe; a wrapped-writer
// sink only reports. Encoding after Close fails but never panics.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.bw != nil {
		if err := s.bw.Flush(); err != nil {
			s.firstLocked(err)
		}
	}
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			s.firstLocked(err)
		}
	}
	return s.err
}

// firstLocked retains err if it is the first and returns the retained
// error (mu held).
func (s *Sink) firstLocked(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}
