package jsonl

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func readLines(t *testing.T, path string) []rec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var out []rec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	return out
}

func TestCreateEncodeClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Encode(rec{N: i}); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	got := readLines(t, path)
	if len(got) != 10 || got[0].N != 0 || got[9].N != 9 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Close is idempotent and encode-after-close errors without panicking.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Encode(rec{N: 99}); err == nil {
		t.Fatal("encode on closed sink should fail")
	}
}

func TestFlushMakesDataVisible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Encode(rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if n := len(readLines(t, path)); n != 0 {
		t.Fatalf("buffered record already on disk (%d lines)", n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(readLines(t, path)); n != 1 {
		t.Fatalf("flush did not land the record (%d lines)", n)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ left int }

var errSink = errors.New("sink broke")

func (w *failWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errSink
	}
	w.left -= len(p)
	return len(p), nil
}

func TestFirstErrorWins(t *testing.T) {
	s := New(&failWriter{left: 16})
	if err := s.Encode(rec{N: 1}); err != nil {
		t.Fatalf("first encode should fit: %v", err)
	}
	if err := s.Encode(rec{N: 2, S: strings.Repeat("x", 64)}); !errors.Is(err, errSink) {
		t.Fatalf("want errSink, got %v", err)
	}
	if err := s.Encode(rec{N: 3}); !errors.Is(err, errSink) {
		t.Fatalf("encode after a failure must report the first error, got %v", err)
	}
	if err := s.Close(); !errors.Is(err, errSink) {
		t.Fatalf("close must report the FIRST error, got %v", err)
	}
	if err := s.Err(); !errors.Is(err, errSink) {
		t.Fatalf("err must report the first error, got %v", err)
	}
}

func TestSinkAsIOWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// A component that owns its own encoder writes through the sink.
	enc := json.NewEncoder(s)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, path); len(got) != 3 {
		t.Fatalf("want 3 lines, got %d", len(got))
	}
}
