package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJoinFlightRejectsCorruptLog: a flight log that is cut off or holds
// a line that is not a journey is an error naming the line, which main
// turns into exit status 1, not a silent under-count.
func TestJoinFlightRejectsCorruptLog(t *testing.T) {
	deflected := `{"seq":1,"kind":"flow-path","flow":1,"dst":9,"steps":[{"router":-1,"as":4,"edge":"across","deflected":true},{"router":-1,"as":9,"edge":"none"}],"verdict":"path"}` + "\n"
	plain := `{"seq":2,"kind":"packet","flow":2,"dst":9,"steps":[{"router":0,"as":9,"edge":"none"}],"verdict":"delivered"}` + "\n"
	for _, tc := range []struct {
		name, log string
		badLine   string // "" when the log is whole
	}{
		{"whole", deflected + plain + deflected, ""},
		{"truncated mid-line", deflected + plain + deflected[:40], "line 3"},
		{"not a journey", deflected + `{"kind":"batch-seal","batch":1,"records":1}` + "\n" + plain, "line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "flight.jsonl")
			if err := os.WriteFile(path, []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			snap := &snapshot{}
			err := joinFlight(snap, path)
			if tc.badLine == "" {
				if err != nil || snap.DeflectionsByAS["4"] != 2 || len(snap.DeflectionsByAS) != 1 {
					t.Fatalf("deflections by AS %v, err %v; want AS 4: 2", snap.DeflectionsByAS, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.badLine) {
				t.Fatalf("err = %v, want one naming %s", err, tc.badLine)
			}
		})
	}
}
