package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The tracer writes one JSON object per line (json.Encoder over
// Record); this file is the matching reader used by tests and by
// `mifo-inspect spans`. Span logs may be concatenated across runs — IDs are
// only unique within one tracer, so readers that merge logs must
// namespace by file. ReadRecords reads one log.

// ReadRecords decodes a span JSONL stream. Blank lines are skipped;
// any other undecodable line is an error (span logs are machine-written,
// so damage should fail loudly, not silently shrink the dataset).
func ReadRecords(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("span log line %d: %w", line, err)
		}
		if rec.ID == 0 {
			return nil, fmt.Errorf("span log line %d: missing span id", line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
