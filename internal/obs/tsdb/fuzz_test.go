package tsdb

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/jsonl"
)

// FuzzReadDump feeds ReadDump two kinds of input. The fuzzer's bytes
// themselves, as a dump file from anywhere: reading it and analyzing what
// was read must fail cleanly or succeed, never panic. And a store built
// from the same bytes: WriteDump followed by ReadDump must give back the
// store's series and episode spec exactly.
func FuzzReadDump(f *testing.F) {
	f.Add([]byte(`{"kind":"tsdb","spec":{"util":"u","threshold":0.5,"window":10}}
{"kind":"series","name":"u","labels":["link"],"values":["a"],"points":[[1,0.9],[2,0.8],[30,0.2]]}
{"kind":"series","name":"d","labels":["link"],"values":["a"],"points":[[2,1],[3,4]]}
`))
	f.Add([]byte(`{"kind":"future-thing","x":1}` + "\n" + `{"kind":"series","name":"u","points":null}`))
	f.Add([]byte(`{"kind":"series","points":[[1]]}`))
	f.Add([]byte{0x10, 0x02, 0x00, 0x40, 0x01, 0x05, 0x3f, 0x81, 0x02, 0xff, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if series, spec, err := ReadDump(bytes.NewReader(data)); err == nil {
			Analyze(series, spec)
		}

		st := storeFrom(data)
		var buf bytes.Buffer
		sink := jsonl.New(&buf)
		if err := st.WriteDump(sink); err != nil {
			t.Fatal(err)
		}
		series, spec, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("reading back a dump WriteDump wrote: %v", err)
		}
		if want := st.EpisodeSpec(); spec != want {
			t.Fatalf("spec %+v read back as %+v", want, spec)
		}
		if want := st.Gather(); !reflect.DeepEqual(series, want) {
			t.Fatalf("series read back as\n  %+v\nwant\n  %+v", series, want)
		}
		Analyze(series, spec)
	})
}

// storeFrom builds a small store from fuzz bytes: the first three pick
// the episode spec, every following four add one sample to a labeled
// utilization or deflection series or to an unlabeled one.
func storeFrom(data []byte) *Store {
	st := NewStore()
	if len(data) >= 3 {
		st.SetEpisodeSpec(EpisodeSpec{
			Util:        "fz_util",
			Deflections: "fz_defl",
			Threshold:   float64(data[0]) / 255,
			Window:      int64(data[1]),
			MaxGap:      int64(data[2]) * 8,
		})
		data = data[3:]
	}
	util := st.SeriesVec("fz_util", "utilization", "link")
	defl := st.SeriesVec("fz_defl", "deflections", "link")
	var ts int64
	for ; len(data) >= 4; data = data[4:] {
		ts += int64(data[2])
		v := float64(int8(data[3])) / 64
		link := string(rune('a' + data[1]%4))
		switch data[0] % 3 {
		case 0:
			util.With(link).Sample(ts, v)
		case 1:
			defl.With(link).Sample(ts, v)
		default:
			st.SeriesVec("fz_scalar", "unlabeled").With().Sample(ts, v)
		}
	}
	return st
}
