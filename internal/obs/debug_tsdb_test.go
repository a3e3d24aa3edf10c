package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs/tsdb"
)

// tsdbFixture builds a store with one deterministic utilization series
// and its episode spec: four samples crossing the threshold with relief,
// so /episodes has exactly one episode to report.
func tsdbFixture() *tsdb.Store {
	db := tsdb.NewStore(tsdb.Options{})
	db.SetEpisodeSpec(tsdb.EpisodeSpec{
		Util: "netsim_link_util", Threshold: 0.95, Window: 5, MaxGap: 1000,
	})
	s := db.SeriesVec("netsim_link_util", "link utilization fraction", "run", "link").With("1", "7")
	s.Sample(10, 0.5)
	s.Sample(20, 0.97)
	s.Sample(30, 0.99)
	s.Sample(40, 0.5)
	return db
}

func getTSDB(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// TestDebugTSDBGoldenJSON pins the exact JSON the mounted /debug/tsdb
// endpoint serves — the contract mifo-top and any dashboard scrape.
func TestDebugTSDBGoldenJSON(t *testing.T) {
	mux := NewDebugMux(nil, tsdbFixture())

	code, body := getTSDB(t, mux, "/debug/tsdb/")
	if code != http.StatusOK {
		t.Fatalf("index code = %d\n%s", code, body)
	}
	wantIndex := `{
  "spec": {
    "util": "netsim_link_util",
    "threshold": 0.95,
    "window": 5,
    "max_gap": 1000
  },
  "series": [
    {
      "name": "netsim_link_util",
      "help": "link utilization fraction",
      "labels": [
        "run",
        "link"
      ],
      "values": [
        "1",
        "7"
      ],
      "total_points": 4,
      "latest": [
        40,
        0.5
      ]
    }
  ]
}
`
	if body != wantIndex {
		t.Errorf("index JSON drifted:\ngot:\n%s\nwant:\n%s", body, wantIndex)
	}

	code, body = getTSDB(t, mux, "/debug/tsdb/query?series=netsim_link_util&value=1&value=7&tier=raw")
	if code != http.StatusOK {
		t.Fatalf("query code = %d\n%s", code, body)
	}
	wantQuery := `{
  "series": "netsim_link_util",
  "values": [
    "1",
    "7"
  ],
  "buckets": [
    {
      "start": 10,
      "end": 10,
      "min": 0.5,
      "max": 0.5,
      "sum": 0.5,
      "count": 1
    },
    {
      "start": 20,
      "end": 20,
      "min": 0.97,
      "max": 0.97,
      "sum": 0.97,
      "count": 1
    },
    {
      "start": 30,
      "end": 30,
      "min": 0.99,
      "max": 0.99,
      "sum": 0.99,
      "count": 1
    },
    {
      "start": 40,
      "end": 40,
      "min": 0.5,
      "max": 0.5,
      "sum": 0.5,
      "count": 1
    }
  ]
}
`
	if body != wantQuery {
		t.Errorf("query JSON drifted:\ngot:\n%s\nwant:\n%s", body, wantQuery)
	}

	// The episode endpoint reports the one detected episode: [20..40],
	// relief at 40.
	code, body = getTSDB(t, mux, "/debug/tsdb/episodes")
	if code != http.StatusOK {
		t.Fatalf("episodes code = %d\n%s", code, body)
	}
	var rep tsdb.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("episodes not JSON: %v\n%s", err, body)
	}
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %+v, want exactly 1", rep.Episodes)
	}
	e := rep.Episodes[0]
	if e.Start != 20 || e.End != 40 || e.Active || e.Peak != 0.99 || e.Samples != 2 {
		t.Errorf("episode = %+v, want start 20 end 40 peak 0.99 samples 2", e)
	}

	// Threshold overrides flow through the query string.
	code, body = getTSDB(t, mux, "/debug/tsdb/episodes?threshold=0.999")
	if code != http.StatusOK {
		t.Fatalf("episodes override code = %d", code)
	}
	rep = tsdb.Report{}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Episodes) != 0 {
		t.Errorf("threshold 0.999 still detects %+v", rep.Episodes)
	}

	// A store with no installed spec answers 412, not a junk report.
	bare := NewDebugMux(nil, tsdb.NewStore(tsdb.Options{}))
	if code, _ = getTSDB(t, bare, "/debug/tsdb/episodes"); code != http.StatusPreconditionFailed {
		t.Errorf("episodes without spec: code = %d, want 412", code)
	}
}

// TestDebugTSDBRedirect: the bare mount point redirects to the slashed
// form so curl http://host/debug/tsdb works.
func TestDebugTSDBRedirect(t *testing.T) {
	mux := NewDebugMux(nil, tsdbFixture())
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/tsdb", nil))
	if rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/debug/tsdb/" {
		t.Errorf("code = %d location = %q", rec.Code, rec.Header().Get("Location"))
	}
}

// TestDebugTSDBConcurrentSampling hammers every endpoint while a writer
// goroutine samples at full speed: responses must stay well-formed JSON
// with 200s throughout (run under -race via make tsdb-race).
func TestDebugTSDBConcurrentSampling(t *testing.T) {
	db := tsdb.NewStore(tsdb.Options{})
	db.SetEpisodeSpec(tsdb.EpisodeSpec{
		Util: "netsim_link_util", Threshold: 0.95, Window: 5, MaxGap: 1e9,
	})
	s := db.SeriesVec("netsim_link_util", "link utilization fraction", "run", "link").With("1", "7")
	mux := NewDebugMux(nil, db)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ts += 5
			s.Sample(ts, float64(ts%100)/100)
		}
	}()

	paths := []string{
		"/debug/tsdb/",
		"/debug/tsdb/query?series=netsim_link_util&value=1&value=7",
		"/debug/tsdb/query?series=netsim_link_util&value=1&value=7&tier=1&step=100",
		"/debug/tsdb/episodes",
	}
	for i := 0; i < 100; i++ {
		for _, p := range paths {
			code, body := getTSDB(t, mux, p)
			if code != http.StatusOK {
				close(stop)
				t.Fatalf("GET %s under load: code %d\n%s", p, code, body)
			}
			var v any
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				close(stop)
				t.Fatalf("GET %s under load: invalid JSON: %v", p, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
