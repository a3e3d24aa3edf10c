package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// simInputs is the repo's benchOpts regime: the topology and traffic every
// figure of the evaluation is run on at benchmark scale. It is one fixed
// data set, as the paper's is one CAIDA snapshot; the seed only orders the
// flow list.
type simInputs struct {
	g     *topo.Graph
	ucfg  traffic.UniformConfig
	flows []traffic.Flow
}

func newSimInputs(o options, tr *tracer) (*simInputs, error) {
	n, flows := 400, 1200
	if o.tiny {
		n, flows = 60, 120
	}
	in := &simInputs{}
	sp := tr.start("topo.Generate", 0)
	g, err := topo.Generate(topo.GenConfig{N: n, Seed: 1})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.g = g
	in.ucfg = traffic.UniformConfig{N: n, Flows: flows, ArrivalRate: 1000, Seed: 1}
	sp = tr.start("traffic.Uniform", 0)
	in.flows, err = traffic.Uniform(in.ucfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// The seed orders the flow list. Arrival times and flow IDs travel with
	// the flows, so every order is the same simulation and costs the same.
	rand.New(rand.NewSource(o.seed)).Shuffle(len(in.flows), func(a, b int) {
		in.flows[a], in.flows[b] = in.flows[b], in.flows[a]
	})
	return in, nil
}

// dests returns the distinct flow destinations in ascending order.
func (in *simInputs) dests() []int {
	seen := make(map[int]bool)
	var dsts []int
	for _, f := range in.flows {
		if !seen[f.Dst] {
			seen[f.Dst] = true
			dsts = append(dsts, f.Dst)
		}
	}
	sort.Ints(dsts)
	return dsts
}

// simTotals are the outcomes both Run and RunStream report, so one can be
// checked against the other.
type simTotals struct {
	flows, routable, completed, usedAlt, switches, reroutes int
}

func (t simTotals) String() string {
	return fmt.Sprintf("flows=%d routable=%d completed=%d used_alt=%d switches=%d reroutes=%d",
		t.flows, t.routable, t.completed, t.usedAlt, t.switches, t.reroutes)
}

// digest folds a batch run's per-flow outcomes into its totals and a hash
// that does not depend on the order the flows were given in.
func digest(res *netsim.Results) (simTotals, uint64) {
	t := simTotals{flows: len(res.Flows)}
	var sum uint64
	var buf [26]byte
	for i := range res.Flows {
		f := &res.Flows[i]
		if !f.Unroutable {
			t.routable++
			if !f.Stalled {
				t.completed++
			}
			if f.UsedAlt {
				t.usedAlt++
			}
			t.switches += f.Switches
			t.reroutes += f.Reroutes
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(f.ID))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(f.Finish))
		binary.LittleEndian.PutUint64(buf[16:], uint64(f.Switches))
		buf[24], buf[25] = 0, 0
		if f.UsedAlt {
			buf[24] = 1
		}
		if f.Unroutable {
			buf[25] = 1
		}
		sum += fnv64a(buf[:]) // a sum commutes, so flow order does not matter
	}
	return t, sum
}

// fnv64a is the FNV-1a hash of b.
func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func streamTotals(r *netsim.StreamResults) simTotals {
	return simTotals{
		flows: r.Flows, routable: r.Routable(), completed: r.Completed,
		usedAlt: r.UsedAlt, switches: r.Switches, reroutes: r.Reroutes,
	}
}

// simWorkload is sim-flows: one netsim.Run under PolicyMIFO per segment.
type simWorkload struct {
	in       *simInputs
	tr       *tracer
	totals   simTotals
	hash     uint64
	mean     float64
	runs     int64
	breaches []string
}

const simWarmupRuns = 3

func (w *simWorkload) run() (*netsim.Results, error) {
	sp := w.tr.start("netsim.Run", 0)
	res, err := netsim.Run(w.in.g, w.in.flows, netsim.Config{Policy: netsim.PolicyMIFO})
	w.tr.end(sp)
	return res, err
}

func (w *simWorkload) setup(o options, tr *tracer) error {
	w.tr = tr
	in, err := newSimInputs(o, tr)
	if err != nil {
		return err
	}
	w.in = in
	for i := 0; i < simWarmupRuns; i++ {
		res, err := w.run()
		if err != nil {
			return err
		}
		w.totals, w.hash = digest(res)
		w.mean = res.MeanThroughputMbps()
	}
	return nil
}

func (w *simWorkload) phases(options) []phase {
	return []phase{{
		name: "run", ops: len(w.in.flows), throughput: true, latency: true, oneCPU: true,
		segment: func(i int, sw *stopwatch) ([]int64, error) {
			sw.start()
			res, err := w.run()
			sw.stop()
			if err != nil {
				return nil, err
			}
			w.runs++
			if t, h := digest(res); t != w.totals || h != w.hash {
				w.breaches = append(w.breaches, fmt.Sprintf("segment %d: digest %016x %v differs from the first run's", i, h, t))
			}
			return nil, nil
		},
	}}
}

func (w *simWorkload) verify() (attempted, failed int64, breaches []string) {
	breaches = w.breaches
	failed = int64(len(breaches)) * int64(len(w.in.flows))
	// The streaming engine must reach the same outcome from the same
	// draws, pulled one at a time in arrival order.
	src, err := traffic.NewUniformStream(w.in.ucfg)
	if err == nil {
		var sr *netsim.StreamResults
		sr, err = netsim.RunStream(w.in.g, src, w.in.dests(), 0, netsim.Config{Policy: netsim.PolicyMIFO})
		if err == nil {
			if got := streamTotals(sr); got != w.totals {
				err = fmt.Errorf("totals %v, batch %v", got, w.totals)
			} else if m := sr.MeanThroughputMbps(); math.Abs(m-w.mean) > 1e-6*(1+w.mean) {
				err = fmt.Errorf("mean throughput %v Mbps, batch %v", m, w.mean)
			}
		}
	}
	if err != nil {
		breaches = append(breaches, "RunStream: "+err.Error())
		failed += int64(len(w.in.flows))
	}
	return w.runs * int64(len(w.in.flows)), failed, breaches
}

func (w *simWorkload) teardown() {}

func (w *simWorkload) note() string {
	return fmt.Sprintf("digest %016x %v mean_mbps=%.6f", w.hash, w.totals, w.mean)
}
