package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
	"repro/internal/traffic"
)

// goldenOutcomes are hashes of every flow's outcome on goldenInput, taken
// with the linear-scan solver of PR 12 before the tournament tree replaced
// it. The fair-share solver, the adaptation path and failure handling all
// feed these bits, so any change to the order of a floating-point operation
// in them shows here.
var goldenOutcomes = map[Policy]uint64{
	PolicyBGP:  0x891debd40e7fae12,
	PolicyMIRO: 0xde5692c57d0e7ca3,
	PolicyMIFO: 0xf26b52e9acccbb0f,
}

// goldenQualityOutcomes pin MIFO on goldenInput under the two ranking modes
// goldenOutcomes does not run (it runs the default QualityProbe). All three
// modes share bestAlternative's candidate loop.
var goldenQualityOutcomes = map[Quality]uint64{
	QualityLocalLink: 0xa0d69ad57053432c,
	QualityFirst:     0x856c64ed4a2cc54d,
}

// goldenInput is a small congested run with one link of the busiest AS
// failing and coming back while flows cross it.
func goldenInput(t *testing.T) (*topo.Graph, []traffic.Flow, Config) {
	t.Helper()
	g, err := topo.Generate(topo.GenConfig{N: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{N: g.N(), Flows: 400, ArrivalRate: 1500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	hub := 0
	for v := 1; v < g.N(); v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	horizon := flows[len(flows)-1].Arrival
	failure := LinkFailure{A: hub, B: int(g.Neighbors(hub)[0].AS), At: horizon / 4, RecoverAt: horizon / 2}
	// Every third AS runs plain BGP, so MIFO runs wait for reconvergence at
	// some hops and deflect at others.
	capable := make([]bool, g.N())
	for v := range capable {
		capable[v] = v%3 != 0
	}
	return g, flows, Config{Capable: capable, Failures: []LinkFailure{failure}, ReconvergenceDelay: horizon / 16}
}

func outcomeHash(res *Results) uint64 {
	h := fnv.New64a()
	var buf [25]byte
	for i := range res.Flows {
		f := &res.Flows[i]
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(f.Finish))
		binary.LittleEndian.PutUint64(buf[8:], uint64(f.Switches))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(f.OffloadedBits))
		buf[24] = 0
		if f.UsedAlt {
			buf[24] = 1
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func TestGoldenOutcomes(t *testing.T) {
	g, flows, cfg := goldenInput(t)
	for _, pol := range []Policy{PolicyBGP, PolicyMIRO, PolicyMIFO} {
		cfg.Policy = pol
		res, err := Run(g, flows, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		var completed, usedAlt, switches, reroutes int
		for i := range res.Flows {
			f := &res.Flows[i]
			if f.Unroutable {
				continue
			}
			if !f.Stalled {
				completed++
			}
			if f.UsedAlt {
				usedAlt++
			}
			switches += f.Switches
			reroutes += f.Reroutes
		}
		if reroutes == 0 {
			t.Errorf("%v: the failure rerouted no flow; the input no longer exercises reconvergence", pol)
		}
		if pol == PolicyMIFO && switches == 0 {
			t.Errorf("%v: no flow switched paths; the input no longer exercises deflection", pol)
		}
		if got, want := outcomeHash(res), goldenOutcomes[pol]; got != want {
			t.Errorf("%v: outcome hash %#016x, want %#016x (completed=%d used_alt=%d switches=%d reroutes=%d)",
				pol, got, want, completed, usedAlt, switches, reroutes)
		}

		stream, err := RunStream(g, &sliceStream{flows: flows}, distinctDests(flows), 0, cfg)
		if err != nil {
			t.Fatalf("%v: stream: %v", pol, err)
		}
		if stream.Completed != completed || stream.UsedAlt != usedAlt || stream.Switches != switches || stream.Reroutes != reroutes {
			t.Errorf("%v: RunStream completed=%d used_alt=%d switches=%d reroutes=%d, Run %d %d %d %d", pol,
				stream.Completed, stream.UsedAlt, stream.Switches, stream.Reroutes, completed, usedAlt, switches, reroutes)
		}
	}
}

func TestGoldenQualityOutcomes(t *testing.T) {
	g, flows, cfg := goldenInput(t)
	cfg.Policy = PolicyMIFO
	for _, q := range []Quality{QualityLocalLink, QualityFirst} {
		cfg.Quality = q
		res, err := Run(g, flows, cfg)
		if err != nil {
			t.Fatalf("quality %d: %v", q, err)
		}
		if got, want := outcomeHash(res), goldenQualityOutcomes[q]; got != want {
			t.Errorf("quality %d: outcome hash %#016x, want %#016x", q, got, want)
		}
	}
}

// TestRunAcceptsUnsortedInput shuffles goldenInput's flows: Run feeds them
// to the simulator in arrival order whatever order they come in, so every
// flow's result is the one the sorted run gave it, and it sits at the
// flow's position in the input.
func TestRunAcceptsUnsortedInput(t *testing.T) {
	g, flows, cfg := goldenInput(t)
	shuffled := append([]traffic.Flow(nil), flows...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, pol := range []Policy{PolicyBGP, PolicyMIRO, PolicyMIFO} {
		cfg.Policy = pol
		want, err := Run(g, flows, cfg)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		got, err := Run(g, shuffled, cfg)
		if err != nil {
			t.Fatalf("%v: shuffled: %v", pol, err)
		}
		byID := make(map[int]FlowResult, len(flows))
		for _, fr := range want.Flows {
			byID[fr.ID] = fr
		}
		for i, fr := range got.Flows {
			if fr.ID != shuffled[i].ID {
				t.Fatalf("%v: result %d is flow %d, input %d is flow %d", pol, i, fr.ID, i, shuffled[i].ID)
			}
			if w := byID[fr.ID]; fr != w {
				t.Fatalf("%v: flow %d: shuffled input gave %+v, sorted %+v", pol, fr.ID, fr, w)
			}
		}
		if got.Routing != want.Routing {
			t.Errorf("%v: routing stats %+v, sorted %+v", pol, got.Routing, want.Routing)
		}
	}
}
