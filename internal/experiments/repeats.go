package experiments

import (
	"fmt"
	"math"

	"repro/internal/netsim"
	"repro/internal/traffic"
)

// Stat is a mean with a sample standard deviation over repeated runs.
type Stat struct {
	Mean, Std float64
	N         int
}

// String renders "mean ± std".
func (s Stat) String() string {
	return fmt.Sprintf("%.1f ± %.1f", s.Mean, s.Std)
}

func newStat(samples []float64) Stat {
	st := Stat{N: len(samples)}
	if st.N == 0 {
		return st
	}
	for _, v := range samples {
		st.Mean += v
	}
	st.Mean /= float64(st.N)
	if st.N > 1 {
		var ss float64
		for _, v := range samples {
			d := v - st.Mean
			ss += float64(d * d)
		}
		st.Std = math.Sqrt(ss / float64(st.N-1))
	}
	return st
}

// Repeated holds the per-policy headline statistic (percentage of flows at
// ≥500 Mbps) over several independent seeds — error bars for Fig. 5/6.
type Repeated struct {
	Deployment float64
	AtLeast500 map[string]Stat // policy name -> stat (percent)
	MeanMbps   map[string]Stat
}

// RunRepeated executes the Fig. 5 comparison `repeats` times with
// different workload and deployment seeds and aggregates the headline
// statistics. Topology is held fixed (it is the population under study);
// traffic and adopter draws vary.
func RunRepeated(o Options, deployment float64, repeats int) (*Repeated, error) {
	o = o.withDefaults()
	if repeats < 1 {
		repeats = 3
	}
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	at500 := map[string][]float64{}
	mbps := map[string][]float64{}
	for rep := 0; rep < repeats; rep++ {
		seed := o.Seed + int64(rep)*10007
		flows, err := traffic.Uniform(traffic.UniformConfig{
			N: g.N(), Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: seed + 300,
		})
		if err != nil {
			return nil, err
		}
		mask := DeploymentMask(g.N(), deployment, seed+500)
		for _, pol := range []netsim.Policy{netsim.PolicyBGP, netsim.PolicyMIRO, netsim.PolicyMIFO} {
			res, err := netsim.Run(g, flows, netsim.Config{
				Policy: pol, Capable: mask, Workers: o.Workers, Recorder: o.Recorder,
			})
			if err != nil {
				return nil, err
			}
			name := pol.String()
			at500[name] = append(at500[name], 100*res.FractionAtLeastMbps(500))
			mbps[name] = append(mbps[name], res.MeanThroughputMbps())
		}
	}
	out := &Repeated{
		Deployment: deployment,
		AtLeast500: map[string]Stat{},
		MeanMbps:   map[string]Stat{},
	}
	for name, samples := range at500 {
		out.AtLeast500[name] = newStat(samples)
	}
	for name, samples := range mbps {
		out.MeanMbps[name] = newStat(samples)
	}
	return out, nil
}
