// Package experiments contains one harness per table/figure of the paper's
// evaluation (Section IV and V). Each harness builds its workload, runs the
// appropriate simulator, and returns the same rows/series the paper plots,
// so cmd/mifo-sim, the examples, and bench_test.go all share one
// implementation.
//
// Default scales are laptop-sized (the paper simulates 44,340 ASes and one
// million flows; CDF shapes and orderings are scale-stable — see
// EXPERIMENTS.md). Paper-scale runs are a flag away in cmd/mifo-sim.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/audit"
	"repro/internal/bgp"
	"repro/internal/metrics"
	"repro/internal/miro"
	"repro/internal/netsim"
	"repro/internal/obs/span"
	"repro/internal/obs/tsdb"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Options control workload scale. Zero values select defaults.
type Options struct {
	// N is the topology size in ASes (default 1000).
	N int
	// Flows is the number of simulated flows (default 5000).
	Flows int
	// PairSamples is the number of (src, dst) pairs sampled for path
	// diversity (default 1000).
	PairSamples int
	// ArrivalRate is the Poisson flow arrival rate in flows/s. The paper
	// uses 100/s on a 44,340-AS topology; at smaller scales the rate must
	// grow for the transit core to see contention at all. The default,
	// 25 * (44340 / N) flows/s (min 100), puts the scaled-down network in
	// the paper's operating regime: BGP's single paths congest while
	// adaptive multipath still finds spare capacity. See EXPERIMENTS.md
	// for the load-sensitivity discussion.
	ArrivalRate float64
	// Seed makes runs reproducible (default 1).
	Seed int64
	// Workers bounds parallelism (0 = all CPUs).
	Workers int

	// Graph, when non-nil, is used as the experiment topology instead of
	// generating one from N and Seed (mifo-sim's -topo flag). Callers
	// should set N to Graph.N() so rate auto-scaling sees the real size.
	Graph *topo.Graph

	// Recorder, when non-nil, attaches the packet flight recorder to every
	// flow-level simulation an experiment runs: each installed path is
	// recorded as a JSONL flight record and audited online (mifo-sim's
	// -flight-log / -flight-sample flags).
	Recorder *audit.Recorder

	// Spans, when non-nil, attaches the convergence span tracer to every
	// flow-level simulation an experiment runs: each injected link event
	// is traced from failure injection to data-plane consistency
	// (mifo-sim's -span-log flag; analyze with `mifo-inspect spans`).
	Spans *span.Tracer

	// TSDB, when non-nil, attaches the link-utilization time-series store
	// to every flow-level simulation an experiment runs: per-epoch link
	// samples plus the cumulative deflection/offload series the episode
	// analyzer joins (mifo-sim's -tsdb-log flag; analyze with
	// `mifo-inspect tsdb`). Each simulation gets its own run label.
	TSDB *tsdb.Store
}

func (o Options) withDefaults() Options {
	if o.N <= 0 {
		o.N = 1000
	}
	if o.Flows <= 0 {
		o.Flows = 5000
	}
	if o.PairSamples <= 0 {
		o.PairSamples = 1000
	}
	if o.ArrivalRate <= 0 {
		o.ArrivalRate = 25 * 44340 / float64(o.N)
		if o.ArrivalRate < 100 {
			o.ArrivalRate = 100
		}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Topology returns the experiment topology for the given options: the
// explicit Graph override when set, a generated one otherwise.
func Topology(o Options) (*topo.Graph, error) {
	if o.Graph != nil {
		return o.Graph, nil
	}
	o = o.withDefaults()
	return topo.Generate(topo.GenConfig{N: o.N, Seed: o.Seed})
}

// DeploymentMask marks a random fraction of ASes as MIFO/MIRO-capable.
// frac >= 1 returns nil (full deployment).
func DeploymentMask(n int, frac float64, seed int64) []bool {
	if frac >= 1 {
		return nil
	}
	mask := make([]bool, n)
	rng := rand.New(rand.NewSource(seed))
	for _, v := range rng.Perm(n)[:int(frac*float64(n))] {
		mask[v] = true
	}
	return mask
}

// uniformFor builds the standard uniform workload for a topology.
func uniformFor(o Options, g *topo.Graph) ([]traffic.Flow, error) {
	return traffic.Uniform(traffic.UniformConfig{
		N: g.N(), Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: o.Seed + 300,
	})
}

// TableI regenerates Table I: the attributes of the topology data set.
func TableI(o Options) (*metrics.Summary, error) {
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	s := g.Stats()
	sum := metrics.NewSummary("Table I: Attributes of Data-set (synthetic)")
	sum.Set("# of Nodes", "%d", s.Nodes)
	sum.Set("# of Links", "%d", s.Links)
	sum.Set("P/C Links", "%d (%.0f%%)", s.PCLinks, 100*float64(s.PCLinks)/float64(s.Links))
	sum.Set("Peering Links", "%d (%.0f%%)", s.PeerLinks, 100*s.PeerFraction)
	sum.Set("Avg Degree", "%.2f", s.AvgDegree)
	sum.Set("Max Degree", "%d", s.MaxDegree)
	sum.Set("Stub ASes", "%d (%.0f%%)", s.Stubs, 100*float64(s.Stubs)/float64(s.Nodes))
	sum.Set("Multi-homed", "%d (%.0f%%)", s.MultiHomed, 100*float64(s.MultiHomed)/float64(s.Nodes))
	return sum, nil
}

// Fig7 reproduces Fig. 7: the number of available paths per AS pair for
// MIFO and MIRO at 50% and 100% deployment, as a complementary
// distribution over sampled pairs (x: percentage of pairs, y: paths).
type Fig7 struct {
	Series []metrics.Series
	// MedianMIFO100 and MedianMIRO100 summarize the full-deployment gap.
	MedianMIFO100, MedianMIRO100 float64
}

// RunFig7 executes the path-diversity comparison.
func RunFig7(o Options) (*Fig7, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	half := DeploymentMask(g.N(), 0.5, o.Seed+100)
	rng := rand.New(rand.NewSource(o.Seed + 200))

	// Sample destination-grouped pairs so each BGP table is reused.
	nDsts := o.PairSamples / 20
	if nDsts < 1 {
		nDsts = 1
	}
	perDst := o.PairSamples / nDsts
	dsts := make([]int, nDsts)
	for i := range dsts {
		dsts[i] = rng.Intn(g.N())
	}
	tables := bgp.ComputeAll(g, dsts, o.Workers)

	cfgMIRO := miro.DefaultConfig()
	var mifo100, mifo50, miro100, miro50 []float64
	for i, t := range tables {
		pcFull := bgp.NewPathCounter(g, t, nil)
		pcHalf := bgp.NewPathCounter(g, t, half)
		for k := 0; k < perDst; k++ {
			src := rng.Intn(g.N())
			if src == dsts[i] || !t.Reachable(src) {
				continue
			}
			mifo100 = append(mifo100, float64(pcFull.Count(src)))
			mifo50 = append(mifo50, float64(pcHalf.Count(src)))
			miro100 = append(miro100, float64(cfgMIRO.AvailablePaths(g, t, src, nil)))
			miro50 = append(miro50, float64(cfgMIRO.AvailablePaths(g, t, src, half)))
		}
	}

	f := &Fig7{
		Series: []metrics.Series{
			complementary("50% Deployed MIRO", miro50),
			complementary("100% Deployed MIRO", miro100),
			complementary("50% Deployed MIFO", mifo50),
			complementary("100% Deployed MIFO", mifo100),
		},
		MedianMIFO100: median(mifo100),
		MedianMIRO100: median(miro100),
	}
	return f, nil
}

// complementary sorts values descending and reports the value at each
// percentage of pairs — Fig. 7's axes.
func complementary(name string, vals []float64) metrics.Series {
	sorted := append([]float64(nil), vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	s := metrics.Series{Name: name}
	if len(sorted) == 0 {
		return s
	}
	for pct := 0; pct <= 100; pct += 5 {
		idx := pct * (len(sorted) - 1) / 100
		s.Rows = append(s.Rows, metrics.Row{X: float64(pct), Y: sorted[idx]})
	}
	return s
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// ThroughputComparison is the output of the Fig. 5 / Fig. 6 harnesses: one
// throughput CDF per policy plus the paper's headline statistic.
type ThroughputComparison struct {
	// Deployment is the capable fraction used for MIFO and MIRO.
	Deployment float64
	// Series holds the BGP, MIRO and MIFO throughput CDFs (x: Mbps,
	// y: CDF %).
	Series []metrics.Series
	// AtLeast500 maps policy name to the fraction of flows that reached
	// 500 Mbps — half the link capacity.
	AtLeast500 map[string]float64
	// Results holds the raw per-policy results for further analysis.
	Results map[string]*netsim.Results
}

// RunFig5 reproduces one panel of Fig. 5: uniform traffic at the given
// deployment ratio (1.0, 0.5 or 0.1 in the paper).
func RunFig5(o Options, deployment float64) (*ThroughputComparison, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{
		N: g.N(), Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: o.Seed + 300,
	})
	if err != nil {
		return nil, err
	}
	return comparePolicies(g, flows, deployment, o)
}

// RunFig6 reproduces one panel of Fig. 6: power-law traffic with skew alpha
// at 50% deployment.
func RunFig6(o Options, alpha float64) (*ThroughputComparison, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	providers := traffic.RankContentProviders(g, g.N()/10)
	consumers := traffic.StubASes(g)
	flows, err := traffic.PowerLaw(traffic.PowerLawConfig{
		Providers: providers, Consumers: consumers,
		Alpha: alpha, Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: o.Seed + 400,
	})
	if err != nil {
		return nil, err
	}
	return comparePolicies(g, flows, 0.5, o)
}

func comparePolicies(g *topo.Graph, flows []traffic.Flow, deployment float64, o Options) (*ThroughputComparison, error) {
	mask := DeploymentMask(g.N(), deployment, o.Seed+500)
	out := &ThroughputComparison{
		Deployment: deployment,
		AtLeast500: make(map[string]float64),
		Results:    make(map[string]*netsim.Results),
	}
	base := netsim.Config{
		Workers:  o.Workers,
		Recorder: o.Recorder,
		TSDB:     o.TSDB,
	}
	bgpCfg, miroCfg, mifoCfg := base, base, base
	bgpCfg.Policy = netsim.PolicyBGP
	miroCfg.Policy, miroCfg.Capable = netsim.PolicyMIRO, mask
	mifoCfg.Policy, mifoCfg.Capable = netsim.PolicyMIFO, mask
	runs := []struct {
		name string
		cfg  netsim.Config
	}{
		{"BGP", bgpCfg},
		{fmt.Sprintf("%.0f%% Deployed MIRO", 100*deployment), miroCfg},
		{fmt.Sprintf("%.0f%% Deployed MIFO", 100*deployment), mifoCfg},
	}
	for _, r := range runs {
		res, err := netsim.Run(g, flows, r.cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s run: %v", r.name, err)
		}
		cdf := res.ThroughputCDF()
		out.Series = append(out.Series, metrics.Series{Name: r.name, Rows: cdf.Rows(0, 1000, 50)})
		out.AtLeast500[r.name] = cdf.FractionAtLeast(500)
		out.Results[r.name] = res
	}
	return out, nil
}

// Fig8 reproduces Fig. 8: the share of flows carried on alternative paths
// as MIFO deployment grows from 10% to 100%.
type Fig8 struct {
	// Rows pair deployment percentage with offloaded-traffic percentage.
	Rows []metrics.Row
}

// RunFig8 sweeps the deployment ratio.
func RunFig8(o Options) (*Fig8, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{
		N: g.N(), Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: o.Seed + 600,
	})
	if err != nil {
		return nil, err
	}
	f := &Fig8{}
	for pct := 10; pct <= 100; pct += 10 {
		mask := DeploymentMask(g.N(), float64(pct)/100, o.Seed+700)
		res, err := netsim.Run(g, flows, netsim.Config{
			Policy: netsim.PolicyMIFO, Capable: mask, Workers: o.Workers, Recorder: o.Recorder, TSDB: o.TSDB,
		})
		if err != nil {
			return nil, err
		}
		f.Rows = append(f.Rows, metrics.Row{X: float64(pct), Y: 100 * res.OffloadFraction()})
	}
	return f, nil
}

// Fig9 reproduces Fig. 9: the distribution of per-flow path-switch counts
// at 50% deployment. The headline counts deflections, the switches onto
// an alternative path, which is what the paper's text counts; the
// distribution of every switch (returns to the default path included) is
// kept beside it.
type Fig9 struct {
	// Histogram is deflections per flow, over flows that deflected at
	// least once.
	Histogram *metrics.Histogram
	// OnceFraction and AtMostTwiceFraction are the paper's headline
	// numbers (67.7% and 97.5%), read off Histogram.
	OnceFraction        float64
	AtMostTwiceFraction float64
	// Switches is every path switch per flow (deflections plus returns),
	// over flows that switched at least once, with the same two readings.
	Switches                    *metrics.Histogram
	SwitchesOnceFraction        float64
	SwitchesAtMostTwiceFraction float64
}

// RunFig9 measures path-switching stability.
func RunFig9(o Options) (*Fig9, error) {
	o = o.withDefaults()
	g, err := Topology(o)
	if err != nil {
		return nil, err
	}
	flows, err := traffic.Uniform(traffic.UniformConfig{
		N: g.N(), Flows: o.Flows, ArrivalRate: o.ArrivalRate, Seed: o.Seed + 800,
	})
	if err != nil {
		return nil, err
	}
	res, err := netsim.Run(g, flows, netsim.Config{
		Policy:   netsim.PolicyMIFO,
		Capable:  DeploymentMask(g.N(), 0.5, o.Seed+900),
		Workers:  o.Workers,
		Recorder: o.Recorder,
		TSDB:     o.TSDB,
	})
	if err != nil {
		return nil, err
	}
	h, sw := res.DeflectionHistogram(), res.SwitchHistogram()
	return &Fig9{
		Histogram:                   h,
		OnceFraction:                h.Fraction(1),
		AtMostTwiceFraction:         h.FractionAtMost(2),
		Switches:                    sw,
		SwitchesOnceFraction:        sw.Fraction(1),
		SwitchesAtMostTwiceFraction: sw.FractionAtMost(2),
	}, nil
}
