// mifo-replay runs an archived workload (traffic CSV) through the flow
// simulator under a chosen policy and writes per-flow results as CSV —
// the batch-processing path for external analysis.
//
// Usage:
//
//	mifo-sim ... (or any tool) to produce a workload, or:
//	mifo-replay -gen-workload w.csv -n 1000 -flows 5000
//	mifo-replay -workload w.csv -policy mifo -results out.csv
//	mifo-replay -workload w.csv -policy bgp -deploy 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "topology size (must match the workload's AS space)")
		seed     = flag.Int64("seed", 1, "topology seed")
		workload = flag.String("workload", "", "workload CSV to replay")
		genOut   = flag.String("gen-workload", "", "generate a workload CSV and exit")
		flows    = flag.Int("flows", 5000, "flows when generating")
		rate     = flag.Float64("rate", 0, "arrival rate when generating (0 = auto)")
		policy   = flag.String("policy", "mifo", "bgp, miro or mifo")
		deploy   = flag.Float64("deploy", 1.0, "deployment fraction for miro/mifo")
		results  = flag.String("results", "", "write per-flow results CSV here ('-' or empty = stdout summary only)")
	)
	flag.Parse()

	g, err := topo.Generate(topo.GenConfig{N: *n, Seed: *seed})
	if err != nil {
		fatal(err)
	}

	if *genOut != "" {
		o := experiments.Options{N: *n, Flows: *flows, ArrivalRate: *rate, Seed: *seed}
		fl, genErr := traffic.Uniform(traffic.UniformConfig{
			N: g.N(), Flows: *flows, ArrivalRate: effectiveRate(o), Seed: *seed + 300,
		})
		if genErr != nil {
			fatal(genErr)
		}
		f, createErr := os.Create(*genOut)
		if createErr != nil {
			fatal(createErr)
		}
		if writeErr := traffic.WriteCSV(f, fl); writeErr != nil {
			fatal(writeErr)
		}
		if closeErr := f.Close(); closeErr != nil {
			fatal(closeErr)
		}
		fmt.Printf("wrote %d flows to %s\n", len(fl), *genOut)
		return
	}

	if *workload == "" {
		fatal(fmt.Errorf("need -workload (or -gen-workload)"))
	}
	wf, err := os.Open(*workload)
	if err != nil {
		fatal(err)
	}
	fl, err := traffic.ReadCSV(wf)
	wf.Close() // read side: ReadCSV has already consumed and validated the stream
	if err != nil {
		fatal(err)
	}

	cfg := netsim.Config{Capable: experiments.DeploymentMask(g.N(), *deploy, *seed+500)}
	switch strings.ToLower(*policy) {
	case "bgp":
		cfg.Policy = netsim.PolicyBGP
	case "miro":
		cfg.Policy = netsim.PolicyMIRO
	case "mifo":
		cfg.Policy = netsim.PolicyMIFO
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	res, err := netsim.Run(g, fl, cfg)
	if err != nil {
		fatal(err)
	}

	cdf := res.ThroughputCDF()
	fmt.Printf("%s over %d flows (deploy %.0f%%): mean %.0f Mbps, median %.0f Mbps, >=500 Mbps %.1f%%, offload %.1f%%\n",
		cfg.Policy, res.Routable(), 100**deploy, cdf.Mean(), cdf.Quantile(0.5),
		100*res.FractionAtLeastMbps(500), 100*res.OffloadFraction())

	if *results != "" && *results != "-" {
		f, err := os.Create(*results)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("per-flow results written to %s\n", *results)
	}
}

// effectiveRate resolves the auto-scaled arrival rate the experiments use.
func effectiveRate(o experiments.Options) float64 {
	if o.ArrivalRate > 0 {
		return o.ArrivalRate
	}
	r := 25 * 44340 / float64(o.N)
	if r < 100 {
		r = 100
	}
	return r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mifo-replay:", err)
	os.Exit(1)
}
