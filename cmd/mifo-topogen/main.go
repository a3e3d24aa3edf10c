// mifo-topogen generates a synthetic Internet-like AS topology, prints its
// Table I attributes, and optionally writes it in the CAIDA-style
// relationship format that the rest of the toolchain can parse.
//
// Usage:
//
//	mifo-topogen -n 44340 -stats            # paper-scale Table I
//	mifo-topogen -n 2000 -o topo.txt        # write a topology file
//	mifo-topogen -in topo.txt -stats        # stats of an existing file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/topo"
)

func main() {
	var (
		n      = flag.Int("n", 2000, "number of ASes to generate")
		seed   = flag.Int64("seed", 1, "PRNG seed")
		out    = flag.String("o", "", "write the topology to this file ('-' for stdout)")
		in     = flag.String("in", "", "read a topology file instead of generating")
		stats  = flag.Bool("stats", true, "print Table I attributes")
		detail = flag.Bool("detail", false, "also print path-length stats and the largest customer cones")
		dot    = flag.String("dot", "", "write a Graphviz rendering to this file (small topologies)")
	)
	flag.Parse()

	var g *topo.Graph
	var err error
	switch {
	case *in != "":
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		defer f.Close()
		g, _, err = topo.Parse(f)
	default:
		g, err = topo.Generate(topo.GenConfig{N: *n, Seed: *seed})
	}
	if err != nil {
		fatal(err)
	}

	if *stats {
		sum, err := experiments.TableI(experiments.Options{N: g.N(), Seed: *seed, Graph: g})
		if *in != "" {
			// For a parsed file, report the parsed graph's stats directly.
			s := g.Stats()
			fmt.Printf("nodes=%d links=%d p2c=%d p2p=%d avg-degree=%.2f connected=%v\n",
				s.Nodes, s.Links, s.PCLinks, s.PeerLinks, s.AvgDegree, g.Connected())
		} else {
			if err != nil {
				fatal(err)
			}
			fmt.Print(sum)
		}
		m := g.MemStats()
		fmt.Printf("adjacency arena: %.2f MiB CSR (%.1f B/link: %.2f MiB offsets + %.2f MiB neighbors + %.2f MiB grouped by relationship)\n",
			float64(m.TotalBytes)/(1<<20), m.BytesPerLink,
			float64(m.OffsetBytes)/(1<<20), float64(m.NeighborBytes)/(1<<20), float64(m.GroupedBytes)/(1<<20))
	}

	if *detail {
		ps := topo.SamplePathStats(g, 16, *seed)
		fmt.Printf("sampled diameter >= %d, avg AS-path length %.2f hops\n", ps.Diameter, ps.AvgHops)
		best, size := 0, 0
		limit := g.N()
		if limit > 64 {
			limit = 64 // cones of the well-connected head suffice
		}
		for v := 0; v < limit; v++ {
			if c := topo.ConeSize(g, v); c > size {
				best, size = v, c
			}
		}
		fmt.Printf("largest customer cone (first %d ASes): AS %d with %d ASes (%.0f%%)\n",
			limit, best, size, 100*float64(size)/float64(g.N()))
	}

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := topo.WriteDOT(f, g, "mifo"); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, createErr := os.Create(*out)
			if createErr != nil {
				fatal(createErr)
			}
			w = f
		}
		if err := topo.Write(w, g, nil); err != nil {
			fatal(err)
		}
		if w != os.Stdout {
			if err := w.Close(); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mifo-topogen:", err)
	os.Exit(1)
}
