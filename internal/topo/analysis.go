package topo

import "math/rand"

// CustomerCone returns v's customer cone — v plus every AS reachable by
// repeatedly descending provider-to-customer edges — in ascending order of
// discovery. The cone is the set of destinations v can reach through
// customer routes, which is what bounds MIFO's downhill alternatives.
func CustomerCone(g *Graph, v int) []int {
	visited := map[int]bool{v: true}
	cone := []int{v}
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range g.Customers(x) {
			if !visited[int(c)] {
				visited[int(c)] = true
				cone = append(cone, int(c))
				stack = append(stack, int(c))
			}
		}
	}
	return cone
}

// ConeSize returns the size of v's customer cone.
func ConeSize(g *Graph, v int) int { return len(CustomerCone(g, v)) }

// PathStats summarizes hop distances in the undirected topology.
type PathStats struct {
	// Diameter is the largest eccentricity observed from the sampled
	// sources (a lower bound on the true diameter).
	Diameter int
	// AvgHops is the mean hop distance from the sampled sources to every
	// reachable AS.
	AvgHops float64
}

// SamplePathStats BFSes from `samples` random sources (seeded) and
// aggregates hop distances. The real Internet graph has a small diameter
// despite its size — the property the paper's Section VI highlights.
func SamplePathStats(g *Graph, samples int, seed int64) PathStats {
	n := g.N()
	if n == 0 || samples <= 0 {
		return PathStats{}
	}
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)[:samples]

	var stats PathStats
	var totalHops, totalPairs float64
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for _, src := range order {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = queue[:0]
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for _, nb := range g.Neighbors(x) {
				if dist[nb.AS] < 0 {
					dist[nb.AS] = dist[x] + 1
					queue = append(queue, int(nb.AS))
				}
			}
		}
		for v, d := range dist {
			if v == src || d < 0 {
				continue
			}
			totalHops += float64(d)
			totalPairs++
			if d > stats.Diameter {
				stats.Diameter = d
			}
		}
	}
	if totalPairs > 0 {
		stats.AvgHops = totalHops / totalPairs
	}
	return stats
}
