package topo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The text format mirrors CAIDA's AS-relationship "serial-1" files:
//
//	# comment
//	<a>|<b>|-1     a is a provider of b
//	<a>|<b>|0      a and b are peers
//
// AS numbers may be arbitrary non-negative integers; they are mapped to
// dense indices on parse. Parse returns the mapping so callers can report
// results in original AS numbers.

// Parse reads a relationship file and returns the graph plus the
// dense-index -> original-ASN mapping.
func Parse(r io.Reader) (*Graph, []int, error) {
	type rawLink struct {
		a, b int
		rel  int
	}
	var links []rawLink
	ids := map[int]int{}
	var order []int

	intern := func(asn int) int {
		if idx, ok := ids[asn]; ok {
			return idx
		}
		idx := len(order)
		ids[asn] = idx
		order = append(order, asn)
		return idx
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			return nil, nil, fmt.Errorf("topo: line %d: want a|b|rel, got %q", lineno, line)
		}
		a, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, nil, fmt.Errorf("topo: line %d: bad AS %q: %v", lineno, parts[0], err)
		}
		b, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, nil, fmt.Errorf("topo: line %d: bad AS %q: %v", lineno, parts[1], err)
		}
		rel, err := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err != nil || (rel != -1 && rel != 0) {
			return nil, nil, fmt.Errorf("topo: line %d: bad relationship %q (want -1 or 0)", lineno, parts[2])
		}
		links = append(links, rawLink{a: intern(a), b: intern(b), rel: rel})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("topo: read: %v", err)
	}

	builder := NewBuilder(len(order))
	for _, l := range links {
		if l.rel == -1 {
			builder.AddPC(l.a, l.b)
		} else {
			builder.AddPeer(l.a, l.b)
		}
	}
	g, err := builder.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, order, nil
}

// ReadFile parses the relationship file at path, naming the file in a
// parse error.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Write serializes the graph in the relationship format. When asns is nil,
// dense indices are written directly; otherwise asns maps index -> ASN.
func Write(w io.Writer, g *Graph, asns []int) error {
	bw := bufio.NewWriter(w)
	name := func(i int32) int {
		if asns == nil {
			return int(i)
		}
		return asns[i]
	}
	if _, err := fmt.Fprintf(bw, "# %d nodes, %d links (%d p2c, %d p2p)\n",
		g.N(), g.Links(), g.PCLinks(), g.PeerLinks()); err != nil {
		return err
	}
	type line struct {
		a, b, rel int
	}
	lines := make([]line, 0, g.Links())
	for v := 0; v < g.N(); v++ {
		for _, nb := range g.Neighbors(v) {
			switch nb.Rel {
			case Customer:
				lines = append(lines, line{a: name(int32(v)), b: name(nb.AS), rel: -1})
			case Peer:
				if int32(v) < nb.AS {
					lines = append(lines, line{a: name(int32(v)), b: name(nb.AS), rel: 0})
				}
			}
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].a != lines[j].a {
			return lines[i].a < lines[j].a
		}
		if lines[i].b != lines[j].b {
			return lines[i].b < lines[j].b
		}
		return lines[i].rel < lines[j].rel
	})
	for _, l := range lines {
		if _, err := fmt.Fprintf(bw, "%d|%d|%d\n", l.a, l.b, l.rel); err != nil {
			return err
		}
	}
	return bw.Flush()
}
