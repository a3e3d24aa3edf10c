package topo

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse hardens the relationship-file parser: arbitrary text must
// never panic, and successful parses must carry a relationship-grouped
// view that agrees with their adjacency and a valid provider-first order,
// and survive a Write/Parse round trip with identical counts.
func FuzzParse(f *testing.F) {
	f.Add("1|2|-1\n2|3|0\n")
	f.Add("# comment\n\n10|20|-1\n")
	f.Add("a|b|c")
	f.Add("1|2|-1\n1|2|0\n") // duplicate link
	f.Add("|||")

	f.Fuzz(func(t *testing.T, input string) {
		g, asns, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		requireGroupedMatchesNeighbors(t, g)
		requireProviderOrder(t, g)
		var buf bytes.Buffer
		if err := Write(&buf, g, asns); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		g2, _, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparse: %v", err)
		}
		if g2.N() != g.N() || g2.Links() != g.Links() ||
			g2.PCLinks() != g.PCLinks() || g2.PeerLinks() != g.PeerLinks() {
			t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
				g.N(), g.Links(), g2.N(), g2.Links())
		}
	})
}
