package topo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParse hardens the relationship-file parser: arbitrary text must
// never panic, and successful parses must carry a relationship-grouped
// view that agrees with their adjacency and the provider-first order Build
// promises, stubs last in runs of equal provider count, and survive a Write/Parse round trip
// with identical counts.
func FuzzParse(f *testing.F) {
	f.Add("1|2|-1\n2|3|0\n")
	f.Add("# comment\n\n10|20|-1\n")
	f.Add("a|b|c")
	f.Add("1|2|-1\n1|2|0\n") // duplicate link
	f.Add("|||")
	f.Add("9|2|-1\n9|3|-1\n3|4|-1\n3|5|-1\n4|6|0\n")                 // one-provider stubs 2 and 5, peer-only 6
	f.Add("1|3|-1\n2|3|-1\n1|2|-1\n2|4|-1\n1|5|-1\n2|5|-1\n3|6|0\n") // two-provider stubs 3 and 5

	f.Fuzz(func(t *testing.T, input string) {
		g, asns, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		requireGroupedMatchesNeighbors(t, g)
		requireBuiltOrder(t, g)
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

// FuzzBuilderMatchesReference runs one sequence of AddPC and AddPeer calls
// on Builder and on refBuilder, the map-based builder it replaced, and
// holds them to the same answers: HasLink on every pair (out-of-range ones
// too) and Degree of every AS after each call, and at the end the same
// graph from Build or the same error text. Each op is three bytes — kind,
// then the two ends, offset by one so -1 and n are reachable — over at
// most 16 ASes, so duplicates, self-links, out-of-range ends and P/C
// cycles all come up.
func FuzzBuilderMatchesReference(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 0, 2, 3, 1, 3, 4})             // a chain and a peering
	f.Add(uint8(3), []byte{0, 1, 2, 1, 2, 1})                      // a duplicate, reversed
	f.Add(uint8(3), []byte{0, 1, 2, 0, 2, 3, 0, 3, 1})             // a P/C cycle
	f.Add(uint8(5), []byte{1, 2, 2, 0, 1, 2})                      // a self-link first
	f.Add(uint8(5), []byte{0, 1, 6, 0, 1, 2})                      // out of range first
	f.Add(uint8(6), []byte{0, 1, 2, 0, 1, 3, 0, 1, 4, 1, 2, 3, 1}) // a hub, a trailing byte
	var chain []byte                                               // 15 links and a peering across: the table grows twice
	for v := byte(1); v < 16; v++ {
		chain = append(chain, 0, v, v+1)
	}
	f.Add(uint8(16), append(chain, 1, 1, 16))
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := int(size % 17)
		got, want := NewBuilder(n), newRefBuilder(n)
		for i := 0; i+3 <= len(ops); i += 3 {
			v, u := int(ops[i+1]%uint8(n+2))-1, int(ops[i+2]%uint8(n+2))-1
			if ops[i]&1 == 0 {
				got.AddPC(v, u)
				want.AddPC(v, u)
			} else {
				got.AddPeer(v, u)
				want.AddPeer(v, u)
			}
			for a := -1; a <= n; a++ {
				for b := -1; b <= n; b++ {
					if g, w := got.HasLink(a, b), want.HasLink(a, b); g != w {
						t.Fatalf("after op %d: HasLink(%d, %d) = %v, reference %v", i/3, a, b, g, w)
					}
				}
				if a >= 0 && a < n && got.Degree(a) != want.Degree(a) {
					t.Fatalf("after op %d: Degree(%d) = %d, reference %d", i/3, a, got.Degree(a), want.Degree(a))
				}
			}
		}
		g, gerr := got.Build()
		w, werr := want.Build()
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("Build: error %v, reference %v", gerr, werr)
		case gerr != nil && gerr.Error() != werr.Error():
			t.Fatalf("Build: error %q, reference %q", gerr, werr)
		case gerr == nil && (!reflect.DeepEqual(g, w) || Fingerprint(g) != Fingerprint(w)):
			t.Fatalf("Build: graph %+v, reference %+v", g, w)
		}
	})
}
