package audit

import "testing"

// step builders keep the tables readable.
func hop(as int32, edge EdgeClass, tag bool) Step {
	return Step{Router: -1, AS: as, Edge: edge, Tag: tag}
}

func TestCheckerTable(t *testing.T) {
	cases := []struct {
		name  string
		steps []Step
		want  []Invariant // expected violations, in detection order
	}{
		{
			name: "clean up-across-down path",
			steps: []Step{
				hop(1, EdgeUp, true),     // stub origin to provider
				hop(2, EdgeAcross, true), // entered from customer: may peer
				hop(3, EdgeDown, false),  // entered from peer: down only
				hop(4, EdgeNone, false),  // delivered
			},
		},
		{
			name: "clean multi-router transit within one AS",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: 10, AS: 2, Edge: EdgeInternal, Tag: true, Encap: true, Deflected: true},
				{Router: 11, AS: 2, Edge: EdgeDown, Tag: true, EncapArrival: true},
				hop(3, EdgeNone, false),
			},
		},
		{
			name: "AS revisit is a loop",
			steps: []Step{
				hop(1, EdgeUp, true),
				hop(2, EdgeDown, false),
				hop(1, EdgeDown, false), // back to AS 1: loop
			},
			want: []Invariant{InvLoopFree},
		},
		{
			name: "consecutive same-AS steps are one visit",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: 5, AS: 2, Edge: EdgeInternal, Tag: true},
				{Router: 6, AS: 2, Edge: EdgeDown, Tag: true},
			},
		},
		{
			name: "valley: up after descending",
			steps: []Step{
				hop(1, EdgeUp, true),
				hop(2, EdgeDown, true), // descends (tag honest: entered from customer)
				hop(3, EdgeUp, true),   // climbing out of the valley
			},
			want: []Invariant{InvValleyFree},
		},
		{
			name: "valley: second peering edge",
			steps: []Step{
				hop(1, EdgeAcross, true),
				hop(2, EdgeAcross, true), // tag claims customer entry — sequence still invalid
			},
			want: []Invariant{InvValleyFree},
		},
		{
			name: "tag rule: export to provider without customer-entry tag",
			steps: []Step{
				hop(1, EdgeDown, true),
				hop(2, EdgeNone, false),
			},
		},
		{
			name: "tag rule: non-customer egress with tag clear",
			steps: []Step{
				hop(1, EdgeUp, true),
				hop(2, EdgeUp, false), // entered from provider yet exports up
			},
			want: []Invariant{InvValleyFree},
		},
		{
			name: "encap to non-iBGP peer",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: -1, AS: 2, Edge: EdgeDown, Tag: true, Encap: true}, // outer header leaks across AS edge
			},
			want: []Invariant{InvEncapIBGP},
		},
		{
			name: "encap arrival over a non-iBGP link",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: -1, AS: 2, Edge: EdgeDown, Tag: true, EncapArrival: true},
			},
			want: []Invariant{InvEncapIBGP},
		},
		{
			name: "justified tag-drop",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: -1, AS: 2, Edge: EdgeNone, Tag: false, Refused: EdgeAcross},
			},
		},
		{
			name: "tag-drop with tag set",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: -1, AS: 2, Edge: EdgeNone, Tag: true, Refused: EdgeAcross},
			},
			want: []Invariant{InvTagDrop},
		},
		{
			name: "tag-drop refusing a customer egress",
			steps: []Step{
				hop(1, EdgeUp, true),
				{Router: -1, AS: 2, Edge: EdgeNone, Tag: false, Refused: EdgeDown},
			},
			want: []Invariant{InvTagDrop},
		},
		{
			name: "loop and valley reported together",
			steps: []Step{
				hop(1, EdgeUp, true),
				hop(2, EdgeDown, true),
				hop(3, EdgeUp, false), // valley + tagless export
				hop(1, EdgeNone, false),
			},
			want: []Invariant{InvValleyFree, InvValleyFree, InvLoopFree},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Checker
			for _, s := range tc.steps {
				c.Step(s)
			}
			got := c.Violations()
			if len(got) != len(tc.want) {
				t.Fatalf("violations = %v, want invariants %v", got, tc.want)
			}
			for i, v := range got {
				if v.Invariant != tc.want[i] {
					t.Errorf("violation %d = %v, want %v (all: %v)", i, v.Invariant, tc.want[i], got)
				}
				if v.Detail == "" {
					t.Errorf("violation %d has no detail", i)
				}
			}
		})
	}
}

func TestCheckerReset(t *testing.T) {
	var c Checker
	c.Step(hop(1, EdgeUp, true))
	c.Step(hop(1, EdgeNone, false)) // same AS again: fine
	c.Step(hop(2, EdgeDown, false))
	c.Step(hop(1, EdgeNone, false)) // revisit
	if len(c.Violations()) != 1 {
		t.Fatalf("violations = %v, want exactly the revisit", c.Violations())
	}
	c.Reset()
	if len(c.Violations()) != 0 {
		t.Fatalf("violations survive Reset: %v", c.Violations())
	}
	// The same path is clean again after Reset (no leaked visited state).
	c.Step(hop(1, EdgeUp, true))
	c.Step(hop(2, EdgeDown, false))
	if len(c.Violations()) != 0 {
		t.Fatalf("reset checker reports stale violations: %v", c.Violations())
	}
}

// TestCheckerStepReturnsNewViolationCount: a clean step adds no violation
// and a tagless up edge adds exactly one, at its own step index.
func TestCheckerStepReturnsNewViolationCount(t *testing.T) {
	var c Checker
	c.Step(hop(1, EdgeUp, true))
	if n := len(c.Violations()); n != 0 {
		t.Fatalf("clean step left %d violations", n)
	}
	c.Step(hop(2, EdgeUp, false))
	if vs := c.Violations(); len(vs) != 1 || vs[0].Step != 1 || vs[0].Invariant != InvValleyFree {
		t.Fatalf("tagless up edge left %v, want one valley-freedom violation at step 1", vs)
	}
}
