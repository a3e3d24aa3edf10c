package netsim

import (
	"testing"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// TestRepairedTableCacheAcrossFailRecoverFail drives the failure handlers
// directly through a fail → recover → fail-again cycle of the same link and
// checks the repaired-table cache the incremental bgp.Table provides:
//
//   - repairedTable always matches a from-scratch compute on the
//     equivalently cut graph (correctness),
//   - a destination whose route tree never touches the link keeps sharing
//     the intact table's memory through the whole cycle (no wasted work),
//   - the recovery puts the intact table of destination 0 back rather than
//     computing a copy of it, since it undoes the failure before it,
//   - the counters show one skip per event, one incremental compute per
//     failure and one restore for the recovery — where the old wholesale
//     rebuild would have recomputed everything on every event, including
//     the recovery back to the intact topology.
func TestRepairedTableCacheAcrossFailRecoverFail(t *testing.T) {
	// failGraph plus a stub chain under AS 0. Destinations: 0 (route tree
	// uses link 1-3) and 2 (tree never touches 1-3: AS 3 reaches 2
	// directly, AS 1 goes through its provider 0).
	g, err := topo.NewBuilder(6).
		AddPC(0, 1).AddPC(0, 2).AddPC(1, 3).AddPC(2, 3).
		AddPC(0, 4).AddPC(4, 5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	dsts := []int{0, 2}
	s := &Sim{g: g, cfg: Config{Policy: PolicyBGP}.withDefaults()}
	s.buildLinks()
	s.tab = bgp.NewTable(g, dsts, 0)

	cut, err := topo.RemoveLinks(g, []topo.LinkRef{{A: 1, B: 3}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want *topo.Graph) {
		t.Helper()
		for _, dst := range dsts {
			if got, scratch := s.repairedTable(dst), bgp.Compute(want, dst); !got.Equal(scratch) {
				t.Fatalf("%s: repairedTable(%d) diverges from scratch compute", step, dst)
			}
		}
	}
	clean := func(step string) {
		t.Helper()
		if s.repairedTab.Dest(2) != s.tab.Dest(2) {
			t.Fatalf("%s: clean destination 2 no longer shares the intact table", step)
		}
	}

	link := LinkFailure{A: 1, B: 3}
	s.handleFail(link)
	check("after fail", cut)
	clean("after fail")

	s.handleRecover(link)
	check("after recover", g)
	clean("after recover")
	if s.repairedTab.Dest(0) != s.tab.Dest(0) {
		t.Fatal("after recover: destination 0 does not share the intact table again")
	}
	if s.repairedTab == nil {
		t.Fatal("recovery discarded the repaired-table cache")
	}

	s.handleFail(link)
	check("after fail-again", cut)
	clean("after fail-again")

	st := s.repairedTab.Stats()
	if st.LinkEvents != 3 {
		t.Errorf("LinkEvents = %d, want 3", st.LinkEvents)
	}
	if st.FullComputes != 0 {
		t.Errorf("FullComputes = %d on the clone, want 0 (tables are shared, not rebuilt)", st.FullComputes)
	}
	// Each event dirties exactly destination 0 and skips destination 2;
	// the recovery restores what the failure replaced.
	if st.IncrementalComputes != 2 || st.Restored != 1 || st.CleanSkipped != 3 {
		t.Errorf("incremental/restored/skipped = %d/%d/%d, want 2/1/3", st.IncrementalComputes, st.Restored, st.CleanSkipped)
	}
	// The intact table never recomputed anything after construction.
	if it := s.tab.Stats(); it.FullComputes != int64(len(dsts)) || it.IncrementalComputes != 0 {
		t.Errorf("intact table stats moved: %+v", it)
	}
}
