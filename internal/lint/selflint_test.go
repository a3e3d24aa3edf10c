package lint

import (
	"strings"
	"sync"
	"testing"
)

// treeLint holds the result of running the full suite over the whole
// module. Both whole-tree tests read it, so the tree is loaded and
// analyzed once per test binary.
var treeLint struct {
	once   sync.Once
	err    error
	npkgs  int
	diags  []Diagnostic
	unused []UnusedIgnore
}

func lintTree(t *testing.T) ([]Diagnostic, []UnusedIgnore) {
	t.Helper()
	if testing.Short() {
		t.Skip("whole-tree lint is not a -short test")
	}
	treeLint.once.Do(func() {
		pkgs, err := Load("../..", "./...")
		if err != nil {
			treeLint.err = err
			return
		}
		treeLint.npkgs = len(pkgs)
		treeLint.diags, treeLint.unused = Run(pkgs, Suite())
	})
	if treeLint.err != nil {
		t.Fatalf("loading module: %v", treeLint.err)
	}
	if treeLint.npkgs == 0 {
		t.Fatal("Load returned no packages")
	}
	return treeLint.diags, treeLint.unused
}

// TestRepositoryLintsClean runs the full suite over the whole module —
// the same check `make lint` and CI enforce. A finding here means a
// contract regression slipped into the tree (or an analyzer grew a false
// positive; either way it must be resolved before merging).
func TestRepositoryLintsClean(t *testing.T) {
	diags, _ := lintTree(t)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestIgnoreDirectivesJustified audits every //mifolint:ignore directive
// in the tree. Malformed directives (no analyzer list, no reason) are
// findings already and fail TestRepositoryLintsClean; this test closes
// the other gap: a well-formed directive that no longer suppresses
// anything. The finding it once justified is gone — keeping the waiver
// (and its stale reason) around silently licenses the next regression on
// that line, so it must be deleted instead.
func TestIgnoreDirectivesJustified(t *testing.T) {
	_, unused := lintTree(t)
	for _, u := range unused {
		t.Errorf("%s:%d: unused //mifolint:ignore %s: no finding is suppressed here anymore; delete the stale waiver",
			u.Pos.Filename, u.Pos.Line, strings.Join(u.Analyzers, ","))
	}
}
