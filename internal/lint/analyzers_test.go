package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestLocksafe(t *testing.T) {
	checkCorpus(t, "locksafe", Locksafe())
}

func TestShadow(t *testing.T) {
	checkCorpus(t, "shadow", Shadow())
}

func TestDroppederr(t *testing.T) {
	checkCorpus(t, "droppederr", Droppederr())
}

func TestIgnoreDirectives(t *testing.T) {
	checkCorpus(t, "ignores", Droppederr())
}

// TestMalformedIgnoreDirective checks that a directive without analyzers
// or without a reason is itself reported — a silent suppression defeats
// the audit trail. This needs no type information, so the package is
// built from a source string directly.
func TestMalformedIgnoreDirective(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //mifolint:ignore
	_ = 2 //mifolint:ignore droppederr
	_ = 3 //mifolint:ignore droppederr a complete directive is fine
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{PkgPath: "p", Name: "p", Fset: fset, Files: []*ast.File{f}, TypesInfo: NewInfo()}
	var diags []Diagnostic
	idx := buildIgnoreIndex([]*Package{pkg}, func(d Diagnostic) { diags = append(diags, d) })
	if len(diags) != 2 {
		t.Fatalf("want 2 malformed-directive findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "malformed ignore directive") {
			t.Errorf("unexpected message %q", d.Message)
		}
	}
	// Only the complete directive is indexed, at its line, for its analyzer.
	if n := len(idx["p.go"]); n != 1 {
		t.Fatalf("want exactly the well-formed directive indexed, got %d", n)
	}
	if got := idx["p.go"][0].line; got != 6 {
		t.Fatalf("directive indexed at line %d, want 6", got)
	}
	if !idx["p.go"][0].analyzers["droppederr"] {
		t.Fatal("directive does not cover droppederr")
	}
}
