// Package lint is mifolint: a suite of static analyzers for the
// repository's conventions the compiler cannot see. It keeps only checks
// that have earned their place (DESIGN.md "Static invariants" names the
// finding or contract behind each). Contracts a package boundary
// can hold — published FIB generations, the topo.Graph and bgp.Dest
// arenas — are held there instead: unexported fields written only inside
// the owning package, and tests that fail when they are written.
//
// The suite mirrors the shape of golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic, testdata corpora with "want" comments) but is built on
// the standard library alone, loading type information from the build
// cache's export data, so it runs in a hermetic environment with no module
// downloads.
//
// Analyzers:
//
//   - droppederr: errors are not discarded via _ or unchecked
//     Close/Flush/Sync calls.
//   - shadow: an inner := does not split a variable whose outer value is
//     read again.
//   - locksafe: no sync.Mutex/RWMutex is held across a channel send, a
//     generation Commit, or a blocking network/sleep call.
//
// Goroutine ownership is held by the tests that start goroutines, not
// by an analyzer: internal/leakcheck fails a package whose tests leave
// one running.
//
// A finding can be suppressed — with a recorded justification — by a
// directive on the offending line or the line above it:
//
//	//mifolint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory: an ignore without one is itself a finding, and
// a directive that no longer suppresses anything fails the repository's
// whole-tree test (TestRepositoryLintsClean).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one loaded, type-checked package under analysis.
type Package struct {
	PkgPath   string
	Name      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info with every map analyzers rely on populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Analyzer is one named check. Run is invoked once per package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//mifolint:ignore"

// ignoreRule is one parsed ignore directive.
type ignoreRule struct {
	analyzers map[string]bool
	line      int  // line the directive appears on
	hasReason bool // directives must say why
	used      bool // set when the directive suppresses a finding
	pos       token.Position
}

// ignoreIndex maps filename -> parsed directives.
type ignoreIndex map[string][]*ignoreRule

// buildIgnoreIndex parses every //mifolint:ignore directive in pkgs.
// Directives without a reason are reported immediately: a silent
// suppression defeats the point of recording why a contract is waived.
func buildIgnoreIndex(pkgs []*Package, report func(Diagnostic)) ignoreIndex {
	idx := ignoreIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, IgnoreDirective) {
						continue
					}
					rest := strings.TrimPrefix(c.Text, IgnoreDirective)
					fields := strings.Fields(rest)
					pos := pkg.Fset.Position(c.Pos())
					rule := &ignoreRule{analyzers: map[string]bool{}, line: pos.Line, pos: pos}
					if len(fields) > 0 {
						for _, name := range strings.Split(fields[0], ",") {
							rule.analyzers[name] = true
						}
						rule.hasReason = len(fields) > 1
					}
					if len(rule.analyzers) == 0 || !rule.hasReason {
						report(Diagnostic{
							Pos:      pos,
							Message:  "malformed ignore directive: want //mifolint:ignore <analyzer>[,<analyzer>] <reason>",
							Analyzer: "mifolint",
						})
						continue
					}
					idx[pos.Filename] = append(idx[pos.Filename], rule)
				}
			}
		}
	}
	return idx
}

// suppressed reports whether d is covered by a directive on its own line
// or the line immediately above, marking the matching directive used.
func (idx ignoreIndex) suppressed(d Diagnostic) bool {
	hit := false
	for _, r := range idx[d.Pos.Filename] {
		if (r.line == d.Pos.Line || r.line == d.Pos.Line-1) && r.analyzers[d.Analyzer] {
			r.used = true
			hit = true
		}
	}
	return hit
}

// UnusedIgnore is a well-formed //mifolint:ignore directive that did not
// suppress anything in the run — the finding it once justified is gone,
// so the waiver (and its stale reason) should go too.
type UnusedIgnore struct {
	Pos       token.Position
	Analyzers []string
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position, and the ignore directives that suppressed
// nothing. Suppression directives are honored; a malformed directive is
// itself a finding. An unused directive is not: a run over part of the
// tree, or with part of the suite, leaves waivers unused legitimately, so
// only the repository-wide test fails on them.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedIgnore) {
	var all []Diagnostic
	report := func(d Diagnostic) { all = append(all, d) }
	idx := buildIgnoreIndex(pkgs, report)
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, report: report})
		}
	}
	kept := all[:0]
	for _, d := range all {
		if !idx.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	var unused []UnusedIgnore
	for _, rules := range idx {
		for _, r := range rules {
			if r.used {
				continue
			}
			var names []string
			for n := range r.analyzers {
				names = append(names, n)
			}
			sort.Strings(names)
			unused = append(unused, UnusedIgnore{Pos: r.pos, Analyzers: names})
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i], unused[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return kept, unused
}

// Suite returns the default mifolint analyzer set, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		Locksafe(),
		Shadow(),
		Droppederr(),
	}
}

// --- small shared helpers ---

// namedType resolves t to its named type, unwrapping pointers.
func namedType(t types.Type) (*types.Named, bool) {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u, true
		default:
			return nil, false
		}
	}
}

// typeIs reports whether t (possibly behind pointers) is the named type
// pkgPath.typeName. Generic instantiations match their origin type.
func typeIs(t types.Type, pkgPath, typeName string) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	if orig := n.Origin(); orig != nil {
		n = orig
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Name() == typeName && obj.Pkg().Path() == pkgPath
}

// calleeFunc statically resolves a call to its declared *types.Func, or
// nil for dynamic calls, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// enclosingFunc returns the innermost FuncDecl containing pos, using the
// precomputed decl list.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
