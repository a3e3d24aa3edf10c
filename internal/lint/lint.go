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
//   - hotpathalloc: functions annotated //mifo:hotpath do not format,
//     allocate maps/slices, append to escaping slices, take locks, or
//     call unannotated project functions.
//   - droppederr: errors are not discarded via _ or unchecked
//     Close/Flush/Sync calls.
//   - shadow: an inner := does not split a variable whose outer value is
//     read again.
//   - lifecycle: goroutine-spawning constructors expose a teardown, every
//     Close/Stop/Shutdown of a goroutine-owning type reaches a drain
//     barrier, and callers keep a path to the teardown.
//   - locksafe: no sync.Mutex/RWMutex is held across a channel send, a
//     generation Commit, or a blocking network/sleep call.
//   - obsnames: metric names registered with internal/obs are snake_case
//     literals with the owning component's prefix, registered at most
//     once per name across the tree.
//
// lifecycle resolves through the interprocedural layer in callgraph.go:
// per-function facts collected into State at Run time and closed
// transitively at Finish time.
//
// A finding can be suppressed — with a recorded justification — by a
// directive on the offending line or the line above it:
//
//	//mifolint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory: an ignore without one is itself a finding, and
// a directive that no longer suppresses anything fails the repository's
// ignore audit (TestIgnoreDirectivesJustified).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
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
	// TestFiles holds the package's in-package _test.go files, type-checked
	// together with Files into the same Types/TypesInfo. Most analyzers
	// walk only Files (test code may legitimately poke internals); the
	// lifecycle analyzer also walks TestFiles, because tests leaking
	// goroutines poison every race run after them.
	TestFiles []*ast.File
}

// AllFiles returns source and test files as one slice, for analyses that
// must see call sites in tests too.
func (p *Package) AllFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	all := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	all = append(all, p.Files...)
	all = append(all, p.TestFiles...)
	return all
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

// State carries cross-package facts through one Run — the whole-tree
// aggregation a per-package pass cannot do (e.g. obsnames' duplicate
// registration check).
type State struct {
	mu sync.Mutex
	m  map[string]any
}

// NewState returns an empty fact store.
func NewState() *State { return &State{m: map[string]any{}} }

// Get returns the fact under key, creating it with mk on first use.
func (s *State) Get(key string, mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		v = mk()
		s.m[key] = v
	}
	return v
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	State    *State
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

// Analyzer is one named check. Run is invoked once per package; Finish,
// when set, once after every package has been visited, for whole-run facts.
type Analyzer struct {
	Name   string
	Doc    string
	Run    func(*Pass)
	Finish func(*State, func(Diagnostic))
}

// IgnoreDirective is the comment prefix that suppresses a finding.
const IgnoreDirective = "//mifolint:ignore"

// HotpathDirective marks a function as hot-path in its doc comment.
const HotpathDirective = "//mifo:hotpath"

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

// buildIgnoreIndex parses every //mifolint:ignore directive in pkgs
// (test files included — an ignore there must justify itself the same
// way). Directives without a reason are reported immediately: a silent
// suppression defeats the point of recording why a contract is waived.
func buildIgnoreIndex(pkgs []*Package, report func(Diagnostic)) ignoreIndex {
	idx := ignoreIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.AllFiles() {
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
// findings sorted by position. Suppression directives are honored; a
// malformed directive is itself a finding.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunWithIgnoreAudit(pkgs, analyzers)
	return diags
}

// RunWithIgnoreAudit is Run plus a report of ignore directives that
// suppressed nothing. Plain Run (which may see only part of the tree)
// must not enforce unused-ignore hygiene — only the repository-wide test
// does.
func RunWithIgnoreAudit(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedIgnore) {
	var mu sync.Mutex
	var all []Diagnostic
	report := func(d Diagnostic) {
		mu.Lock()
		all = append(all, d)
		mu.Unlock()
	}
	idx := buildIgnoreIndex(pkgs, report)
	state := NewState()
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, State: state, report: report})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(state, report)
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
		Hotpath(),
		Obsnames(DefaultObsnamesConfig()),
		Locksafe(DefaultLocksafeConfig()),
		Shadow(),
		Droppederr(),
		Lifecycle(),
	}
}

// --- small shared helpers ---

// funcKey names a declared function the way the analyzers' allowlists do:
// "Name" for plain functions, "Recv.Name" for methods (pointer receivers
// spelled the same as value receivers).
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// recvTypeName extracts the base type name of a receiver expression,
// unwrapping pointers and type parameter lists (Txn[V] -> Txn).
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// namedOrAlias resolves t to its named type, unwrapping pointers.
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
// pkgSuffix.typeName, where pkgSuffix matches the end of the import path
// (so the same analyzer config works for "repro/internal/obs" and a
// testdata corpus package called "obs"). Generic instantiations match
// their origin type.
func typeIs(t types.Type, pkgSuffix, typeName string) bool {
	n, ok := namedType(t)
	if !ok {
		return false
	}
	if orig := n.Origin(); orig != nil {
		n = orig
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != typeName {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// pathHasSuffix matches whole path segments: "internal/obs" matches
// "repro/internal/obs" but not "repro/internal/xobs".
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
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

// hasDirective reports whether the function's doc comment carries the
// given directive (e.g. //mifo:hotpath).
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}
