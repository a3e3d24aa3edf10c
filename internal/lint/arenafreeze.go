package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// arenafreeze enforces the publish-then-freeze contract on arena-backed
// structures: memory a builder assembles and hands out (the topo.Graph
// CSR arrays, bgp.Dest packed route entries) is immutable from the moment
// it is returned. Concretely:
//
//   - no function outside the type's allowed writers may store through a
//     frozen type's fields (element assignment, field assignment, append,
//     ++/--, or taking a slot's address);
//   - accessor methods that return interior slices of the arena (the
//     Graph.Neighbors shape — "callers must not modify" in prose) are
//     verified at every call site: the returned slice may be ranged,
//     indexed for reading, and measured, and it may be passed to callees
//     that provably only read it (transitively, via the interprocedural
//     parameter-mutation facts — the same shape as hotpathalloc's
//     transitive budget). Writing an element, appending (a subslice of a
//     packed arena has spare capacity that belongs to the *next*
//     segment), re-slicing into a new alias, storing the slice into a
//     structure, or passing it to a callee the analyzer cannot prove
//     read-only is a finding.
//
// The versioned FIB generations keep their own, stricter analyzer
// (fibtxn); arenafreeze covers the builder-published arenas that
// have no transaction API — their entire write surface is the builder.

// FrozenType names one arena-published type and its construction surface.
type FrozenType struct {
	// PkgSuffix locates the declaring package (path-suffix match).
	PkgSuffix string
	// TypeName is the frozen type's name.
	TypeName string
	// AllowedWriters are funcKeys ("Recv.Name" or "Name") in the declaring
	// package that may write the fields: the builder path.
	AllowedWriters []string
}

// ArenafreezeConfig parameterizes the arenafreeze analyzer.
type ArenafreezeConfig struct {
	Types []FrozenType
}

// DefaultArenafreezeConfig covers the repository's builder-published
// arenas.
func DefaultArenafreezeConfig() ArenafreezeConfig {
	return ArenafreezeConfig{Types: []FrozenType{
		{
			// The CSR topology: off/nbrs and the relationship-grouped
			// goff/grp, packed once by Builder.Build or filtered into a
			// fresh Graph by RemoveLinks (a copy; the source graph is only
			// read).
			PkgSuffix:      "internal/topo",
			TypeName:       "Graph",
			AllowedWriters: []string{"Builder.Build", "RemoveLinks"},
		},
		{
			// Per-destination packed route entries, possibly arena-backed:
			// written only by the route computation that returns them, or
			// by the link-event repair, which fills a fresh copy of the
			// table it was given and never the table itself.
			PkgSuffix:      "internal/bgp",
			TypeName:       "Dest",
			AllowedWriters: []string{"computeScratch.compute", "repairScratch.repair"},
		},
	}}
}

const arenafreezeFactKey = "arenafreeze"

// interiorSite is one call to a possible interior-slice accessor, with
// its use already classified; judged at Finish once the accessor set is
// complete.
type interiorSite struct {
	pos       token.Position
	calleeKey string // accessor identity, calleeKeyOf form
	pretty    string // "Graph.Neighbors"
	verdict   string // read | mutate | escape | edge
	detail    string // what the escape/mutation is, for the report
	edgeKey   string // for verdict == edge
	edgeIdx   int
}

type arenafreezeFacts struct {
	// accessors is the set of frozen-type methods returning interior
	// slices of the arena, in calleeKeyOf form.
	accessors map[string]bool
	sites     []interiorSite
}

func getArenafreezeFacts(s *State) *arenafreezeFacts {
	return s.Get(arenafreezeFactKey, func() any {
		return &arenafreezeFacts{accessors: map[string]bool{}}
	}).(*arenafreezeFacts)
}

// Arenafreeze returns the frozen-arena analyzer.
func Arenafreeze(cfg ArenafreezeConfig) *Analyzer {
	a := &Analyzer{
		Name: "arenafreeze",
		Doc:  "builder-published arena memory is frozen: no writes outside the builder, interior slices handed out by accessors are provably read-only",
	}
	a.Run = func(pass *Pass) { runArenafreeze(pass, cfg) }
	a.Finish = finishArenafreeze
	return a
}

// frozenTypeOf resolves t to its FrozenType config entry, if any.
func frozenTypeOf(cfg ArenafreezeConfig, t types.Type) *FrozenType {
	for i := range cfg.Types {
		ft := &cfg.Types[i]
		if typeIs(t, ft.PkgSuffix, ft.TypeName) {
			return ft
		}
	}
	return nil
}

func runArenafreeze(pass *Pass, cfg ArenafreezeConfig) {
	collectInterproc(pass)
	facts := getArenafreezeFacts(pass.State)
	info := pass.Pkg.TypesInfo

	for _, file := range pass.Pkg.AllFiles() {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := funcKey(fd)

			// The builder itself may write and re-slice freely: its whole
			// body is the construction path.
			inBuilder := false
			if ownPkg(pass, cfg, fd) {
				for i := range cfg.Types {
					if slices.Contains(cfg.Types[i].AllowedWriters, key) {
						inBuilder = true
					}
				}
			}
			if !inBuilder {
				checkFrozenWrites(pass, cfg, info, fd)
			}

			recordAccessorFact(pass, cfg, facts, info, fd)
			if !inBuilder {
				recordInteriorSites(pass, cfg, facts, info, fd)
			}
		}
	}
}

// ownPkg reports whether fd's package declares one of the frozen types
// (allowed-writer keys are only meaningful there).
func ownPkg(pass *Pass, cfg ArenafreezeConfig, fd *ast.FuncDecl) bool {
	for i := range cfg.Types {
		if pathHasSuffix(pass.Pkg.PkgPath, cfg.Types[i].PkgSuffix) {
			return true
		}
	}
	return false
}

// checkFrozenWrites flags stores through frozen-type fields, the fibtxn
// lvalue discipline applied to the arena types.
func checkFrozenWrites(pass *Pass, cfg ArenafreezeConfig, info *types.Info, fd *ast.FuncDecl) {
	report := func(pos token.Pos, ft *FrozenType, field string) {
		pass.Reportf(pos, "write to frozen %s.%s outside %v: arena memory is immutable once the builder publishes it",
			ft.TypeName, field, ft.AllowedWriters)
	}
	// frozenFieldBase walks an lvalue to a selector on a frozen type.
	var frozenFieldBase func(e ast.Expr) (*FrozenType, string, token.Pos, bool)
	frozenFieldBase = func(e ast.Expr) (*FrozenType, string, token.Pos, bool) {
		switch v := e.(type) {
		case *ast.ParenExpr:
			return frozenFieldBase(v.X)
		case *ast.StarExpr:
			return frozenFieldBase(v.X)
		case *ast.IndexExpr:
			return frozenFieldBase(v.X)
		case *ast.SliceExpr:
			return frozenFieldBase(v.X)
		case *ast.SelectorExpr:
			if tv, ok := info.Types[v.X]; ok {
				if ft := frozenTypeOf(cfg, tv.Type); ft != nil {
					if sel, ok := info.Selections[v]; ok && sel.Kind() == types.FieldVal {
						return ft, v.Sel.Name, v.Pos(), true
					}
				}
			}
			return frozenFieldBase(v.X)
		}
		return nil, "", token.NoPos, false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ft, field, pos, ok := frozenFieldBase(lhs); ok {
					report(pos, ft, field)
				}
			}
		case *ast.IncDecStmt:
			if ft, field, pos, ok := frozenFieldBase(v.X); ok {
				report(pos, ft, field)
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if _, ok := v.X.(*ast.IndexExpr); ok {
					if ft, field, pos, ok := frozenFieldBase(v.X); ok {
						report(pos, ft, field)
					}
				}
			}
		}
		return true
	})
}

// recordAccessorFact marks fd as an interior-slice accessor when it is a
// frozen-type method returning (a subslice of) a receiver slice field.
func recordAccessorFact(pass *Pass, cfg ArenafreezeConfig, facts *arenafreezeFacts, info *types.Info, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || frozenTypeOf(cfg, sig.Recv().Type()) == nil {
		return
	}
	returnsField := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			e := ast.Unparen(r)
			for {
				if se, ok := e.(*ast.SliceExpr); ok {
					e = ast.Unparen(se.X)
					continue
				}
				break
			}
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			tv, ok := info.Types[sel.X]
			if !ok || frozenTypeOf(cfg, tv.Type) == nil {
				continue
			}
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				if _, isSlice := s.Type().Underlying().(*types.Slice); isSlice {
					returnsField = true
				}
			}
		}
		return true
	})
	if returnsField {
		if key, _, _, ok := calleeKeyOf(obj); ok {
			facts.accessors[key] = true
		}
	}
}

// recordInteriorSites classifies every call to a frozen-type method that
// returns a slice; verdicts are judged at Finish against the accessor set.
func recordInteriorSites(pass *Pass, cfg ArenafreezeConfig, facts *arenafreezeFacts, info *types.Info, fd *ast.FuncDecl) {
	parent := buildParentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || !isMethod(fn) {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil || frozenTypeOf(cfg, sig.Recv().Type()) == nil {
			return true
		}
		if sig.Results().Len() != 1 {
			return true
		}
		if _, isSlice := sig.Results().At(0).Type().Underlying().(*types.Slice); !isSlice {
			return true
		}
		key, pretty, _, ok := calleeKeyOf(fn)
		if !ok {
			return true
		}
		site := interiorSite{
			pos:       pass.Pkg.Fset.Position(call.Pos()),
			calleeKey: key,
			pretty:    pretty,
		}
		site.verdict, site.detail, site.edgeKey, site.edgeIdx =
			classifyInteriorUse(info, parent, fd, call)
		facts.sites = append(facts.sites, site)
		return true
	})
}

// buildParentMap links every node in body to its parent.
func buildParentMap(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parent := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parent
}

// classifyInteriorUse decides what the caller does with an accessor's
// returned slice.
func classifyInteriorUse(info *types.Info, parent map[ast.Node]ast.Node, fd *ast.FuncDecl, call *ast.CallExpr) (verdict, detail, edgeKey string, edgeIdx int) {
	p := parent[call]
	switch v := p.(type) {
	case *ast.RangeStmt:
		if v.X == call {
			return "read", "", "", 0
		}
	case *ast.ExprStmt:
		return "read", "", "", 0
	case *ast.IndexExpr:
		if v.X == call {
			// elem read unless the element is an lvalue.
			if isLvalueContext(parent, v) {
				return "mutate", "an element is written through the interior slice", "", 0
			}
			return "read", "", "", 0
		}
	case *ast.CallExpr:
		// Argument of another call.
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap":
					return "read", "", "", 0
				case "append":
					if len(v.Args) > 0 && v.Args[0] == call {
						return "mutate", "append through an interior slice can clobber the adjacent arena segment", "", 0
					}
					return "read", "", "", 0 // appended *onto* a local: elements are copied
				case "copy":
					if len(v.Args) > 0 && v.Args[0] == call {
						return "mutate", "copy writes into the interior slice", "", 0
					}
					return "read", "", "", 0
				}
			}
		}
		if fn := calleeFunc(info, v); fn != nil {
			if key, _, _, ok := calleeKeyOf(fn); ok {
				for i, arg := range v.Args {
					if arg == call {
						ci := i
						if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Params().Len() > 0 && ci >= sig.Params().Len() {
							ci = sig.Params().Len() - 1
						}
						return "edge", "", key, ci
					}
				}
			}
		}
		return "escape", "the interior slice is passed to a call the analyzer cannot resolve", "", 0
	case *ast.AssignStmt:
		// v := accessor() — possibly one of a parallel assignment
		// (na, nb := a.Neighbors(v), b.Neighbors(v)): track every use of
		// the matching local.
		lhs := ast.Expr(nil)
		if len(v.Lhs) == len(v.Rhs) {
			for i := range v.Rhs {
				if v.Rhs[i] == call {
					lhs = v.Lhs[i]
				}
			}
		}
		if lhs != nil {
			if id, ok := lhs.(*ast.Ident); ok {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if lv, ok := obj.(*types.Var); ok && !lv.IsField() {
					return classifyLocalUses(info, parent, fd, lv)
				}
			}
		}
		return "escape", "the interior slice is stored somewhere the analyzer cannot track", "", 0
	}
	return "escape", "the interior slice escapes its call expression", "", 0
}

// isLvalueContext reports whether n is written (assignment target, ++/--,
// or address-taken).
func isLvalueContext(parent map[ast.Node]ast.Node, n ast.Node) bool {
	switch p := parent[n].(type) {
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == n {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == n
	case *ast.UnaryExpr:
		return p.Op == token.AND && p.X == n
	case *ast.SelectorExpr:
		// field of an element: writable through the chain.
		if p.X == n {
			return isLvalueContext(parent, p)
		}
	case *ast.IndexExpr:
		if p.X == n {
			return isLvalueContext(parent, p)
		}
	}
	return false
}

// classifyLocalUses inspects every use of the local holding an interior
// slice.
func classifyLocalUses(info *types.Info, parent map[ast.Node]ast.Node, fd *ast.FuncDecl, lv *types.Var) (verdict, detail, edgeKey string, edgeIdx int) {
	verdict = "read"
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if verdict != "read" && verdict != "edge" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != lv {
			return true
		}
		switch p := parent[id].(type) {
		case *ast.IndexExpr:
			if p.X == id && isLvalueContext(parent, p) {
				verdict, detail = "mutate", "an element is written through the interior slice"
			}
		case *ast.RangeStmt:
			// reading
		case *ast.CallExpr:
			if bid, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[bid].(*types.Builtin); ok {
					switch b.Name() {
					case "len", "cap":
						return true
					case "append", "copy":
						if len(p.Args) > 0 && p.Args[0] == id {
							verdict, detail = "mutate", b.Name()+" writes through the interior slice"
						}
						return true
					}
				}
			}
			if fn := calleeFunc(info, p); fn != nil {
				if key, _, _, ok := calleeKeyOf(fn); ok {
					for i, arg := range p.Args {
						if arg == id {
							ci := i
							if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Params().Len() > 0 && ci >= sig.Params().Len() {
								ci = sig.Params().Len() - 1
							}
							// One edge is representable; a second distinct
							// callee degrades to escape so Finish stays simple.
							if verdict == "edge" && (edgeKey != key || edgeIdx != ci) {
								verdict, detail = "escape", "the interior slice is passed to multiple callees"
								return true
							}
							verdict, edgeKey, edgeIdx = "edge", key, ci
							return true
						}
					}
				}
				return true
			}
			for _, arg := range p.Args {
				if arg == id {
					verdict, detail = "escape", "the interior slice is passed to a dynamic call"
				}
			}
		case *ast.AssignStmt:
			// Rebinding the variable itself is fine; using it as a RHS
			// aliases the arena into another name.
			for _, l := range p.Lhs {
				if l == id {
					return true
				}
			}
			verdict, detail = "escape", "the interior slice is re-aliased into another variable"
		case *ast.ReturnStmt:
			verdict, detail = "escape", "the interior slice is returned to an unchecked caller"
		case *ast.SliceExpr:
			if p.X == id {
				verdict, detail = "escape", "the interior slice is re-sliced into a new alias"
			}
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				verdict, detail = "escape", "the interior slice's address is taken"
			}
		case *ast.CompositeLit, *ast.KeyValueExpr:
			verdict, detail = "escape", "the interior slice is stored into a composite"
		}
		return true
	})
	return verdict, detail, edgeKey, edgeIdx
}

// finishArenafreeze judges the recorded call sites against the accessor
// set and the transitive parameter-mutation facts.
func finishArenafreeze(s *State, report func(Diagnostic)) {
	facts := getArenafreezeFacts(s)
	interp := getInterpFacts(s)
	for _, site := range facts.sites {
		if !facts.accessors[site.calleeKey] {
			continue
		}
		switch site.verdict {
		case "read":
			continue
		case "edge":
			if !interp.paramMutates(site.edgeKey, site.edgeIdx) {
				continue
			}
			_, callee, _ := cutKey(site.edgeKey)
			report(Diagnostic{
				Pos: site.pos,
				Message: fmt.Sprintf("interior slice from %s is passed to %s, which the analyzer cannot prove read-only: frozen arena memory must not be writable through aliases",
					site.pretty, callee),
				Analyzer: "arenafreeze",
			})
		default:
			report(Diagnostic{
				Pos: site.pos,
				Message: fmt.Sprintf("interior slice from %s: %s — the arena is frozen after publish",
					site.pretty, site.detail),
				Analyzer: "arenafreeze",
			})
		}
	}
}

// cutKey splits a "pkgpath\x00name" key.
func cutKey(key string) (pkg, name string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			return key[:i], key[i+1:], true
		}
	}
	return "", key, false
}
