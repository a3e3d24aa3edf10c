package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathalloc enforces the forwarding-path cost model behind the
// nanosecond budgets BENCHMARK.json tracks per layer (dataplane.forward_ns,
// dataplane.forward_deflect_ns): a function annotated
//
//	//mifo:hotpath
//
// is part of the per-packet path (Forward, FIB.Lookup, Trace.Emit,
// the drop/deflect bookkeeping) and must stay allocation- and
// lock-free. Inside such a function (and the function literals it
// contains) the analyzer flags:
//
//   - calls into package fmt — formatting allocates and the hot path
//     must build notes only behind an Enabled() guard;
//   - map/slice composite literals and make() — per-packet heap traffic;
//   - append through an escaping destination (a field, element, or other
//     non-local lvalue on either side of the append);
//   - non-constant string concatenation;
//   - acquiring a sync.Mutex/RWMutex;
//   - channel sends (unbounded blocking);
//   - calls to project functions that are not themselves annotated
//     //mifo:hotpath — the budget is transitive, so the whole statically
//     resolvable call tree must opt in.
//
// The transitive check runs over the whole analysis set at Finish time,
// so cross-package edges (dataplane -> obs) are enforced without
// source-order coupling. Dynamic calls through function values and
// interface methods are outside its reach — the data plane's
// hook fields (Router.Hop, Router.Deflect) are the documented escape
// hatches and their implementations own their cost.
const hotpathFactKey = "hotpath"

type hotpathFacts struct {
	annotated map[string]bool     // "pkg.Recv.Name" -> declared hot
	analyzed  map[string]bool     // package paths seen this run
	edges     []hotpathEdge       // hot caller -> statically resolved callee
	positions map[string]struct{} // dedup for edges
}

type hotpathEdge struct {
	pos        token.Position
	caller     string
	calleeKey  string // "pkgpath\x00Recv.Name"
	calleeName string // pretty name for the report
	calleePkg  string
}

func getHotpathFacts(s *State) *hotpathFacts {
	return s.Get(hotpathFactKey, func() any {
		return &hotpathFacts{
			annotated: map[string]bool{},
			analyzed:  map[string]bool{},
			positions: map[string]struct{}{},
		}
	}).(*hotpathFacts)
}

// Hotpath returns the hot-path cost-model analyzer.
func Hotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc:  "//mifo:hotpath functions must not allocate, format, lock, or call unannotated project functions",
	}
	a.Run = runHotpath
	a.Finish = finishHotpath
	return a
}

// calleeKeyOf builds the cross-package identity of a declared function.
func calleeKeyOf(fn *types.Func) (key, pretty, pkgPath string, ok bool) {
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	if fn.Pkg() == nil {
		return "", "", "", false // builtins
	}
	name := fn.Name()
	if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() != nil {
		if n, nok := namedType(sig.Recv().Type()); nok {
			if orig := n.Origin(); orig != nil {
				n = orig
			}
			name = n.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Path() + "\x00" + name, name, fn.Pkg().Path(), true
}

func runHotpath(pass *Pass) {
	facts := getHotpathFacts(pass.State)
	facts.analyzed[pass.Pkg.PkgPath] = true
	info := pass.Pkg.TypesInfo

	// First pass: record every annotated function in this package.
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && hasDirective(fd, HotpathDirective) {
				facts.annotated[pass.Pkg.PkgPath+"\x00"+funcKey(fd)] = true
			}
		}
	}

	// isLocalVar reports whether e is a plain reference to a
	// function-local variable (including parameters) — the only append
	// destination that cannot alias a published structure.
	isLocalVar := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		if id.Name == "_" {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		return ok && !v.IsField() && v.Parent() != nil && v.Parent() != v.Pkg().Scope()
	}

	checkAppend := func(call *ast.CallExpr, lhs ast.Expr) {
		if len(call.Args) == 0 {
			return
		}
		if !isLocalVar(call.Args[0]) {
			pass.Reportf(call.Pos(), "hot path appends to an escaping slice %s: pre-size off the hot path or keep the buffer local", exprString(call.Args[0]))
			return
		}
		if lhs != nil && !isLocalVar(lhs) {
			pass.Reportf(call.Pos(), "hot path append result stored in escaping %s: keep hot-path buffers local", exprString(lhs))
		}
	}

	isAppend := func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "append"
	}

	checkBody := func(fd *ast.FuncDecl) {
		caller := funcKey(fd)
		appendsSeen := map[*ast.CallExpr]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				// Pair append calls with their destination before the
				// generic CallExpr case sees them.
				for i, rhs := range v.Rhs {
					if call, ok := rhs.(*ast.CallExpr); ok && isAppend(call) {
						appendsSeen[call] = true
						var lhs ast.Expr
						if len(v.Lhs) == len(v.Rhs) {
							lhs = v.Lhs[i]
						}
						checkAppend(call, lhs)
					}
				}
			case *ast.SendStmt:
				pass.Reportf(v.Pos(), "hot path sends on a channel: a full receiver blocks packet forwarding")
			case *ast.CompositeLit:
				if tv, ok := info.Types[v]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map:
						pass.Reportf(v.Pos(), "hot path allocates a map literal: hoist it off the per-packet path")
					case *types.Slice:
						pass.Reportf(v.Pos(), "hot path allocates a slice literal: hoist it off the per-packet path")
					}
				}
			case *ast.BinaryExpr:
				if v.Op == token.ADD {
					if tv, ok := info.Types[v]; ok && tv.Value == nil {
						if b, bok := tv.Type.Underlying().(*types.Basic); bok && b.Info()&types.IsString != 0 {
							pass.Reportf(v.Pos(), "hot path concatenates strings: build notes only behind an Enabled() guard")
						}
					}
				}
			case *ast.CallExpr:
				if isAppend(v) {
					if !appendsSeen[v] {
						checkAppend(v, nil)
					}
					return true
				}
				if id, ok := v.Fun.(*ast.Ident); ok {
					if b, bok := info.Uses[id].(*types.Builtin); bok && b.Name() == "make" {
						pass.Reportf(v.Pos(), "hot path calls make: allocate off the per-packet path")
						return true
					}
				}
				// Type conversions are free of the concerns below.
				if tv, ok := info.Types[v.Fun]; ok && tv.IsType() {
					return true
				}
				fn := calleeFunc(info, v)
				if fn == nil {
					return true // dynamic call: hook fields own their cost
				}
				key, pretty, pkgPath, ok := calleeKeyOf(fn)
				if !ok {
					return true
				}
				if pkgPath == "fmt" {
					pass.Reportf(v.Pos(), "hot path calls fmt.%s: formatting allocates on every packet", fn.Name())
					return true
				}
				if pkgPath == "sync" && isLockAcquire(fn) {
					pass.Reportf(v.Pos(), "hot path takes %s.%s: the forwarding engine must stay lock-free", lockRecvName(fn), fn.Name())
					return true
				}
				facts.edges = append(facts.edges, hotpathEdge{
					pos:        pass.Pkg.Fset.Position(v.Pos()),
					caller:     caller,
					calleeKey:  key,
					calleeName: pretty,
					calleePkg:  pkgPath,
				})
			}
			return true
		})
	}

	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd, HotpathDirective) {
				continue
			}
			checkBody(fd)
		}
	}
}

// finishHotpath resolves the recorded call edges against the full
// annotation set: an edge into an analyzed package must land on an
// annotated function. Edges into packages outside the analysis set
// (standard library, generated code) are not judged.
func finishHotpath(s *State, report func(Diagnostic)) {
	facts := getHotpathFacts(s)
	for _, e := range facts.edges {
		if !facts.analyzed[e.calleePkg] || facts.annotated[e.calleeKey] {
			continue
		}
		report(Diagnostic{
			Pos: e.pos,
			Message: fmt.Sprintf("%s is //mifo:hotpath but calls %s.%s, which is not annotated: the cost budget is transitive",
				e.caller, shortPkg(e.calleePkg), e.calleeName),
			Analyzer: "hotpathalloc",
		})
	}
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

// isLockAcquire reports whether fn is a blocking lock acquisition on
// sync.Mutex or sync.RWMutex.
func isLockAcquire(fn *types.Func) bool {
	switch fn.Name() {
	case "Lock", "RLock":
	default:
		return false
	}
	return lockRecvName(fn) != ""
}

// lockRecvName returns "Mutex"/"RWMutex" when fn is a method on one.
func lockRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	n, ok := namedType(sig.Recv().Type())
	if !ok {
		return ""
	}
	switch n.Obj().Name() {
	case "Mutex", "RWMutex":
		return n.Obj().Name()
	}
	return ""
}

func shortPkg(path string) string {
	if i := lastSlash(path); i >= 0 {
		return path[i+1:]
	}
	return path
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
