package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural layer: a package-level call graph plus lightweight
// intra-function dataflow over go/types, collected once per package into
// the shared State and resolved transitively at Finish time. Three facts
// are derived for every declared function in the analysis set:
//
//   - parameter mutation: does the function (directly or through the
//     functions it calls) write through a slice/map/pointer parameter?
//     arenafreeze uses this to prove that an interior slice handed out
//     by a frozen-arena accessor is only ever read.
//   - barrier reachability: does the function (transitively) perform a
//     synchronization that can join a background goroutine — a channel
//     send/receive/select, sync.WaitGroup.Wait, or a graceful-shutdown
//     call? lifecycle uses this to prove a Close/Stop method actually
//     waits for the goroutine its constructor spawned.
//   - goroutine spawns: which functions start goroutines that are not
//     joined in the same body (fork-join helpers join before returning
//     and own no lifecycle), and what closable type, if any, they hand
//     back to the caller.
//
// The dataflow is deliberately one level deep per function — a parameter
// is tracked through direct element writes, builtin calls, and argument
// positions of statically resolved calls; anything else (aliasing into
// a second local, storage into a field, a dynamic call) is conservatively
// treated as a potential mutation. The transitive closure then runs over
// the recorded call edges, so cross-package chains (netsim -> topo) are
// judged without source-order coupling, the same way hotpathalloc's
// budget works.

const interpFactKey = "interproc"

// paramEdge records "this parameter is passed as argument calleeIdx of
// calleeKey" — judged read-only or mutating once the whole tree is seen.
type paramEdge struct {
	calleeKey string
	calleeIdx int
}

// paramInfo is the dataflow summary for one trackable parameter.
type paramInfo struct {
	mutated    bool // written through directly (element/field store, append, copy dst)
	unresolved bool // escapes the one-level dataflow: treated as mutating
	edges      []paramEdge
}

// spawnSite is one `go` statement that outlives its enclosing function.
type spawnSite struct {
	pos token.Position
}

// funcInfo is the per-function fact record.
type funcInfo struct {
	key     string // "pkgpath\x00Recv.Name"
	pretty  string // "Recv.Name"
	pkgPath string
	pos     token.Position

	params  []*paramInfo // indexed by signature parameter order (receiver excluded)
	barrier bool         // body performs a join/synchronization directly
	calls   []string     // statically resolved callee keys, for transitive closure

	spawns     []spawnSite // unjoined `go` statements
	joinedBody bool        // body also Waits on a WaitGroup outside any literal: fork-join

	resultTypeKey string // "pkgpath\x00TypeName" of the first named-struct result in the same package
	returnsFunc   bool   // first result is a func value (a stop function)
	isMethod      bool
	recvTypeKey   string // "pkgpath\x00TypeName" for methods
}

type interpFacts struct {
	funcs    map[string]*funcInfo
	scanned  map[string]bool // package paths already collected
	analyzed map[string]bool // package paths in the analysis set
	// closers maps a type key to the closer method keys it exposes
	// (Close/Stop/Shutdown declared on T or *T).
	closers map[string][]string

	// resolution memos (Finish time).
	mutMemo     map[string]map[int]int8 // 0 unknown/in-progress, 1 readonly, 2 mutates
	barrierMemo map[string]int8
}

func getInterpFacts(s *State) *interpFacts {
	return s.Get(interpFactKey, func() any {
		return &interpFacts{
			funcs:       map[string]*funcInfo{},
			scanned:     map[string]bool{},
			analyzed:    map[string]bool{},
			closers:     map[string][]string{},
			mutMemo:     map[string]map[int]int8{},
			barrierMemo: map[string]int8{},
		}
	}).(*interpFacts)
}

// typeKeyOf names a (possibly pointered) named type across packages.
func typeKeyOf(t types.Type) string {
	n, ok := namedType(t)
	if !ok {
		return ""
	}
	if orig := n.Origin(); orig != nil {
		n = orig
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "\x00" + obj.Name()
}

// trackableParam reports whether writes through a parameter of type t are
// visible to the caller.
func trackableParam(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map:
		return true
	}
	return false
}

// collectInterproc scans pass.Pkg once (all files, tests included) and
// records funcInfo facts. Safe to call from several analyzers.
func collectInterproc(pass *Pass) {
	facts := getInterpFacts(pass.State)
	if facts.scanned[pass.Pkg.PkgPath] {
		return
	}
	facts.scanned[pass.Pkg.PkgPath] = true
	facts.analyzed[pass.Pkg.PkgPath] = true
	info := pass.Pkg.TypesInfo

	for _, file := range pass.Pkg.AllFiles() {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fi := collectFunc(pass, info, fd)
			facts.funcs[fi.key] = fi
			if fi.isMethod {
				switch fd.Name.Name {
				case "Close", "Stop", "Shutdown":
					facts.closers[fi.recvTypeKey] = append(facts.closers[fi.recvTypeKey], fi.key)
				}
			}
		}
	}
}

// collectFunc builds the fact record for one declaration.
func collectFunc(pass *Pass, info *types.Info, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{
		key:     pass.Pkg.PkgPath + "\x00" + funcKey(fd),
		pretty:  funcKey(fd),
		pkgPath: pass.Pkg.PkgPath,
		pos:     pass.Pkg.Fset.Position(fd.Pos()),
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		fi.isMethod = true
		if tv, ok := info.Defs[fd.Name]; ok {
			if sig, ok := tv.Type().(*types.Signature); ok && sig.Recv() != nil {
				fi.recvTypeKey = typeKeyOf(sig.Recv().Type())
			}
		}
	}

	// Parameter objects, in signature order.
	var paramVars []*types.Var
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				paramVars = append(paramVars, sig.Params().At(i))
			}
			if sig.Results().Len() > 0 {
				r := sig.Results().At(0).Type()
				if _, isFunc := r.Underlying().(*types.Signature); isFunc {
					fi.returnsFunc = true
				}
				if key := typeKeyOf(r); key != "" && strings.HasPrefix(key, pass.Pkg.PkgPath+"\x00") {
					fi.resultTypeKey = key
				}
			}
		}
	}
	fi.params = make([]*paramInfo, len(paramVars))
	paramIdx := map[*types.Var]int{}
	for i, v := range paramVars {
		fi.params[i] = &paramInfo{}
		if trackableParam(v.Type()) {
			paramIdx[v] = i
		}
	}

	if fd.Body == nil {
		return fi
	}

	// paramOf resolves e to a tracked parameter index when e is the
	// parameter itself or a subslice/deref of it (the aliases through
	// which a write still lands in the caller's memory).
	var paramOf func(e ast.Expr) (int, bool)
	paramOf = func(e ast.Expr) (int, bool) {
		switch v := e.(type) {
		case *ast.Ident:
			obj := info.Uses[v]
			if obj == nil {
				obj = info.Defs[v]
			}
			if p, ok := obj.(*types.Var); ok {
				if i, tracked := paramIdx[p]; tracked {
					return i, true
				}
			}
		case *ast.ParenExpr:
			return paramOf(v.X)
		case *ast.SliceExpr:
			return paramOf(v.X)
		case *ast.StarExpr:
			return paramOf(v.X)
		}
		return -1, false
	}
	// paramBaseOfLvalue walks an assignment target to the parameter it
	// writes through, requiring at least one dereference step (an index,
	// a field, or a pointer deref) so plain rebinding `p = x` does not
	// count as caller-visible mutation.
	var paramBaseOfLvalue func(e ast.Expr, derefs int) (int, bool)
	paramBaseOfLvalue = func(e ast.Expr, derefs int) (int, bool) {
		switch v := e.(type) {
		case *ast.Ident:
			if derefs == 0 {
				return -1, false
			}
			return paramOf(v)
		case *ast.ParenExpr:
			return paramBaseOfLvalue(v.X, derefs)
		case *ast.IndexExpr:
			return paramBaseOfLvalue(v.X, derefs+1)
		case *ast.SelectorExpr:
			return paramBaseOfLvalue(v.X, derefs+1)
		case *ast.StarExpr:
			return paramBaseOfLvalue(v.X, derefs+1)
		case *ast.SliceExpr:
			return paramBaseOfLvalue(v.X, derefs)
		}
		return -1, false
	}

	mark := func(i int, mutated bool) {
		if mutated {
			fi.params[i].mutated = true
		} else {
			fi.params[i].unresolved = true
		}
	}

	goDepth := 0 // literals nested under a `go` statement
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch v := node.(type) {
			case *ast.GoStmt:
				fi.spawns = append(fi.spawns, spawnSite{pos: pass.Pkg.Fset.Position(v.Pos())})
				goDepth++
				walk(v.Call)
				goDepth--
				return false
			case *ast.SendStmt:
				if goDepth == 0 {
					fi.barrier = true
				}
			case *ast.SelectStmt:
				if goDepth == 0 {
					fi.barrier = true
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && goDepth == 0 {
					fi.barrier = true
				}
				if v.Op == token.AND {
					// Taking &p[i] hands out a write-capable pointer.
					if i, ok := paramBaseOfLvalue(v.X, 0); ok {
						mark(i, true)
					}
				}
			case *ast.RangeStmt:
				if goDepth == 0 {
					if tv, ok := info.Types[v.X]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							fi.barrier = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					if i, ok := paramBaseOfLvalue(lhs, 0); ok {
						mark(i, true)
					}
				}
				// A parameter aliased into another variable, a field, or
				// a composite leaves the one-level dataflow.
				for _, rhs := range v.Rhs {
					if i, ok := paramOf(rhs); ok {
						mark(i, false)
					}
				}
			case *ast.IncDecStmt:
				if i, ok := paramBaseOfLvalue(v.X, 0); ok {
					mark(i, true)
				}
			case *ast.ReturnStmt:
				for _, r := range v.Results {
					if i, ok := paramOf(r); ok {
						// The slice itself escapes to the caller.
						mark(i, false)
					}
				}
			case *ast.CompositeLit:
				for _, el := range v.Elts {
					e := el
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if i, ok := paramOf(e); ok {
						mark(i, false)
					}
				}
			case *ast.CallExpr:
				collectCall(pass, info, fi, v, paramOf, mark, goDepth > 0)
			case *ast.FuncLit:
				// Literal bodies are walked as part of the enclosing
				// declaration: captured parameters keep their identity, and
				// barriers inside a literal still belong to a closure this
				// function builds. WaitGroup joins are handled in the
				// top-level sweep below.
				return true
			}
			return true
		})
	}
	walk(fd.Body)

	// Fork-join detection: a Wait on a sync.WaitGroup in the body proper
	// (not inside a literal, which may run on another goroutine or later)
	// joins the spawned workers before the function returns.
	for _, stmt := range fd.Body.List {
		ast.Inspect(stmt, func(node ast.Node) bool {
			if _, ok := node.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Wait" && isWaitGroupMethod(fn) {
					fi.joinedBody = true
				}
			}
			return true
		})
	}
	return fi
}

// collectCall records call edges, builtin mutations, and barrier calls.
func collectCall(pass *Pass, info *types.Info, fi *funcInfo, call *ast.CallExpr,
	paramOf func(ast.Expr) (int, bool), mark func(int, bool), inGo bool) {

	// Builtins: append may write the shared backing array past len when
	// capacity allows — exactly the hazard for arena-interior slices;
	// copy writes its destination; delete mutates its map.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append", "delete":
				if len(call.Args) > 0 {
					if i, ok := paramOf(call.Args[0]); ok {
						mark(i, true)
					}
				}
			case "copy":
				if len(call.Args) > 0 {
					if i, ok := paramOf(call.Args[0]); ok {
						mark(i, true)
					}
				}
			case "len", "cap", "print", "println", "min", "max", "clear":
				// clear mutates, but takes the map/slice itself:
				if b.Name() == "clear" && len(call.Args) > 0 {
					if i, ok := paramOf(call.Args[0]); ok {
						mark(i, true)
					}
				}
			}
			return
		}
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		// Dynamic call: a tracked parameter passed to it is out of reach.
		for _, arg := range call.Args {
			if i, ok := paramOf(arg); ok {
				mark(i, false)
			}
		}
		return
	}
	key, _, _, ok := calleeKeyOf(fn)
	if !ok {
		return
	}
	if !inGo {
		fi.calls = append(fi.calls, key)
		if isBarrierCallee(fn) {
			fi.barrier = true
		}
	}
	// Map arguments onto callee parameter indices (variadic tail folds
	// onto the last parameter).
	sig, _ := fn.Type().(*types.Signature)
	nparams := 0
	if sig != nil {
		nparams = sig.Params().Len()
	}
	for ai, arg := range call.Args {
		i, tracked := paramOf(arg)
		if !tracked {
			continue
		}
		ci := ai
		if nparams > 0 && ci >= nparams {
			ci = nparams - 1
		}
		fi.params[i].edges = append(fi.params[i].edges, paramEdge{calleeKey: key, calleeIdx: ci})
	}
}

// isWaitGroupMethod reports whether fn is a method on sync.WaitGroup.
func isWaitGroupMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return typeIs(sig.Recv().Type(), "sync", "WaitGroup")
}

// isBarrierCallee reports whether a call outside the analysis set is a
// recognized join: WaitGroup.Wait, or a graceful-shutdown method whose
// contract is to wait for background work (http.Server.Shutdown shape).
func isBarrierCallee(fn *types.Func) bool {
	if fn.Name() == "Wait" && isWaitGroupMethod(fn) {
		return true
	}
	if fn.Name() == "Shutdown" && isMethod(fn) {
		return true
	}
	return false
}

// --- Finish-time transitive resolvers ---

// stdlibReadonlyPkgs lists packages whose functions never retain or write
// a caller's slice: formatting, pure-query helpers, and the testing
// harness. Everything else outside the analysis set is conservatively
// mutating (notably package slices and sort.Slice*, which sort in place).
var stdlibReadonlyPkgs = map[string]bool{
	"fmt": true, "strings": true, "bytes": true, "math": true,
	"strconv": true, "unicode": true, "errors": true, "testing": true,
}

// stdlibReadonlyFuncs allowlists individual read-only functions from
// otherwise-mutating packages, keyed "pkg\x00Name".
var stdlibReadonlyFuncs = map[string]bool{
	"sort\x00Search":         true,
	"sort\x00SearchInts":     true,
	"sort\x00SearchFloat64s": true,
	"sort\x00SearchStrings":  true,
	"sort\x00IsSorted":       true,
	"sort\x00SliceIsSorted":  true,
	"sort\x00IntsAreSorted":  true,
	"slices\x00Equal":        true,
	"slices\x00IsSorted":     true,
}

// paramMutates resolves, transitively, whether calleeKey's parameter idx
// can be written (or escape tracking). Unknown callees outside the
// analysis set are mutating unless their package is allowlisted.
func (f *interpFacts) paramMutates(calleeKey string, idx int) bool {
	fi, known := f.funcs[calleeKey]
	if !known {
		if stdlibReadonlyFuncs[calleeKey] {
			return false
		}
		pkg, _, _ := strings.Cut(calleeKey, "\x00")
		return !stdlibReadonlyPkgs[pkg]
	}
	if idx >= len(fi.params) {
		return true
	}
	memo := f.mutMemo[calleeKey]
	if memo == nil {
		memo = map[int]int8{}
		f.mutMemo[calleeKey] = memo
	}
	switch memo[idx] {
	case 1:
		return false
	case 2:
		return true
	}
	p := fi.params[idx]
	if p.mutated || p.unresolved {
		memo[idx] = 2
		return true
	}
	memo[idx] = 1 // optimistic: a cycle that only ever forwards is read-only
	for _, e := range p.edges {
		if f.paramMutates(e.calleeKey, e.calleeIdx) {
			memo[idx] = 2
			return true
		}
	}
	return false
}

// reachesBarrier resolves, transitively over statically resolved calls
// within the analysis set, whether key performs a join.
func (f *interpFacts) reachesBarrier(key string) bool {
	switch f.barrierMemo[key] {
	case 1:
		return true
	case 2:
		return false
	}
	fi, known := f.funcs[key]
	if !known {
		f.barrierMemo[key] = 2
		return false
	}
	if fi.barrier {
		f.barrierMemo[key] = 1
		return true
	}
	f.barrierMemo[key] = 2 // break cycles pessimistically
	for _, c := range fi.calls {
		if f.reachesBarrier(c) {
			f.barrierMemo[key] = 1
			return true
		}
	}
	return false
}
