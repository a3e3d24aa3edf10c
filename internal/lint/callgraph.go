package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The interprocedural layer lifecycle stands on: a package-level call
// graph over go/types, collected once per package into the shared State
// and resolved transitively at Finish time. Two facts are derived for
// every declared function in the analysis set:
//
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
// The transitive closure runs over the recorded call edges, so
// cross-package chains are judged without source-order coupling.

const interpFactKey = "interproc"

// spawnSite is one `go` statement that outlives its enclosing function.
type spawnSite struct {
	pos token.Position
}

// funcInfo is the per-function fact record.
type funcInfo struct {
	key    string // "pkgpath\x00Recv.Name"
	pretty string // "Recv.Name"
	pos    token.Position

	barrier bool     // body performs a join/synchronization directly
	calls   []string // statically resolved callee keys, for transitive closure

	spawns     []spawnSite // unjoined `go` statements
	joinedBody bool        // body also Waits on a WaitGroup outside any literal: fork-join

	resultTypeKey string // "pkgpath\x00TypeName" of the first named-struct result in the same package
	returnsFunc   bool   // first result is a func value (a stop function)
	// closerHandedOff: a closer of the result type is passed to a call,
	// as t.Cleanup(f.Stop) or a literal calling it: someone else owns it.
	closerHandedOff bool
	isMethod        bool
	recvTypeKey     string // "pkgpath\x00TypeName" for methods
}

type interpFacts struct {
	funcs   map[string]*funcInfo
	scanned map[string]bool // package paths already collected
	// closers maps a type key to the closer method keys it exposes
	// (Close/Stop/Shutdown declared on T or *T).
	closers map[string][]string

	barrierMemo map[string]int8 // Finish-time resolution memo
}

func getInterpFacts(s *State) *interpFacts {
	return s.Get(interpFactKey, func() any {
		return &interpFacts{
			funcs:       map[string]*funcInfo{},
			scanned:     map[string]bool{},
			closers:     map[string][]string{},
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

// cutKey splits a "pkgpath\x00name" key.
func cutKey(key string) (pkg, name string, ok bool) {
	pkg, name, ok = strings.Cut(key, "\x00")
	if !ok {
		return "", key, false
	}
	return pkg, name, true
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

// collectInterproc scans pass.Pkg once (all files, tests included) and
// records funcInfo facts.
func collectInterproc(pass *Pass) {
	facts := getInterpFacts(pass.State)
	if facts.scanned[pass.Pkg.PkgPath] {
		return
	}
	facts.scanned[pass.Pkg.PkgPath] = true
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
		key:    pass.Pkg.PkgPath + "\x00" + funcKey(fd),
		pretty: funcKey(fd),
		pos:    pass.Pkg.Fset.Position(fd.Pos()),

		isMethod: fd.Recv != nil && len(fd.Recv.List) > 0,
	}
	if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := obj.Type().(*types.Signature); ok {
			if sig.Recv() != nil {
				fi.recvTypeKey = typeKeyOf(sig.Recv().Type())
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

	if fd.Body == nil {
		return fi
	}

	// Literal bodies are walked as part of the enclosing declaration:
	// barriers and calls inside a literal still belong to a closure this
	// function builds. Those under a `go` statement run on the new
	// goroutine instead, and WaitGroup joins are handled in the top-level
	// sweep below.
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
			case *ast.SendStmt, *ast.SelectStmt:
				if goDepth == 0 {
					fi.barrier = true
				}
			case *ast.UnaryExpr:
				if v.Op == token.ARROW && goDepth == 0 {
					fi.barrier = true
				}
			case *ast.RangeStmt:
				if goDepth == 0 {
					if tv, ok := info.Types[v.X]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							fi.barrier = true
						}
					}
				}
			case *ast.CallExpr:
				if goDepth == 0 {
					collectCall(info, fi, v)
				}
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

// collectCall records a statically resolved call edge, whether the callee
// is a recognized barrier, and whether the call is handed a closer of the
// function's own result.
func collectCall(info *types.Info, fi *funcInfo, call *ast.CallExpr) {
	if fi.resultTypeKey != "" {
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && closerNames[sel.Sel.Name] {
					if tv, ok := info.Types[sel.X]; ok && typeKeyOf(tv.Type) == fi.resultTypeKey {
						fi.closerHandedOff = true
					}
				}
				return true
			})
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	key, _, ok := calleeKeyOf(fn)
	if !ok {
		return
	}
	fi.calls = append(fi.calls, key)
	if isBarrierCallee(fn) {
		fi.barrier = true
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
