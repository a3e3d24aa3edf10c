package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lifecycle enforces goroutine ownership: every background goroutine has
// an owner that can join it, and every owner is actually asked to.
// Three rules, all resolved at Finish time over the interprocedural
// facts (callgraph.go):
//
//  1. A function that starts a goroutine it does not join in its own
//     body (fork-join helpers like parallel.ForEach Wait before
//     returning and are exempt) must hand its caller a way to stop it:
//     a method's receiver type must expose Close/Stop/Shutdown, a
//     constructor must return a type that does (or a stop function, the
//     MonitorLoads shape). `main` owns its process and is exempt; test
//     functions are judged by rule 3 at their constructor call sites
//     instead, since test goroutines routinely end by channel close.
//
//  2. Every Close/Stop/Shutdown of a goroutine-owning type must reach a
//     drain barrier — a channel operation, select, sync.WaitGroup.Wait,
//     or a graceful Shutdown call, possibly transitively — before it
//     returns. A closer that only flips a flag leaves the goroutine
//     running through resource teardown: the unbuffered-command-channel
//     deadlock the audit batcher solved is exactly what this pins down.
//
//  3. Callers (tests included) of a goroutine-spawning constructor must
//     do something with the result: call Close/Stop/Shutdown on it
//     (deferred or not, directly or from a closure), invoke a returned
//     stop function, or hand the value off (pass, return, store) to an
//     owner that can. A constructor result that is dropped or bound to
//     a local that is never closed is a goroutine leak — in tests it
//     poisons every race run that follows. A constructor that hands its
//     result's closer to a call itself (t.Cleanup(f.Stop), the test
//     helper shape) has found the owner, and its callers owe nothing.

const lifecycleFactKey = "lifecycle"

// closeSite is one call to a possibly-spawning constructor, with the
// caller's handling of the result already classified.
type closeSite struct {
	pos       token.Position
	calleeKey string
	pretty    string
	handled   bool
}

type lifecycleFacts struct {
	sites []closeSite
}

func getLifecycleFacts(s *State) *lifecycleFacts {
	return s.Get(lifecycleFactKey, func() any { return &lifecycleFacts{} }).(*lifecycleFacts)
}

// closerNames are the teardown method names rule 1 accepts and rule 3
// looks for at call sites.
var closerNames = map[string]bool{"Close": true, "Stop": true, "Shutdown": true}

// Lifecycle returns the goroutine-ownership analyzer.
func Lifecycle() *Analyzer {
	a := &Analyzer{
		Name: "lifecycle",
		Doc:  "goroutine-spawning constructors expose Close/Stop, closers drain before teardown, and callers close on all paths",
	}
	a.Run = runLifecycle
	a.Finish = finishLifecycle
	return a
}

func runLifecycle(pass *Pass) {
	collectInterproc(pass)
	facts := getLifecycleFacts(pass.State)
	info := pass.Pkg.TypesInfo

	for _, file := range pass.Pkg.AllFiles() {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recordCloseSites(pass, facts, info, fd)
		}
	}
}

// recordCloseSites classifies, for every statically resolved call whose
// first result could carry a lifecycle (a named type or a func value),
// whether the caller retains a way to stop it. Whether the callee
// actually spawns is only known at Finish.
func recordCloseSites(pass *Pass, facts *lifecycleFacts, info *types.Info, fd *ast.FuncDecl) {
	parent := buildParentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Results().Len() == 0 {
			return true
		}
		res := sig.Results().At(0).Type()
		_, isFunc := res.Underlying().(*types.Signature)
		if _, isNamed := namedType(res); !isNamed && !isFunc {
			return true
		}
		key, pretty, ok := calleeKeyOf(fn)
		if !ok {
			return true
		}
		facts.sites = append(facts.sites, closeSite{
			pos:       pass.Pkg.Fset.Position(call.Pos()),
			calleeKey: key,
			pretty:    pretty,
			handled:   resultHandled(info, parent, fd, call),
		})
		return true
	})
}

// resultHandled decides whether the call's first result keeps a path to
// teardown.
func resultHandled(info *types.Info, parent map[ast.Node]ast.Node, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	switch p := parent[call].(type) {
	case *ast.ExprStmt:
		return false // result dropped on the floor
	case *ast.GoStmt, *ast.DeferStmt:
		return true
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if rhs != call {
				continue
			}
			// v := New(...) or v, err := New(...): the first result binds
			// Lhs[i] (multi-assign pairs 1:1; a multi-result call is the
			// sole Rhs and binds Lhs[0]).
			if i >= len(p.Lhs) {
				return true
			}
			id, ok := p.Lhs[i].(*ast.Ident)
			if !ok {
				return true // stored through a selector/index: escapes to an owner
			}
			if id.Name == "_" {
				return false
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			lv, ok := obj.(*types.Var)
			if !ok || lv.IsField() {
				return true
			}
			return localReachesTeardown(info, parent, fd, lv)
		}
		return true
	case *ast.CallExpr:
		return true // passed straight to another owner (t.Cleanup, helper)
	case *ast.ReturnStmt:
		return true // caller's caller owns it
	}
	return true
}

// localReachesTeardown reports whether the local lv is closed, invoked,
// or escapes to something that could close it.
func localReachesTeardown(info *types.Info, parent map[ast.Node]ast.Node, fd *ast.FuncDecl, lv *types.Var) bool {
	handled := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if handled {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != lv {
			return true
		}
		switch p := parent[id].(type) {
		case *ast.SelectorExpr:
			if p.X == id && closerNames[p.Sel.Name] {
				handled = true // v.Close / defer v.Stop / closure calling v.Shutdown
			}
		case *ast.CallExpr:
			if p.Fun == id {
				handled = true // stop() — invoking a returned stop function
				return false
			}
			for _, arg := range p.Args {
				if arg == id {
					handled = true // handed to a helper that owns teardown
				}
			}
		case *ast.ReturnStmt:
			handled = true
		case *ast.AssignStmt:
			for i, r := range p.Rhs {
				if r != id {
					continue
				}
				// `_ = v` silences the compiler, not the goroutine.
				if i < len(p.Lhs) {
					if lid, ok := p.Lhs[i].(*ast.Ident); ok && lid.Name == "_" {
						continue
					}
				}
				handled = true // re-aliased; the new name is the owner
			}
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				handled = true
			}
		case *ast.CompositeLit, *ast.KeyValueExpr:
			handled = true // stored in a structure an owner tears down
		case *ast.GoStmt, *ast.DeferStmt:
			handled = true
		}
		return true
	})
	return handled
}

// finishLifecycle applies the three rules over the complete fact set.
func finishLifecycle(s *State, report func(Diagnostic)) {
	interp := getInterpFacts(s)
	lfacts := getLifecycleFacts(s)

	// ctorOwns: calling this constructor leaves the caller holding a
	// goroutine — its own, or that of a constructor whose result it wraps.
	ctorMemo := map[string]bool{}
	var ctorOwns func(key string) bool
	ctorOwns = func(key string) bool {
		if owns, seen := ctorMemo[key]; seen {
			return owns
		}
		ctorMemo[key] = false // break cycles
		fi := interp.funcs[key]
		if fi == nil || fi.isMethod || fi.joinedBody || fi.closerHandedOff {
			return false
		}
		owns := len(fi.spawns) > 0
		if !owns && len(interp.closers[fi.resultTypeKey]) > 0 {
			for _, c := range fi.calls {
				if ctorOwns(c) {
					owns = true
					break
				}
			}
		}
		ctorMemo[key] = owns
		return owns
	}

	// owners: type keys whose goroutines come from a method or whose
	// constructor returns them.
	owners := map[string]bool{}
	for key, fi := range interp.funcs {
		if isTestFunc(fi) {
			continue
		}
		if fi.isMethod {
			if len(fi.spawns) > 0 && !fi.joinedBody && fi.recvTypeKey != "" {
				owners[fi.recvTypeKey] = true
			}
		} else if fi.resultTypeKey != "" && ctorOwns(key) {
			owners[fi.resultTypeKey] = true
		}
	}

	// Rule 1: spawners must expose a teardown path.
	for _, fi := range interp.funcs {
		if len(fi.spawns) == 0 || fi.joinedBody || isTestFunc(fi) {
			continue
		}
		if isMainPkgFunc(fi) {
			continue // the process is the lifecycle
		}
		pos := fi.spawns[0].pos
		if fi.isMethod {
			if fi.recvTypeKey == "" || len(interp.closers[fi.recvTypeKey]) > 0 {
				continue
			}
			_, typ, _ := cutKey(fi.recvTypeKey)
			report(Diagnostic{
				Pos: pos,
				Message: fmt.Sprintf("%s starts a goroutine but %s has no Close/Stop/Shutdown: the goroutine cannot be joined",
					fi.pretty, typ),
				Analyzer: "lifecycle",
			})
			continue
		}
		if fi.returnsFunc {
			continue // stop-function shape
		}
		if fi.resultTypeKey != "" && len(interp.closers[fi.resultTypeKey]) > 0 {
			continue
		}
		report(Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("%s starts a goroutine but gives its caller no way to stop it: return a type with Close/Stop or a stop function, or join before returning",
				fi.pretty),
			Analyzer: "lifecycle",
		})
	}

	// Rule 2: closers of goroutine-owning types must drain.
	for typeKey := range owners {
		for _, closerKey := range interp.closers[typeKey] {
			ci := interp.funcs[closerKey]
			if ci == nil || isTestFunc(ci) {
				continue
			}
			if interp.reachesBarrier(closerKey) {
				continue
			}
			report(Diagnostic{
				Pos: ci.pos,
				Message: fmt.Sprintf("%s tears down a goroutine-owning type without a drain barrier (channel op, select, WaitGroup.Wait, or Shutdown): the goroutine may outlive the resources it uses",
					ci.pretty),
				Analyzer: "lifecycle",
			})
		}
	}

	// Rule 3: constructor results must keep a teardown path.
	for _, site := range lfacts.sites {
		if site.handled {
			continue
		}
		if !ctorOwns(site.calleeKey) {
			continue
		}
		report(Diagnostic{
			Pos: site.pos,
			Message: fmt.Sprintf("result of %s is never closed: it starts a background goroutine, so drop-or-forget is a goroutine leak",
				site.pretty),
			Analyzer: "lifecycle",
		})
	}
}

// isTestFunc reports whether the function is declared in a _test.go file.
func isTestFunc(fi *funcInfo) bool {
	return strings.HasSuffix(fi.pos.Filename, "_test.go")
}

// isMainPkgFunc approximates "func main in package main": the function is
// named main with no receiver. Library functions named main are
// vanishingly rare and a miss here only silences, never flags.
func isMainPkgFunc(fi *funcInfo) bool {
	return !fi.isMethod && fi.pretty == "main"
}
