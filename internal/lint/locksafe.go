package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// locksafe guards the seams between the locked control plane and the
// wait-free data plane: a sync.Mutex/RWMutex must never be held across
// an operation that can block indefinitely or re-enter another writer's
// critical section. Those are exactly the deadlock shapes the dynamic
// `make race` / `audit-race` / `fib-race` matrix can only catch when a
// test happens to interleave them; this analyzer rejects them at build
// time. While a lock is held the analyzer flags:
//
//   - channel sends (unless in a select with a default arm);
//   - calls to a Commit method — a FIB/table Commit takes the
//     writer's own lock and publishes, so nesting it under another lock
//     orders locks by accident;
//   - blocking calls: package net / net/http I/O, time.Sleep,
//     sync.WaitGroup.Wait, os/exec Run/Wait.
//
// The tracking is a source-order scan per function, the same
// approximation go vet's lostcancel-style checks use: a lock acquired on
// any path is considered held until the matching Unlock in source order;
// a deferred Unlock holds to the end of the function. Goroutine bodies
// and function literals are scanned as their own scopes (they do not
// inherit the creator's locks, and a literal may run after Unlock).

// LocksafeConfig parameterizes the locksafe analyzer.
type LocksafeConfig struct {
	// CommitMethods are method names that publish a staged generation.
	CommitMethods []string
	// BlockingPkgs are import paths whose calls count as blocking I/O.
	BlockingPkgs []string
}

// DefaultLocksafeConfig covers the repository's transaction APIs.
func DefaultLocksafeConfig() LocksafeConfig {
	return LocksafeConfig{
		CommitMethods: []string{"Commit"},
		BlockingPkgs:  []string{"net", "net/http", "os/exec"},
	}
}

// Locksafe returns the lock-scope analyzer.
func Locksafe(cfg LocksafeConfig) *Analyzer {
	a := &Analyzer{
		Name: "locksafe",
		Doc:  "no mutex held across a channel send, a Commit, or a blocking call",
	}
	a.Run = func(pass *Pass) { runLocksafe(pass, cfg) }
	return a
}

type lockScanner struct {
	pass *Pass
	cfg  LocksafeConfig
	info *types.Info
	// held maps the canonical receiver expression ("t.mu") to the
	// position where the lock was taken.
	held map[string]token.Pos
	// nonblockingSends marks sends that sit in a select arm with a
	// default clause.
	nonblockingSends map[*ast.SendStmt]bool
}

func runLocksafe(pass *Pass, cfg LocksafeConfig) {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanLockScope(pass, cfg, fd.Body)
		}
	}
}

// scanLockScope analyzes one function scope (a declared body or a
// function literal) with a fresh held-set, queueing inner literals as
// their own scopes.
func scanLockScope(pass *Pass, cfg LocksafeConfig, body *ast.BlockStmt) {
	s := &lockScanner{
		pass:             pass,
		cfg:              cfg,
		info:             pass.Pkg.TypesInfo,
		held:             map[string]token.Pos{},
		nonblockingSends: map[*ast.SendStmt]bool{},
	}
	var inner []*ast.BlockStmt
	s.scan(body, &inner)
	for _, b := range inner {
		scanLockScope(pass, cfg, b)
	}
}

// heldNames returns the held lock expressions, oldest position first.
func (s *lockScanner) heldNames() []string {
	names := make([]string, 0, len(s.held))
	for n := range s.held {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return s.held[names[i]] < s.held[names[j]] })
	return names
}

func (s *lockScanner) reportHeld(pos token.Pos, what string) {
	if len(s.held) == 0 {
		return
	}
	s.pass.Reportf(pos, "%s while holding %s: release the lock first (locks must not outlive their critical section into blocking or publishing calls)",
		what, s.heldNames()[0])
}

// scan walks n in source order, updating lock state and collecting the
// bodies of function literals and go statements for independent scans.
func (s *lockScanner) scan(n ast.Node, inner *[]*ast.BlockStmt) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			*inner = append(*inner, v.Body)
			return false // runs later, under its own lock state
		case *ast.GoStmt:
			// The goroutine does not hold the creator's locks; its calls
			// are scanned as a fresh scope.
			if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
				*inner = append(*inner, fl.Body)
			}
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to function end (that
			// is its point); any other deferred call runs after the body,
			// so it is not "under" the locks held here.
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range v.Body.List {
					cc, ok := c.(*ast.CommClause)
					if !ok {
						continue
					}
					if send, ok := cc.Comm.(*ast.SendStmt); ok {
						s.nonblockingSends[send] = true
					}
				}
			}
			return true
		case *ast.SendStmt:
			if !s.nonblockingSends[v] {
				s.reportHeld(v.Pos(), "channel send")
			}
			return true
		case *ast.CallExpr:
			s.call(v)
			return true
		}
		return true
	})
}

func (s *lockScanner) call(call *ast.CallExpr) {
	fn := calleeFunc(s.info, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if lockRecvName(fn) != "" {
		recv := ""
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = exprString(sel.X)
		}
		switch name {
		case "Lock", "RLock":
			s.held[recv] = call.Pos()
		case "Unlock", "RUnlock":
			delete(s.held, recv)
		}
		return
	}
	for _, commit := range s.cfg.CommitMethods {
		if name == commit && isMethod(fn) {
			s.reportHeld(call.Pos(), "call to "+exprString(call.Fun))
			return
		}
	}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		for _, bp := range s.cfg.BlockingPkgs {
			if path == bp {
				s.reportHeld(call.Pos(), "blocking call to "+exprString(call.Fun))
				return
			}
		}
		if path == "time" && name == "Sleep" {
			s.reportHeld(call.Pos(), "time.Sleep")
			return
		}
		if path == "sync" && name == "Wait" && isMethod(fn) {
			s.reportHeld(call.Pos(), "call to "+exprString(call.Fun))
			return
		}
	}
}

func isMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
