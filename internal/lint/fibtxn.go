package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// fibtxn enforces generation immutability across the RIB->FIB pipeline:
// once a FIB generation is published behind the atomic pointer, nothing
// may write to it. The paper's kernel fib_table split (Section IV) only
// works because the forwarding engine can walk the table without locks —
// which in turn is only safe if every mutation goes through the
// Begin/Set/Commit transaction, and the published pointer is stored only
// at construction and Commit.
//
// Concretely the analyzer flags, per protected struct type:
//   - assignments (including op-assign and ++/--) to a field of the type,
//   - writes through a field of the type (map index stores, element
//     stores via a slice/array field),
// anywhere; and, per protected publish point, calls to <field>.Store
// outside its allowlist.
// Composite literals are always allowed: building a generation before it
// is published is the whole point of the scheme.

// ProtectedStruct declares one struct type no function may write the
// fields of: values are built as composite literals and never touched
// again.
type ProtectedStruct struct {
	// PkgSuffix and TypeName identify the struct (path-suffix match, so
	// testdata corpora can exercise the analyzer with local types).
	PkgSuffix string
	TypeName  string
}

// ProtectedPublish declares one atomic publish point: calls to
// <TypeName>.<FieldName>.Store are confined to AllowedWriters ("Func" or
// "Recv.Method").
type ProtectedPublish struct {
	PkgSuffix      string
	TypeName       string
	FieldName      string
	AllowedWriters []string
}

// FibtxnConfig parameterizes the fibtxn analyzer.
type FibtxnConfig struct {
	Structs   []ProtectedStruct
	Publishes []ProtectedPublish
}

// DefaultFibtxnConfig protects the repository's versioned forwarding
// structures.
func DefaultFibtxnConfig() FibtxnConfig {
	return FibtxnConfig{
		Structs: []ProtectedStruct{
			// A published FIB generation is immutable, full stop: it is
			// built as a composite literal inside Begin/Commit and never
			// written again.
			{PkgSuffix: "internal/dataplane", TypeName: "fibGen"},
		},
		Publishes: []ProtectedPublish{
			{PkgSuffix: "internal/dataplane", TypeName: "FIB", FieldName: "cur",
				AllowedWriters: []string{"NewFIB", "FIBTx.Commit"}},
		},
	}
}

// Fibtxn returns the generation-immutability analyzer.
func Fibtxn(cfg FibtxnConfig) *Analyzer {
	a := &Analyzer{
		Name: "fibtxn",
		Doc:  "writes to published FIB generations must go through the transaction API",
	}
	a.Run = func(pass *Pass) { runFibtxn(pass, cfg) }
	return a
}

func runFibtxn(pass *Pass, cfg FibtxnConfig) {
	info := pass.Pkg.TypesInfo
	// protectedBase resolves the struct whose field an lvalue ultimately
	// writes through: x.f -> type of x; x.entries[k] -> type of x;
	// (*p).f -> type of p.
	findStruct := func(t types.Type) *ProtectedStruct {
		for i := range cfg.Structs {
			if typeIs(t, cfg.Structs[i].PkgSuffix, cfg.Structs[i].TypeName) {
				return &cfg.Structs[i]
			}
		}
		return nil
	}
	// lvalueOwner walks an assignable expression down to a selector on a
	// protected struct, if any. It sees through parens, derefs, and one
	// level of index (map/slice/array stored in a protected field).
	var lvalueOwner func(e ast.Expr) (*ProtectedStruct, *ast.SelectorExpr)
	lvalueOwner = func(e ast.Expr) (*ProtectedStruct, *ast.SelectorExpr) {
		switch v := e.(type) {
		case *ast.ParenExpr:
			return lvalueOwner(v.X)
		case *ast.StarExpr:
			return lvalueOwner(v.X)
		case *ast.IndexExpr:
			// Writing an element of a container held in a protected field
			// mutates the published structure just the same.
			return lvalueOwner(v.X)
		case *ast.SelectorExpr:
			if tv, ok := info.Types[v.X]; ok {
				if ps := findStruct(tv.Type); ps != nil {
					// Only field selections count; method values cannot be
					// assigned to.
					if sel, ok := info.Selections[v]; ok && sel.Kind() == types.FieldVal {
						return ps, v
					}
				}
			}
			return nil, nil
		default:
			return nil, nil
		}
	}

	checkWrite := func(file *ast.File, lhs ast.Expr) {
		ps, sel := lvalueOwner(lhs)
		if ps == nil {
			return
		}
		where := "package scope"
		if fd := enclosingFunc(file, lhs.Pos()); fd != nil {
			where = funcKey(fd)
		}
		pass.Reportf(lhs.Pos(), "write to %s.%s outside the transaction API (in %s): published generations are immutable",
			ps.TypeName, sel.Sel.Name, where)
	}

	findPublish := func(t types.Type, field string) *ProtectedPublish {
		for i := range cfg.Publishes {
			p := &cfg.Publishes[i]
			if p.FieldName == field && typeIs(t, p.PkgSuffix, p.TypeName) {
				return p
			}
		}
		return nil
	}

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkWrite(file, lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(file, st.X)
			case *ast.UnaryExpr:
				// &gen.field escaping would allow writes out of view of this
				// analyzer; treat taking the address of a protected field as
				// a violation too.
				if st.Op.String() != "&" {
					return true
				}
				if ps, sel := lvalueOwner(st.X); ps != nil {
					pass.Reportf(st.Pos(), "taking the address of %s.%s outside the transaction API: published generations are immutable",
						ps.TypeName, sel.Sel.Name)
				}
			case *ast.CallExpr:
				// <recv>.<field>.Store(...) — the publish point.
				sel, ok := st.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Store" {
					return true
				}
				inner, ok := sel.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				tv, ok := info.Types[inner.X]
				if !ok {
					return true
				}
				pp := findPublish(tv.Type, inner.Sel.Name)
				if pp == nil {
					return true
				}
				fd := enclosingFunc(file, st.Pos())
				if fd != nil && slices.Contains(pp.AllowedWriters, funcKey(fd)) {
					return true
				}
				pass.Reportf(st.Pos(), "%s.%s.Store outside %v: generations are published only at construction and Commit",
					pp.TypeName, pp.FieldName, pp.AllowedWriters)
			}
			return true
		})
	}
}
