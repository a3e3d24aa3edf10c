package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// shadow is a native reimplementation of the non-default x/tools `shadow`
// vet pass (the dependency is intentionally not vendored).
// It reports an inner declaration of a name that shadows a function-local
// variable of identical type from an enclosing scope, when the outer
// variable is still used after the inner scope ends — the combination
// where an accidental `:=` silently splits one variable into two and the
// stale outer value escapes. Package-level names are excluded: shadowing
// a global with a local is idiomatic (err, ctx) and carries none of the
// split-variable risk this pass hunts.

// Shadow returns the variable-shadowing analyzer.
func Shadow() *Analyzer {
	return &Analyzer{
		Name: "shadow",
		Doc:  "inner declaration shadows an outer variable that is used again afterwards",
		Run:  runShadow,
	}
}

// usesOf indexes every use position of every object in the package.
func usesOf(pkg *Package) map[types.Object][]token.Pos {
	m := map[types.Object][]token.Pos{}
	for id, obj := range pkg.TypesInfo.Uses {
		m[obj] = append(m[obj], id.Pos())
	}
	return m
}

func runShadow(pass *Pass) {
	info := pass.Pkg.TypesInfo
	uses := usesOf(pass.Pkg)

	// A later *read* of the outer variable is what makes a shadow
	// dangerous. A bare reassignment (`x = ...` or a `:=` that redeclares
	// x alongside a new variable) is recorded in Uses too, but it
	// overwrites the stale value instead of observing it — the idiomatic
	// `if err := f(); err != nil` guard would otherwise drown the report
	// in noise. Collect those write-only positions to exclude them.
	writePos := map[token.Pos]bool{}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					writePos[id.Pos()] = true
				}
			}
			return true
		})
	}

	check := func(file *ast.File, id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		obj, ok := info.Defs[id].(*types.Var)
		if !ok || obj.Parent() == nil || obj.Parent().Parent() == nil {
			return
		}
		inner := obj.Parent()
		_, outerObj := inner.Parent().LookupParent(id.Name, id.Pos())
		outer, ok := outerObj.(*types.Var)
		if !ok || outer == obj || outer.IsField() {
			return
		}
		// Only function-local outers: shadowing globals is idiomatic.
		if outer.Parent() == nil || outer.Pkg() == nil || outer.Parent() == outer.Pkg().Scope() {
			return
		}
		if !types.Identical(obj.Type(), outer.Type()) {
			return
		}
		fd := enclosingFunc(file, id.Pos())
		if fd == nil {
			return
		}
		// The dangerous case: the outer variable lives on after the
		// shadowing scope dies, so a write meant for it was lost.
		for _, use := range uses[outer] {
			if use > inner.End() && use < fd.End() && !writePos[use] {
				pass.Reportf(id.Pos(), "declaration of %q shadows declaration at line %d; the outer variable is used again at line %d",
					id.Name, pass.Pkg.Fset.Position(outer.Pos()).Line, pass.Pkg.Fset.Position(use).Line)
				return
			}
		}
	}

	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if v.Tok == token.DEFINE {
					for _, lhs := range v.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							check(file, id)
						}
					}
				}
			case *ast.RangeStmt:
				if v.Tok == token.DEFINE {
					if id, ok := v.Key.(*ast.Ident); ok {
						check(file, id)
					}
					if id, ok := v.Value.(*ast.Ident); ok {
						check(file, id)
					}
				}
			case *ast.GenDecl:
				if v.Tok == token.VAR {
					for _, spec := range v.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, id := range vs.Names {
								check(file, id)
							}
						}
					}
				}
			}
			return true
		})
	}
}
