package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader turns `go list -export -deps -json` output into type-checked
// Packages. Dependencies — including the module's own packages — are
// imported from the build cache's export data, so only the packages under
// analysis are parsed and checked from source. This is the same split the
// x/tools unitchecker uses, built here on the standard library alone so
// the linter runs hermetically (no network, no module downloads).
//
// Test files are not loaded: no analyzer reads them.

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns in dir (a directory inside the target module), then
// parses and type-checks every non-dependency match.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := checkPackage(t, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list -export -deps -json` and returns the non-dependency
// targets plus the export-data index of the whole closure.
func goList(dir string, patterns []string) ([]listPkg, map[string]string, error) {
	args := append([]string{"list", "-export", "-deps", "-json", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var targets []listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lint: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	return targets, exports, nil
}

// checkPackage parses and type-checks one listed package against export
// data for its dependencies.
func checkPackage(lp listPkg, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(e)
	}
	var typeErrs []string
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	info := NewInfo()
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s:\n  %s", lp.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Name:      tpkg.Name(),
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
