package lint

// The analysistest-style harness: each analyzer has a corpus under
// testdata/src/<name>/... whose packages carry `// want `+"`regex`"+`
// comments on the lines where a diagnostic must appear. checkCorpus loads
// the corpus from source (standard-library imports resolve against the
// build cache's export data, corpus-local imports against the corpus
// itself), runs the given analyzers through Run — so ignore directives are
// honored exactly as in production — and then requires a 1:1 match
// between diagnostics and want comments.

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const corpusRoot = "testdata/src"

// stdExportsCache memoizes `go list -export` across corpus loads: the
// corpora share a handful of stdlib imports, and export-data paths are
// stable for the life of the test process.
var stdExportsCache sync.Map // sorted joined paths -> map[string]string

// stdExports resolves export-data files for the given import paths (and
// their dependencies) via `go list -export`, the same mechanism Load uses.
func stdExports(t *testing.T, paths []string) map[string]string {
	t.Helper()
	exports := map[string]string{}
	if len(paths) == 0 {
		return exports
	}
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	cacheKey := strings.Join(sorted, "\x00")
	if cached, ok := stdExportsCache.Load(cacheKey); ok {
		return cached.(map[string]string)
	}
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export", "--"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -export %v: %v\n%s", paths, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	stdExportsCache.Store(cacheKey, exports)
	return exports
}

// corpusImporter resolves corpus-local packages from the already-checked
// set and everything else from export data.
type corpusImporter struct {
	local map[string]*types.Package
	gc    types.Importer
}

func (ci *corpusImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := ci.local[path]; p != nil {
		return p, nil
	}
	return ci.gc.Import(path)
}

// loadCorpus parses and type-checks every package under
// testdata/src/<root>, assigning each directory its src-relative slash
// path as import path (so "testdata/src/locksafe/ls" is the package
// "locksafe/ls").
func loadCorpus(t *testing.T, root string) []*Package {
	t.Helper()
	type rawPkg struct {
		path    string
		files   []*ast.File
		imports map[string]bool
	}
	fset := token.NewFileSet()
	var raws []*rawPkg
	walkErr := filepath.WalkDir(filepath.Join(corpusRoot, root), func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(corpusRoot, p)
		if err != nil {
			return err
		}
		rp := &rawPkg{path: filepath.ToSlash(rel), imports: map[string]bool{}}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, perr := parser.ParseFile(fset, filepath.Join(p, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if perr != nil {
				return perr
			}
			rp.files = append(rp.files, f)
			for _, imp := range f.Imports {
				path, uerr := strconv.Unquote(imp.Path.Value)
				if uerr != nil {
					return uerr
				}
				rp.imports[path] = true
			}
		}
		if len(rp.files) > 0 {
			raws = append(raws, rp)
		}
		return nil
	})
	if walkErr != nil {
		t.Fatalf("loading corpus %s: %v", root, walkErr)
	}
	if len(raws) == 0 {
		t.Fatalf("corpus %s is empty", root)
	}

	local := map[string]*rawPkg{}
	for _, rp := range raws {
		local[rp.path] = rp
	}
	extSet := map[string]bool{}
	for _, rp := range raws {
		for imp := range rp.imports {
			if local[imp] == nil && imp != "unsafe" {
				extSet[imp] = true
			}
		}
	}
	ext := make([]string, 0, len(extSet))
	for p := range extSet {
		ext = append(ext, p)
	}
	exports := stdExports(t, ext)
	ci := &corpusImporter{
		local: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}

	// Type-check in dependency order over the corpus-local import graph.
	var pkgs []*Package
	infoOf := map[string]*types.Info{}
	for len(ci.local) < len(raws) {
		progress := false
		for _, rp := range raws {
			if ci.local[rp.path] != nil {
				continue
			}
			ready := true
			for dep := range rp.imports {
				if local[dep] != nil && ci.local[dep] == nil {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			info := NewInfo()
			conf := types.Config{Importer: ci}
			tp, err := conf.Check(rp.path, fset, rp.files, info)
			if err != nil {
				t.Fatalf("type-checking corpus package %s: %v", rp.path, err)
			}
			ci.local[rp.path] = tp
			infoOf[rp.path] = info
			progress = true
		}
		if !progress {
			t.Fatalf("import cycle among corpus packages of %s", root)
		}
	}
	for _, rp := range raws {
		pkgs = append(pkgs, &Package{
			PkgPath:   rp.path,
			Name:      ci.local[rp.path].Name(),
			Fset:      fset,
			Files:     rp.files,
			Types:     ci.local[rp.path],
			TypesInfo: infoOf[rp.path],
		})
	}
	return pkgs
}

// wantRE extracts the backquoted regexes of a `// want` comment.
var wantRE = regexp.MustCompile("`([^`]*)`")

type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkCorpus runs analyzers over the corpus and enforces an exact match
// between the diagnostics and the corpus' want comments.
func checkCorpus(t *testing.T, root string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs := loadCorpus(t, root)
	diags, _ := Run(pkgs, analyzers)

	var wants []*wantExpect
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					i := strings.Index(c.Text, "// want ")
					if i < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, m := range wantRE.FindAllStringSubmatch(c.Text[i:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						wants = append(wants, &wantExpect{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("corpus %s declares no want comments; an all-quiet corpus proves nothing", root)
	}

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}
