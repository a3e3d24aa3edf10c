// Command mifo-lint runs the mifolint analyzer suite (internal/lint): the
// static enforcement of the repository's concurrency and hot-path
// contracts — generation immutability of the versioned FIB,
// the //mifo:hotpath allocation/lock budget, obs metric naming,
// lock-scope hygiene, the builder-publish freeze of arena memory
// (arenafreeze), and goroutine lifecycle ownership (lifecycle) — plus
// native ports of the non-default vet passes shadow, unusedwrite,
// nilness, and the dropped-error sweep.
//
// Two modes:
//
//	mifo-lint [-json|-github] [packages...]
//
// Standalone: loads the named packages (default ./...) with go/types
// against build-cache export data and analyzes them in one run, which
// enables the whole-tree checks (duplicate metric registration, the
// transitive hot-path budget, cross-package lifecycle and freeze facts).
// Exits 1 when findings remain. -json emits the findings as a stable
// {file,line,col,analyzer,message} array (the CI artifact); -github
// renders them as GitHub Actions ::error annotations.
//
//	go vet -vettool=$(which mifo-lint) ./...
//
// Vet tool: speaks cmd/go's unitchecker protocol (-V=full versioning and
// one *.cfg invocation per package), so the suite plugs into `go vet`
// exactly like an x/tools multichecker binary. Per-unit invocation means
// the whole-tree checks see one package at a time in this mode; `make
// lint` uses the standalone mode for full coverage.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

// finding is the stable JSON shape of one diagnostic, consumed by the CI
// lint step (and anything else that wants machine-readable findings).
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	// cmd/go probes vet tools with `tool -V=full` before every run; the
	// reply has to carry a stable build identifier because it keys vet's
	// result cache.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		printVersion()
		return
	}
	// cmd/go also probes `tool -flags` to learn which vet flags the tool
	// accepts (JSON array). mifolint takes none in unit mode.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Unit mode: cmd/go invokes `tool [flags] <file>.cfg` per package.
	if len(os.Args) >= 2 && strings.HasSuffix(os.Args[len(os.Args)-1], ".cfg") {
		os.Exit(unitMode(os.Args[len(os.Args)-1]))
	}

	jsonOut := flag.Bool("json", false, "emit findings as JSON objects {file,line,col,analyzer,message}")
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	dir := flag.String("C", ".", "directory to run in (module root)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mifo-lint [-json] [-github] [-C dir] [packages...]\n\nAnalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	start := time.Now()
	pkgs, err := lint.Load(*dir, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.Suite())

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			File:     relPath(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *github:
		for _, f := range findings {
			fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
				f.File, f.Line, f.Col, f.Analyzer, annotationEscape(f.Message))
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	fmt.Fprintf(os.Stderr, "mifo-lint: %d package(s), %d finding(s) in %s\n",
		len(pkgs), len(diags), time.Since(start).Round(time.Millisecond))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relPath shortens an absolute path to the current directory, keeping
// output clickable but compact (and stable for the JSON artifact).
func relPath(file string) string {
	wd, err := os.Getwd()
	if err != nil {
		return file
	}
	if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// annotationEscape applies the GitHub Actions workflow-command escaping
// to an annotation message.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// printVersion answers cmd/go's -V=full probe in the format its toolID
// parser expects: "<name> version <...>" with a buildID derived from the
// binary's own contents, so editing the linter invalidates vet's cache.
func printVersion() {
	name := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f) //mifolint:ignore droppederr a short read only weakens the cache key, never correctness
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mifo-lint: reading own binary:", err)
			}
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", name, h.Sum(nil))
}
