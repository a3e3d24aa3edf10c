// Command mifo-lint runs the mifolint analyzer suite (internal/lint): the
// //mifo:hotpath allocation/lock budget, dropped errors, shadowed
// variables, goroutine lifecycle ownership, lock-scope hygiene and obs
// metric naming (DESIGN.md "Static invariants" says why each stays).
//
//	mifo-lint [-json|-github] [-C dir] [packages...]
//
// It loads the named packages (default ./...) with go/types against
// build-cache export data and analyzes them in one run, which the
// whole-tree checks need (duplicate metric registration, the transitive
// hot-path budget, cross-package lifecycle facts). Exits 1 when findings
// remain. -json emits the findings as a stable
// {file,line,col,analyzer,message} array (the CI artifact); -github
// renders them as GitHub Actions ::error annotations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
