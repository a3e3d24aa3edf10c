// Command mifo-lint runs the mifolint analyzer suite (internal/lint):
// lock-scope hygiene, shadowed variables and dropped errors (DESIGN.md
// "Static invariants" says why each stays; goroutine ownership is held by
// internal/leakcheck in the tests instead).
//
//	mifo-lint [-github] [-C dir] [packages...]
//
// It loads the named packages (default ./...) with go/types against
// build-cache export data and analyzes them one package at a time. Exits 1
// when findings remain. -github renders them as GitHub Actions ::error
// annotations.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	github := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	dir := flag.String("C", ".", "directory to run in (module root)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mifo-lint [-github] [-C dir] [packages...]\n\nAnalyzers:\n")
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
	diags, _ := lint.Run(pkgs, lint.Suite())
	for _, d := range diags {
		file := relPath(d.Pos.Filename)
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
				file, d.Pos.Line, d.Pos.Column, d.Analyzer, annotationEscape(d.Message))
		} else {
			fmt.Printf("%s:%d:%d: %s (%s)\n", file, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	fmt.Fprintf(os.Stderr, "mifo-lint: %d package(s), %d finding(s) in %s\n",
		len(pkgs), len(diags), time.Since(start).Round(time.Millisecond))
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relPath shortens an absolute path to the current directory, keeping
// output clickable but compact.
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
