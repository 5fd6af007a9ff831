// Command minlint is the repo's static-contract checker: a
// multichecker over the analyzers in internal/lint (detrand,
// impboundary, hotalloc, errcodes, metriclint).
//
//	minlint [-detrand] [-impboundary] [...] [packages]
//
// loads the packages (default ./...) through `go list -export`, runs
// the selected analyzers (none selected = all), prints findings to
// stdout, and exits 1 if there were any.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"minequiv/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("minlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	selected := map[string]*bool{}
	for _, a := range lint.Analyzers {
		selected[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: minlint [analyzer flags] [package pattern ...]\n\n")
		fmt.Fprintf(stderr, "With no analyzer flags, every analyzer runs.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var analyzers []*lint.Analyzer
	for _, a := range lint.Analyzers {
		if *selected[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	if len(analyzers) == 0 {
		analyzers = lint.Analyzers
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.LoadPackages("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "minlint:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// firstLine trims an analyzer Doc to its first line for flag usage
// text.
func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		doc = doc[:i]
	}
	return strings.TrimSpace(doc)
}
