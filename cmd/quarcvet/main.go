// quarcvet runs the repo-specific static-analysis suite (internal/lint)
// over the given packages: determinism and hot-path discipline, plus the
// `//quarc:` vocabulary itself (unjustified allows, unknown verbs). Exit
// status 0 means no unsuppressed diagnostics; 1 means findings were printed;
// 2 means the load itself failed.
//
// Usage:
//
//	go run ./cmd/quarcvet ./...
package main

import (
	"flag"
	"fmt"
	"os"

	"quarc/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: quarcvet [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "quarcvet:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quarcvet:", err)
		os.Exit(2)
	}
	found := 0
	for _, pkg := range pkgs {
		for _, d := range lint.RunAnalyzers(pkg, lint.All()) {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "quarcvet: %d finding(s)\n", found)
		os.Exit(1)
	}
}
