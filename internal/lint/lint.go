// Package lint is quarcvet: a repo-specific static-analysis suite for the
// invariants no runtime test can state — simulation code that is a pure
// function of (configuration, seed) on every path, including the ones the
// tests never run, and a fabric hot path free of copies and defers that cost
// time without allocating. Properties the running program shows directly are
// tested instead: a wire field's cache-key fate by TestWireFieldsDecideKeyFate
// and the /metrics names by TestMetricsExposition (both internal/service),
// the step pool's shared writes by CI's -race run of the step-pool invariance
// suites.
//
// The suite is built directly on go/ast + go/types (the module is
// stdlib-only by policy, so golang.org/x/tools/go/analysis is off the
// table), but mirrors its shape: small single-purpose Analyzers over a
// typed Pass, unit-tested against `// want` fixtures under testdata, and a
// cmd/quarcvet multichecker that runs the whole suite over `./...`.
//
// # Annotation vocabulary
//
// Analyzers are directed by `//quarc:` comments in the source they check.
// Any other verb is itself a finding, so a typo cannot silently exempt code:
//
//	//quarc:hotpath
//	    (func doc) The function is on the fabric hot path and must stay
//	    allocation-free in steady state: no fmt calls, closures,
//	    escaping composite literals, interface conversions, defers, or
//	    appends that grow a slice other than the one appended to.
//
//	//quarc:poolfile <reason>
//	    (file comment) The file is a blessed worker-pool implementation;
//	    `go` statements in it are exempt from the determinism analyzer.
//
//	//quarc:allow <analyzer>: <reason>
//	    (same line as the diagnostic, or the line directly above)
//	    Suppress one analyzer's diagnostics on that line. The reason is
//	    mandatory; an allow without one is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one check of the suite.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	PkgPath  string
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Suppression (`//quarc:allow`) is
// applied by the driver, not here.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //quarc:<verb> <arg> comment.
type directive struct {
	verb string // "hotpath", "poolfile" or "allow"
	arg  string // remainder after the verb, trimmed
	pos  token.Pos
}

// parseDirectives extracts //quarc: directives from a comment group.
func parseDirectives(groups ...*ast.CommentGroup) []directive {
	var out []directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text, ok := strings.CutPrefix(c.Text, "//quarc:")
			if !ok {
				continue
			}
			verb, arg, _ := strings.Cut(text, " ")
			out = append(out, directive{verb: verb, arg: strings.TrimSpace(arg), pos: c.Pos()})
		}
	}
	return out
}

// hasDirective reports whether any of the comment groups carries the verb.
func hasDirective(verb string, groups ...*ast.CommentGroup) bool {
	for _, d := range parseDirectives(groups...) {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// allowSite is one //quarc:allow comment.
type allowSite struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// allowsByLine maps file -> line -> allows in force on that line. An allow
// comment covers its own line and the line below it.
func allowsByLine(fset *token.FileSet, files []*ast.File) map[string]map[int][]allowSite {
	out := map[string]map[int][]allowSite{}
	for _, f := range files {
		for _, d := range parseDirectives(f.Comments...) {
			if d.verb != "allow" {
				continue
			}
			name, reason, _ := strings.Cut(d.arg, ":")
			site := allowSite{
				analyzer: strings.TrimSpace(name),
				reason:   strings.TrimSpace(reason),
				pos:      d.pos,
			}
			p := fset.Position(d.pos)
			m := out[p.Filename]
			if m == nil {
				m = map[int][]allowSite{}
				out[p.Filename] = m
			}
			m[p.Line] = append(m[p.Line], site)
			m[p.Line+1] = append(m[p.Line+1], site)
		}
	}
	return out
}

// RunAnalyzers runs the analyzers over one loaded package and returns the
// surviving diagnostics: `//quarc:allow <analyzer>: <reason>` comments on
// the diagnostic's line (or the line above) suppress it, and every allow
// missing its justification and every unknown `//quarc:` verb is reported as
// a diagnostic of its own.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			PkgPath:  pkg.PkgPath,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &raw,
		}
		a.Run(pass)
	}

	allows := allowsByLine(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, d := range raw {
		suppressed := false
		for _, site := range allows[d.Pos.Filename][d.Pos.Line] {
			if site.analyzer == d.Analyzer && site.reason != "" {
				suppressed = true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	// Malformed allows are findings themselves: a suppression with no
	// justification defeats the point of the annotation vocabulary.
	seen := map[token.Pos]bool{}
	for _, m := range allows {
		for _, sites := range m {
			for _, site := range sites {
				if site.reason != "" || seen[site.pos] {
					continue
				}
				seen[site.pos] = true
				out = append(out, Diagnostic{
					Analyzer: "allow",
					Pos:      pkg.Fset.Position(site.pos),
					Message:  "//quarc:allow needs a justification: `//quarc:allow <analyzer>: <reason>`",
				})
			}
		}
	}
	// So are unknown verbs: a typo such as //quarc:hotpth would otherwise
	// silently exempt the function it was meant to opt in.
	for _, f := range pkg.Files {
		for _, d := range parseDirectives(f.Comments...) {
			if d.verb != "hotpath" && d.verb != "poolfile" && d.verb != "allow" {
				out = append(out, Diagnostic{
					Analyzer: "directive",
					Pos:      pkg.Fset.Position(d.pos),
					Message:  fmt.Sprintf("unknown directive //quarc:%s: the vocabulary is hotpath, poolfile and allow", d.verb),
				})
			}
		}
	}
	sortDiagnostics(out)
	return out
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// pkgNameOf resolves a selector's base identifier to the imported package it
// names, if any.
func pkgNameOf(info *types.Info, x ast.Expr) (*types.PkgName, bool) {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}
