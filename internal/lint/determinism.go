package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// determinismScope names the packages whose output must be a pure function
// of (configuration, seed): the simulation stack end to end, plus the
// canonical-key and wire-encoding code in the service layer (nil file list
// = every file of the package).
var determinismScope = map[string][]string{
	"internal/network":     nil,
	"internal/router":      nil,
	"internal/experiments": nil,
	"internal/sim":         nil,
	"internal/traffic":     nil,
	"internal/explore":     nil,
	"internal/service":     {"api.go", "canonical.go", "explore.go", "kinds.go"},
}

// wallClockFuncs are the time package's clock reads. time.Duration values
// and constants stay legal — only sampling the wall clock is flagged.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism flags the constructs that make simulation output depend on
// anything beyond (configuration, seed): wall-clock reads, the globally
// seeded math/rand, map iteration (Go randomizes the order), and goroutine
// spawns outside the blessed worker-pool files (//quarc:poolfile).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand, map iteration and stray goroutines in simulation and canonical-key code",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	var scoped []string
	ok := false
	for suffix, fs := range determinismScope {
		if p.PkgPath == suffix || strings.HasSuffix(p.PkgPath, "/"+suffix) {
			scoped, ok = fs, true
			break
		}
	}
	if !ok {
		return
	}
	for _, f := range p.Files {
		base := filepath.Base(p.Fset.Position(f.Pos()).Filename)
		if scoped != nil && !contains(scoped, base) {
			continue
		}
		poolFile := hasDirective("poolfile", f.Comments...)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				switch importString(n) {
				case "math/rand", "math/rand/v2":
					p.Reportf(n.Pos(), "import of %s draws from a global, run-order-dependent source; use internal/rng's seeded streams", importString(n))
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if pn, ok := pkgNameOf(p.Info, sel.X); ok && pn.Imported().Path() == "time" && wallClockFuncs[sel.Sel.Name] {
						p.Reportf(n.Pos(), "time.%s reads the wall clock; simulation output must be a pure function of (config, seed)", sel.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				if t := p.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						p.Reportf(n.Pos(), "map iteration order is randomized; range over sorted keys, or annotate `//quarc:allow determinism: <why order cannot matter>`")
					}
				}
			case *ast.GoStmt:
				if !poolFile {
					p.Reportf(n.Pos(), "goroutine spawned outside a blessed pool file; concurrency in simulation code lives in //quarc:poolfile worker pools whose determinism a named test proves")
				}
			}
			return true
		})
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
