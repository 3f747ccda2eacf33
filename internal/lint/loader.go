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
)

// Package is one type-checked package ready for analysis. Only non-test
// sources are loaded: the invariants quarcvet enforces are production-code
// properties, and test files are free to use time, maps and goroutines.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	Incomplete bool
}

// goList shells out to the go command in dir and decodes the JSON stream.
func goList(dir string, extra []string, patterns []string) ([]listedPkg, error) {
	args := append([]string{"list"}, extra...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %v: %v\n%s", args, err, stderr.String())
	}
	var out []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Load enumerates the packages matching the patterns (relative to dir),
// parses their non-test sources and type-checks them. Imports — stdlib and
// intra-module alike — are satisfied from compiled gc export data produced
// by `go list -export`, so loading is fast and needs no network.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	deps, err := goList(dir, []string{"-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,Incomplete"}, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	targets, err := goList(dir, []string{"-json=ImportPath,Dir,GoFiles"}, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := check(fset, imp, t.ImportPath, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

func importString(spec *ast.ImportSpec) string {
	s := spec.Path.Value
	return s[1 : len(s)-1]
}

// exportImporter satisfies go/types imports from gc export data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// check parses the named files and type-checks them as package pkgPath.
func check(fset *token.FileSet, imp types.Importer, pkgPath string, filenames []string) (*Package, error) {
	var parsed []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   parsed,
		Types:   tpkg,
		Info:    info,
	}, nil
}
