package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// CoordSection turns the parallel stepper's race discipline into a checked
// rule. Inside parallel.go — the intra-cycle worker pool — all mutation of
// fabric-shared state must happen single-threaded: either inside a worker-0
// coordinator section (`if w == 0 { ... }` on the worker-id parameter) or
// in a function annotated `//quarc:coordinator` (which must itself only be
// called from coordinator context within parallel.go).
//
// Checked constructs, in any parallel.go function not annotated
// coordinator:
//
//   - assignments / ++ / -- through a pointer field chain (`p.halt = true`,
//     `f.cycle++`): shared by every worker, so they need the guard. Writes
//     through an index expression (`f.moves[node] = ...`) are exempt — the
//     pool shards node-indexed state so each worker owns its range;
//   - per-worker records: a field of an indexed element (`p.scratch[i].n++`)
//     is the worker's own only when the index is the worker-id parameter,
//     as is a local alias of one (`sc := &p.scratch[w]`; `sc.n++`). Indexed
//     by anything else it is another worker's scratch, and flagged;
//   - calls to //quarc:coordinator functions (deliver, fold, latch, ...),
//     wherever in the package they are declared.
var CoordSection = &Analyzer{
	Name: "coordsection",
	Doc:  "in parallel.go, fabric-shared state is only written inside worker-0 coordinator sections or //quarc:coordinator functions",
	Run:  runCoordSection,
}

func runCoordSection(p *Pass) {
	coordinators := map[types.Object]bool{}
	hasParallel := false
	for _, f := range p.Files {
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) == "parallel.go" {
			hasParallel = true
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective("coordinator", fd.Doc) {
				if obj := p.Info.Defs[fd.Name]; obj != nil {
					coordinators[obj] = true
				}
			}
		}
	}
	if !hasParallel {
		return
	}
	for _, f := range p.Files {
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) != "parallel.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasDirective("coordinator", fd.Doc) {
				continue
			}
			checkWorkerFunc(p, fd, coordinators)
		}
	}
}

func checkWorkerFunc(p *Pass, fd *ast.FuncDecl, coordinators map[types.Object]bool) {
	params := map[types.Object]bool{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := p.Info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	isParam := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && params[p.Info.Uses[id]]
	}
	// own collects the locals that alias the worker's own record
	// (`sc := &p.scratch[w]`, w a parameter) as the walk reaches them.
	own := map[types.Object]bool{}
	var walk func(n ast.Node, guarded bool)
	inspect := func(n ast.Node, guarded bool) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init, guarded)
			}
			walk(n.Cond, guarded)
			walk(n.Body, guarded || isWorkerZeroCond(n.Cond, isParam))
			if n.Else != nil {
				walk(n.Else, guarded)
			}
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) && isOwnRecord(n.Rhs[i], isParam) {
					own[p.Info.Defs[lhs.(*ast.Ident)]] = true
				}
				if !guarded {
					reportSharedWrite(p, lhs, isParam, own)
				}
			}
		case *ast.IncDecStmt:
			if !guarded {
				reportSharedWrite(p, n.X, isParam, own)
			}
		case *ast.CallExpr:
			if guarded {
				break
			}
			var callee types.Object
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				callee = p.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = p.Info.Uses[fun.Sel]
			}
			if coordinators[callee] {
				p.Reportf(n.Pos(), "call to coordinator function %s outside a worker-0 section: it mutates fabric-shared state and must run single-threaded", types.ExprString(n.Fun))
			}
		case *ast.FuncLit:
			// A nested goroutine body gets no credit from an enclosing
			// guard: the closure may run on any worker.
			walk(n.Body, false)
			return false
		}
		return true
	}
	walk = func(n ast.Node, guarded bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			return inspect(m, guarded)
		})
	}
	walk(fd.Body, false)
}

// isOwnRecord matches `&X[w]` with w a parameter: the worker's own record.
func isOwnRecord(e ast.Expr, isParam func(ast.Expr) bool) bool {
	addr, ok := e.(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return false
	}
	ix, ok := addr.X.(*ast.IndexExpr)
	return ok && isParam(ix.Index)
}

// isWorkerZeroCond matches `w == 0` / `0 == w` where w is a parameter of
// the enclosing function — the pool's worker-id convention.
func isWorkerZeroCond(cond ast.Expr, isParam func(ast.Expr) bool) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return false
	}
	isZero := func(e ast.Expr) bool {
		bl, ok := e.(*ast.BasicLit)
		return ok && bl.Value == "0"
	}
	return (isZero(be.X) && isParam(be.Y)) || (isZero(be.Y) && isParam(be.X))
}

// reportSharedWrite flags a write whose target is shared between workers.
// Walking the target from the written field down to its root: a field of an
// indexed element is a per-worker record, legal only under the worker-id
// index; any other index expression exempts the write (node-indexed state is
// sharded per worker); a pure pointer field chain (x.a.b where x has pointer
// type) is shared unless x aliases the worker's own record.
func reportSharedWrite(p *Pass, lhs ast.Expr, isParam func(ast.Expr) bool, own map[types.Object]bool) {
	indexed, field := false, false
	root := lhs
	for {
		switch e := root.(type) {
		case *ast.SelectorExpr:
			root, field = e.X, true
			continue
		case *ast.IndexExpr:
			if field && !isParam(e.Index) {
				p.Reportf(lhs.Pos(), "write to another worker's scratch %s: a per-worker record may only be written under the worker's own index", types.ExprString(lhs))
				return
			}
			root, indexed, field = e.X, true, false
			continue
		}
		break
	}
	id, ok := root.(*ast.Ident)
	if !ok || indexed || lhs == root || own[p.Info.Uses[id]] {
		return
	}
	if t := p.Info.TypeOf(id); t != nil {
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			p.Reportf(lhs.Pos(), "write to shared state %s outside a worker-0 section; move it into `if w == 0 { ... }` or a //quarc:coordinator function", types.ExprString(lhs))
		}
	}
}
