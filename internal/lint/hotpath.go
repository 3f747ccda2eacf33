package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath checks functions annotated `//quarc:hotpath` — the fabric's
// per-cycle Step/arbitrate/commit/feed chain, PacketQueue, Assembler and
// the tracker — for the constructs that break the 0 allocs/op steady-state
// contract (guarded at runtime by TestFabricStepSteadyStateAllocs and the
// CI benchmark gate; enforced here at review time):
//
//   - fmt calls (every verb formats through interfaces and allocates);
//   - closure literals (captured variables escape to the heap);
//   - &T{...}, slice and map composite literals (heap allocations);
//   - explicit interface conversions (boxing allocates);
//   - defer (scheduling overhead on a nanosecond-scale path);
//   - append that grows a slice other than the one being assigned back
//     (`x = append(x, ...)` reuses x's backing array in steady state;
//     `y = append(x, ...)` silently copies and grows without bound).
//
// It also keeps the flit datapath copy-free: a parameter, a result, or an
// assignment (`=`, `:=`, a range value) that copies a struct larger than
// maxHotCopy bytes is a finding. A flit is copied once per hop by design —
// the downstream push — and every further by-value hand-off is a memcpy per
// flit per hop that a pointer avoids.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//quarc:hotpath functions must avoid fmt, closures, escaping composite literals, interface conversions, defers, unbounded appends and by-value copies of large structs",
	Run:  runHotPath,
}

// maxHotCopy is the largest struct a hot-path function may pass, return or
// assign by value: one cache line, measured with the gc compiler's amd64
// layout whatever the host.
const maxHotCopy = 64

var hotSizes = types.SizesFor("gc", "amd64")

func runHotPath(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective("hotpath", fd.Doc) {
				continue
			}
			checkHotFunc(p, fd)
		}
	}
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	checkHotFields(p, fd.Type.Params, "parameter")
	checkHotFields(p, fd.Type.Results, "result")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n)
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "closure literal in hot path: captured variables escape to the heap")
			return false
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok {
				p.Reportf(cl.Pos(), "&composite literal in hot path escapes to the heap; reuse a scratch value instead")
				return false
			}
		case *ast.CompositeLit:
			if t := p.Info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					p.Reportf(n.Pos(), "slice/map composite literal allocates in hot path; hoist it or reuse a scratch buffer")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					checkHotAppend(p, rhs, n.Lhs[i])
				}
			}
			checkHotAssign(p, n)
		case *ast.RangeStmt:
			if n.Value != nil && !isBlank(n.Value) {
				reportHotCopy(p, n.Value.Pos(), p.Info.TypeOf(n.Value), "range value")
			}
		case *ast.DeferStmt:
			p.Reportf(n.Pos(), "defer in hot path adds per-call scheduling overhead")
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "goroutine spawn in hot path")
		}
		return true
	})
}

// checkHotFields flags by-value large structs in a parameter or result list.
func checkHotFields(p *Pass, fields *ast.FieldList, what string) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		reportHotCopy(p, f.Pos(), p.Info.TypeOf(f.Type), what)
	}
}

// checkHotAssign flags assignments whose right-hand side lands a large
// struct in a variable by value. A composite literal builds its value in
// place and a blank target discards it, so neither counts.
func checkHotAssign(p *Pass, n *ast.AssignStmt) {
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if _, lit := rhs.(*ast.CompositeLit); !lit && !isBlank(n.Lhs[i]) {
				reportHotCopy(p, rhs.Pos(), p.Info.TypeOf(rhs), "assignment")
			}
		}
		return
	}
	// a, b := f(): the operands are the call's results.
	if tuple, ok := p.Info.TypeOf(n.Rhs[0]).(*types.Tuple); ok && tuple.Len() == len(n.Lhs) {
		for i, lhs := range n.Lhs {
			if !isBlank(lhs) {
				reportHotCopy(p, lhs.Pos(), tuple.At(i).Type(), "assignment")
			}
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// reportHotCopy flags a by-value hand-off of type t when t is a struct over
// the copy limit.
func reportHotCopy(p *Pass, pos token.Pos, t types.Type, what string) {
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return
	}
	if size := hotSizes.Sizeof(t); size > maxHotCopy {
		p.Reportf(pos, "%s copies a %d-byte %s by value in hot path (limit %d); use a pointer",
			what, size, types.TypeString(t, types.RelativeTo(p.Pkg)), maxHotCopy)
	}
}

func checkHotCall(p *Pass, call *ast.CallExpr) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if pn, ok := pkgNameOf(p.Info, sel.X); ok && pn.Imported().Path() == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s in hot path formats through interfaces and allocates", sel.Sel.Name)
			return
		}
	}
	// Explicit conversion to an interface type boxes the operand.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			if arg := p.Info.TypeOf(call.Args[0]); arg != nil {
				if _, already := arg.Underlying().(*types.Interface); !already {
					p.Reportf(call.Pos(), "conversion to interface type %s in hot path boxes the value on the heap", tv.Type.String())
				}
			}
		}
	}
}

// checkHotAppend flags `lhs = append(first, ...)` where lhs is not the same
// expression as first: appending into a fresh slice grows a new backing
// array every time, while the self-append idiom amortizes to zero
// steady-state allocations once the buffer has warmed up.
func checkHotAppend(p *Pass, rhs ast.Expr, lhs ast.Expr) {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return
	}
	if _, ok := p.Info.Uses[id].(*types.Builtin); !ok {
		return
	}
	if types.ExprString(lhs) == types.ExprString(call.Args[0]) {
		return
	}
	p.Reportf(call.Pos(), "append grows a slice (%s) other than the one assigned back (%s); hot-path appends must reuse their own backing array",
		types.ExprString(call.Args[0]), types.ExprString(lhs))
}
