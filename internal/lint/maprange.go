package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `range` over a map whose body makes the (intentionally
// randomized) iteration order observable: accumulating floats, appending
// to a slice, or issuing net/rpc calls. Those were exactly the hazards
// live in fed.groupByHost and mobility's dense transition estimator before
// this check existed. The remediation is to iterate a sorted key slice
// (det.SortedKeys) or to collect keys at insertion time.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "range over a map with an order-sensitive body (float accumulation, append, RPC)",
	Run:  runMapRange,
}

func runMapRange(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if hazard := mapRangeHazard(p, rs.Body); hazard != "" {
				p.Reportf(rs.For, "map iteration order is randomized, and this body %s; iterate sorted keys (det.SortedKeys) or collect keys at insertion", hazard)
			}
			return true
		})
	}
}

// mapRangeHazard walks a range body (including nested closures) for the
// first construct that makes iteration order observable.
func mapRangeHazard(p *Pass, body *ast.BlockStmt) string {
	var hazard string
	ast.Inspect(body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				for _, lhs := range n.Lhs {
					if isFloat(p.TypeOf(lhs)) {
						hazard = "accumulates floating-point values in iteration order"
					}
				}
			case token.ASSIGN:
				// x = x + v spelled without the compound operator.
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && isFloat(p.TypeOf(lhs)) && selfReferential(lhs, n.Rhs[i]) {
						hazard = "accumulates floating-point values in iteration order"
					}
				}
			}
		case *ast.IncDecStmt:
			if isFloat(p.TypeOf(n.X)) {
				hazard = "accumulates floating-point values in iteration order"
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin || p.Info == nil {
					hazard = "appends to a slice in iteration order"
				}
			} else if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "net/rpc" && (fn.Name() == "Call" || fn.Name() == "Go") {
				hazard = "issues RPCs in iteration order"
			}
		}
		return true
	})
	return hazard
}

// selfReferential reports whether rhs syntactically contains lhs (compared
// by rendered expression), i.e. `x = x + v`.
func selfReferential(lhs, rhs ast.Expr) bool {
	want := types.ExprString(lhs)
	found := false
	ast.Inspect(rhs, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

// isFloat reports whether t is float32 or float64 (possibly named).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0 && b.Info()&types.IsComplex == 0
}

// calleeFunc resolves the *types.Func a call invokes, or nil for func
// values, builtins, conversions and unresolved callees.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	if p.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}
