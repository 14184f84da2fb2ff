package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pkgOf resolves the package an identifier's selector base refers to,
// returning nil when the base is not a package name (so aliased imports
// are handled and shadowing local variables named "time" are not).
func pkgOf(p *Package, x ast.Expr) *types.Package {
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// checkGoroutine polices `go` statements. Engine packages forbid them
// unconditionally: the discrete-event simulator is single-threaded by
// design, and a goroutine on the hot path reintroduces scheduler-dependent
// ordering. Everywhere else, concurrency must flow through the sanctioned
// sites (internal/sweep's bounded pool, cmd/) so that parallel sweeps keep
// the byte-identical-output contract instead of sprouting ad-hoc
// goroutines with their own result-ordering bugs.
func checkGoroutine(p *Package, f *ast.File, pol policy, rep reporter) {
	engine := pol.is(p.Path, enginePackages...)
	if !engine && pol.under(p.Path, concurrencyAllow...) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if engine {
				rep(g.Pos(), CheckGoroutine,
					"go statement in engine package %s; the simulator is single-threaded — schedule an event on sim.Engine instead",
					p.Path)
			} else {
				rep(g.Pos(), CheckGoroutine,
					"go statement outside the sanctioned concurrency sites; fan independent points out with sweep.Map (internal/sweep) instead")
			}
		}
		return true
	})
}

// isTimeType reports whether t (or its pointer base) is sim.Time, the
// simulated-time type.
func isTimeType(pol policy, t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Name() == "Time" && pol.is(obj.Pkg().Path(), simPackage)
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// checkUnits enforces the typed-time boundary with go/types:
//
//  1. A conversion from a float expression to sim.Time truncates
//     picoseconds and must go through an audited helper in internal/sim
//     (Scale, DurationForBytes, DurationForFlops, FromPicoseconds).
//  2. Accumulating simulated time into a float64 (`sum += float64(t)` or
//     `sum += t.Seconds()`) is flagged: float summation is
//     non-associative, so the result depends on accumulation order —
//     accumulate in sim.Time and convert once.
func checkUnits(p *Package, f *ast.File, pol policy, rep reporter) {
	if pol.under(p.Path, simPackage) {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			tv, ok := p.Info.Types[n.Fun]
			if !ok || !tv.IsType() || !isTimeType(pol, tv.Type) || len(n.Args) != 1 {
				return true
			}
			if isFloat(p.Info.TypeOf(n.Args[0])) {
				rep(n.Pos(), CheckUnits,
					"float-to-time conversion truncates picoseconds; use an audited sim helper (Scale, DurationForBytes, DurationForFlops, FromPicoseconds)")
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN && n.Tok != token.SUB_ASSIGN {
				return true
			}
			if len(n.Lhs) != 1 || !isFloat(p.Info.TypeOf(n.Lhs[0])) {
				return true
			}
			if derivesFromTime(p, pol, n.Rhs[0]) {
				rep(n.Pos(), CheckUnits,
					"float accumulation of simulated-time values is order-dependent (non-associative); accumulate in sim.Time and convert once")
			}
		}
		return true
	})
}

// derivesFromTime reports whether an expression converts a simulated-time
// value to float — either a float(t) conversion or a unit method call on a
// time value (t.Seconds() and friends).
func derivesFromTime(p *Package, pol policy, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && isFloat(tv.Type) && len(call.Args) == 1 {
			if isTimeType(pol, p.Info.TypeOf(call.Args[0])) {
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isTimeType(pol, p.Info.TypeOf(sel.X)) && isFloat(p.Info.TypeOf(call)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isPoolType reports whether t (or its pointer base) is an instantiation
// of pool.Pool, returning the named type for type-argument inspection.
func isPoolType(pol policy, t types.Type) (*types.Named, bool) {
	if t == nil {
		return nil, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Pool" {
		return nil, false
	}
	return named, pol.is(obj.Pkg().Path(), poolPackage)
}

// hasResetMethod reports whether *T has a niladic reset() method. The
// lookup runs from T's own package: reset is deliberately unexported — the
// lifecycle discipline is a package-internal contract.
func hasResetMethod(elem types.Type) bool {
	named, ok := elem.(*types.Named)
	if !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(elem), true, named.Obj().Pkg(), "reset")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// checkPoolReset enforces the free-list lifecycle discipline (see
// internal/pool): every element type handed to a pool.Pool must carry a
// reset() method, and every Put must be immediately preceded by a reset of
// the object it returns — pool.Get hands objects out without clearing
// them, so a skipped or distant reset resurfaces one run's state in
// another object's lifetime, the classic stale-field heisenbug.
func checkPoolReset(p *Package, f *ast.File, pol policy, rep reporter) {
	if pol.is(p.Path, poolPackage) {
		return // the pool package itself (generic T has no methods to check)
	}

	// Rule 1: every Pool[T] type expression needs T to have reset().
	ast.Inspect(f, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[e]
		if !ok || !tv.IsType() {
			return true
		}
		named, isPool := isPoolType(pol, tv.Type)
		if !isPool || named.TypeArgs().Len() != 1 {
			return true
		}
		elem := named.TypeArgs().At(0)
		if _, isTP := elem.(*types.TypeParam); isTP {
			return true
		}
		if !hasResetMethod(elem) {
			rep(e.Pos(), CheckPoolReset,
				"pool.Pool element type %s has no reset() method; pooled objects must reset before returning to the free list",
				types.TypeString(elem, types.RelativeTo(p.Types)))
		}
		return false
	})

	// Rule 2: every Put(x) statement is immediately preceded by x.reset().
	// Statement lists live in blocks and in switch/select clause bodies.
	checked := map[token.Pos]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, stmt := range list {
			call := poolPutStmt(p, pol, stmt)
			if call == nil {
				continue
			}
			checked[call.Pos()] = true
			arg := types.ExprString(call.Args[0])
			if i == 0 || !isResetOf(list[i-1], arg) {
				rep(call.Pos(), CheckPoolReset,
					"%s is returned to its pool without %s.reset() as the immediately preceding statement",
					arg, arg)
			}
		}
		return true
	})

	// Any pool Put reached outside statement position (defer, go, an
	// expression context) cannot be paired with a reset statically — flag
	// it rather than silently trusting it.
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || checked[call.Pos()] || !isPoolPutCall(p, pol, call) {
			return true
		}
		rep(call.Pos(), CheckPoolReset,
			"pool Put in non-statement position; call reset() then Put as two adjacent statements so the lifecycle is auditable")
		return true
	})
}

// poolPutStmt returns the pool Put call when stmt is a plain `x.Put(y)`
// expression statement, nil otherwise.
func poolPutStmt(p *Package, pol policy, stmt ast.Stmt) *ast.CallExpr {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || !isPoolPutCall(p, pol, call) {
		return nil
	}
	return call
}

// isPoolPutCall reports whether call invokes pool.Pool.Put.
func isPoolPutCall(p *Package, pol policy, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPool := isPoolType(pol, sig.Recv().Type())
	return isPool
}

// isResetOf reports whether stmt is exactly `<arg>.reset()`.
func isResetOf(stmt ast.Stmt, arg string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "reset" {
		return false
	}
	return types.ExprString(sel.X) == arg
}
