package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkMapOrder flags `for range` loops over maps whose bodies are
// order-dependent. Go randomizes map iteration order per run, so any such
// loop that mutates simulation state, schedules events, appends computed
// values, emits trace/metrics, or accumulates floats makes the simulator
// non-reproducible.
//
// A small vocabulary of provably order-independent bodies is allowed
// without annotation:
//
//   - key/value collection:      keys = append(keys, k)   (sort afterwards)
//   - integer accumulation:      n += len(v); count++
//   - keyed writes:              dst[k] = <pure expr>     (distinct keys)
//   - idempotent constant write: seen = true
//   - guarded min/max updates:   if v > best { best = v }
//   - keyed deletes:             delete(other, k)
//   - pure local declarations, continue, benign nested loops/ifs/switches
//
// Everything else — function calls, returns, breaks, float accumulation,
// appends of computed values — must either iterate sorted keys or carry a
// //caislint:ignore map-order <reason> directive.
func checkMapOrder(p *Package, f *ast.File, _ policy, rep reporter) {
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		w := &mapOrderWalker{p: p}
		if id := loopIdent(rs.Key); id != nil {
			w.keyVar = id.Name
			w.loopVars = append(w.loopVars, id.Name)
		}
		if id := loopIdent(rs.Value); id != nil {
			w.loopVars = append(w.loopVars, id.Name)
		}
		if off := w.block(rs.Body, nil); off != "" {
			rep(rs.For, CheckMapOrder,
				"range over map %s has an order-dependent body (%s); iterate sorted keys or add //caislint:ignore map-order <reason>",
				types.ExprString(rs.X), off)
		}
		return true
	})
}

func loopIdent(e ast.Expr) *ast.Ident {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

// mapOrderWalker scans a map-range body for order-dependent statements.
// Methods return "" when benign, or a short reason naming the offending
// construct.
type mapOrderWalker struct {
	p        *Package
	keyVar   string
	loopVars []string
}

func (w *mapOrderWalker) isLoopVar(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	for _, v := range w.loopVars {
		if id.Name == v {
			return true
		}
	}
	return false
}

func (w *mapOrderWalker) block(b *ast.BlockStmt, guard ast.Expr) string {
	for _, s := range b.List {
		if off := w.stmt(s, guard); off != "" {
			return off
		}
	}
	return ""
}

func (w *mapOrderWalker) stmt(s ast.Stmt, guard ast.Expr) string {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return w.assign(s, guard)

	case *ast.IncDecStmt:
		if off := w.impure(s.X); off != "" {
			return off
		}
		if isIntegerish(w.p.Info.TypeOf(s.X)) {
			return ""
		}
		return fmt.Sprintf("line %d: non-integer %s is order-dependent", w.line(s), s.Tok)

	case *ast.IfStmt:
		if s.Init != nil {
			if off := w.stmt(s.Init, nil); off != "" {
				return off
			}
		}
		if off := w.impure(s.Cond); off != "" {
			return off
		}
		g := comparisonGuard(s.Cond)
		if off := w.block(s.Body, g); off != "" {
			return off
		}
		if s.Else != nil {
			if off := w.stmt(s.Else, g); off != "" {
				return off
			}
		}
		return ""

	case *ast.BlockStmt:
		return w.block(s, guard)

	case *ast.RangeStmt:
		if off := w.impure(s.X); off != "" {
			return off
		}
		// Nested map ranges get their own diagnostic from checkMapOrder;
		// here the nested body is scanned under the same rules either way,
		// since it runs once per outer-map element.
		return w.block(s.Body, nil)

	case *ast.ForStmt:
		if s.Init != nil {
			if off := w.stmt(s.Init, nil); off != "" {
				return off
			}
		}
		if s.Cond != nil {
			if off := w.impure(s.Cond); off != "" {
				return off
			}
		}
		if s.Post != nil {
			if off := w.stmt(s.Post, nil); off != "" {
				return off
			}
		}
		return w.block(s.Body, nil)

	case *ast.SwitchStmt:
		if s.Init != nil {
			if off := w.stmt(s.Init, nil); off != "" {
				return off
			}
		}
		if s.Tag != nil {
			if off := w.impure(s.Tag); off != "" {
				return off
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				if off := w.impure(e); off != "" {
					return off
				}
			}
			for _, st := range cc.Body {
				if off := w.stmt(st, nil); off != "" {
					return off
				}
			}
		}
		return ""

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return fmt.Sprintf("line %d: declaration", w.line(s))
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, v := range vs.Values {
				if off := w.impure(v); off != "" {
					return off
				}
			}
		}
		return ""

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.isKeyedDelete(call) {
			return ""
		}
		return fmt.Sprintf("line %d: %s", w.line(s), describeCall(s.X))

	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return ""
		}
		return fmt.Sprintf("line %d: %s exits the loop at an order-dependent element", w.line(s), s.Tok)

	case *ast.ReturnStmt:
		return fmt.Sprintf("line %d: return selects an order-dependent element", w.line(s))

	default:
		return fmt.Sprintf("line %d: order-dependent statement", w.line(s))
	}
}

// assign classifies an assignment inside a map-range body.
func (w *mapOrderWalker) assign(s *ast.AssignStmt, guard ast.Expr) string {
	for _, r := range s.Rhs {
		if s.Tok == token.DEFINE || !w.isCollectAppend(s) {
			if off := w.impure(r); off != "" {
				return off
			}
		}
	}
	for _, l := range s.Lhs {
		if off := w.impure(l); off != "" {
			return off
		}
	}
	switch s.Tok {
	case token.DEFINE:
		return "" // fresh locals per iteration are order-independent

	case token.ASSIGN:
		if w.isCollectAppend(s) {
			return ""
		}
		if len(s.Lhs) == 1 {
			// Keyed write: dst[k] = <pure> touches a distinct element per
			// iteration, so the final state is order-independent.
			if ix, ok := s.Lhs[0].(*ast.IndexExpr); ok && w.isLoopVar(ix.Index) {
				return ""
			}
			// Idempotent constant write: x = true / x = 0.
			if len(s.Rhs) == 1 {
				if tv, ok := w.p.Info.Types[s.Rhs[0]]; ok && tv.Value != nil {
					return ""
				}
			}
			// Guarded min/max update: if v > best { best = v }.
			if guard != nil && lhsInGuard(s.Lhs[0], guard) {
				return ""
			}
		}
		return fmt.Sprintf("line %d: assignment to %s depends on iteration order", w.line(s), types.ExprString(s.Lhs[0]))

	default: // op-assign: += -= *= ...
		if len(s.Lhs) != 1 {
			return fmt.Sprintf("line %d: compound assignment", w.line(s))
		}
		t := w.p.Info.TypeOf(s.Lhs[0])
		if isFloat(t) {
			return fmt.Sprintf("line %d: float accumulation %s is non-associative across iteration orders", w.line(s), types.ExprString(s.Lhs[0]))
		}
		if isIntegerish(t) {
			return ""
		}
		return fmt.Sprintf("line %d: compound assignment to non-integer %s", w.line(s), types.ExprString(s.Lhs[0]))
	}
}

// isCollectAppend recognizes the sorted-keys idiom's collection step:
// keys = append(keys, k) (or the value variable). Anything appended beyond
// the raw loop variables is a computed value whose slice order would leak
// map order.
func (w *mapOrderWalker) isCollectAppend(s *ast.AssignStmt) bool {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		return false
	}
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := w.p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	if types.ExprString(call.Args[0]) != types.ExprString(s.Lhs[0]) {
		return false
	}
	for _, a := range call.Args[1:] {
		if !w.isLoopVar(a) {
			return false
		}
	}
	return true
}

// isKeyedDelete recognizes delete(m, k) with the loop key: deletions of
// distinct keys commute.
func (w *mapOrderWalker) isKeyedDelete(call *ast.CallExpr) bool {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "delete" || len(call.Args) != 2 {
		return false
	}
	if _, isBuiltin := w.p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	return w.isLoopVar(call.Args[1])
}

// impure returns a reason when the expression could have side effects or
// capture order-dependent state: any call that is not a builtin or a type
// conversion, a function literal, or a channel operation.
func (w *mapOrderWalker) impure(e ast.Expr) string {
	reason := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := w.p.Info.Types[n.Fun]; ok && tv.IsType() {
				return true // type conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := w.p.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
			reason = fmt.Sprintf("line %d: %s", w.p.line(n), describeCall(n))
			return false
		case *ast.FuncLit:
			reason = fmt.Sprintf("line %d: function literal captures iteration state", w.p.line(n))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reason = fmt.Sprintf("line %d: channel receive", w.p.line(n))
				return false
			}
		}
		return true
	})
	return reason
}

func (w *mapOrderWalker) line(n ast.Node) int { return w.p.line(n) }

func (p *Package) line(n ast.Node) int {
	return p.Fset.Position(n.Pos()).Line
}

// describeCall renders a short human label for the offending expression.
func describeCall(e ast.Expr) string {
	if call, ok := e.(*ast.CallExpr); ok {
		return fmt.Sprintf("call to %s", types.ExprString(call.Fun))
	}
	return types.ExprString(e)
}

// comparisonGuard returns the condition when it is an ordering comparison
// (the min/max idiom); nil otherwise.
func comparisonGuard(cond ast.Expr) ast.Expr {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch be.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return be
	}
	return nil
}

// lhsInGuard reports whether the assignment target's base identifier
// appears in the guarding comparison — `if s.lru < victim.lru { victim = s }`.
func lhsInGuard(lhs ast.Expr, guard ast.Expr) bool {
	base := baseIdent(lhs)
	if base == "" {
		return false
	}
	found := false
	ast.Inspect(guard, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == base {
			found = true
			return false
		}
		return !found
	})
	return found
}

func baseIdent(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return ""
		}
	}
}

func isIntegerish(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}
