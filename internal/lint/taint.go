package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// checkTaintWall extends the wallclock and rand checks from direct-call
// detection to a transitive call-graph taint pass: a module function that
// reaches time.Now/Since/Until or the unseeded global math/rand source —
// directly or through any chain of module-internal calls — taints every
// call site. A helper that wraps time.Now is therefore flagged in every
// engine package that calls it, not just at its definition, and a
// //caislint:ignore wallclock directive on the definition does not
// launder the call sites.
//
// Wallclock taint does not propagate out of the sanctioned packages
// (cmd/, internal/trace): functions defined there may read the wall
// clock by policy, so calling them is not a violation. Rand taint has no
// sanctioned packages, matching the direct check. The pass follows named
// functions and methods; function values and closures are outside its
// reach (the direct checks still cover their bodies).
func checkTaintWall(pass *Pass) {
	p := pass.Pkg
	wallAllowed := pathAllowed(p.Path, pass.rc.wallclockAllow)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || !pass.mod.inModule(fn.Pkg()) {
				return true
			}
			facts := pass.mod.taintOf(fn)
			if facts.wall != nil && !wallAllowed {
				pass.rep(call.Pos(), CheckTaintWall,
					"call to %s transitively reads the wall clock (%s); simulated code must use sim.Engine time",
					shortFuncName(fn), strings.Join(facts.wall, " -> "))
			}
			if facts.rand != nil {
				pass.rep(call.Pos(), CheckTaintWall,
					"call to %s transitively uses the unseeded global math/rand source (%s); thread a seeded generator (sim.RNG) instead",
					shortFuncName(fn), strings.Join(facts.rand, " -> "))
			}
			return true
		})
	}
}

// taintFacts records, per function, a witness call chain to each taint
// source; nil means clean for that flavor.
type taintFacts struct {
	wall []string // e.g. [util.Stamp, time.Now]
	rand []string
}

// calleeFunc resolves a call expression to the named function or method
// it invokes, or nil for closures, function values and builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// shortFuncName renders pkg.Func or pkg.Type.Method for diagnostics.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// taintOf returns the (memoized) taint facts for a module function.
func (m *modState) taintOf(fn *types.Func) *taintFacts {
	facts, _ := m.taint(fn)
	return facts
}

// taint computes taint facts by walking the function body. The second
// result reports completeness: results computed while a call-graph cycle
// is open are correct for the caller but under-explored, so they are not
// memoized (direct sources are always seen by their own function's walk,
// which keeps values exact; only caching is affected).
func (m *modState) taint(fn *types.Func) (*taintFacts, bool) {
	if facts, ok := m.taints[fn]; ok {
		return facts, true
	}
	if m.taintRun[fn] {
		return &taintFacts{}, false
	}
	m.taintRun[fn] = true
	defer delete(m.taintRun, fn)

	facts := &taintFacts{}
	complete := true
	decl, p := m.declOf(fn)
	if decl == nil || decl.Body == nil {
		m.taints[fn] = facts
		return facts, true
	}
	wallSanctioned := pathAllowed(fn.Pkg().Path(), m.rc.wallclockAllow)
	self := shortFuncName(fn)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			switch source(p, n) {
			case notSource:
			case wallSource:
				if facts.wall == nil && !wallSanctioned {
					facts.wall = []string{self, "time." + n.Sel.Name}
				}
			case randSource:
				if facts.rand == nil {
					facts.rand = []string{self, "rand." + n.Sel.Name}
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(p, n)
			if callee == nil || callee == fn || !m.inModule(callee.Pkg()) {
				return true
			}
			child, done := m.taint(callee)
			if !done {
				complete = false
			}
			if child.wall != nil && facts.wall == nil && !wallSanctioned {
				facts.wall = append([]string{self}, child.wall...)
			}
			if child.rand != nil && facts.rand == nil {
				facts.rand = append([]string{self}, child.rand...)
			}
		}
		return true
	})
	if complete {
		m.taints[fn] = facts
	}
	return facts, complete
}
