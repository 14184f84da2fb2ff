package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sourceKind classifies a selector as one of the nondeterminism sources
// the wallclock and rand checks police.
type sourceKind int

const (
	notSource  sourceKind = iota
	wallSource            // time.Now/Since/Until
	randSource            // the unseeded global math/rand source
)

// sources describes each kind: the check that reports it, the package
// name witness chains print, the module-relative packages allowed to
// reach it, and the messages for a direct read and for a call that
// reaches one.
var sources = [...]struct {
	check, pkg   string
	allow        []string
	direct, call string
}{
	wallSource: {
		check:  CheckWallclock,
		pkg:    "time",
		allow:  wallclockAllow,
		direct: "time.%s reads the wall clock; simulated code must use sim.Engine time (allowed only under cmd/ and internal/trace)",
		call:   "call to %s transitively reads the wall clock (%s); simulated code must use sim.Engine time",
	},
	randSource: {
		check:  CheckRand,
		pkg:    "rand",
		direct: "rand.%s uses the unseeded global source; use sim.RNG (sim.NewRNG or a labeled sim.NewStreamRNG stream) or a *rand.Rand seeded from the run configuration",
		call:   "call to %s transitively uses the unseeded global math/rand source (%s); thread a seeded generator (sim.RNG) instead",
	},
}

// randAllowed are the math/rand entry points that construct seeded
// generators; everything else on the package (Intn, Float64, Shuffle,
// Seed, ...) goes through the unseeded global source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	"NewZipf":    true, // takes a *rand.Rand, so it is already seeded
}

// source reports whether sel reads the wall clock, uses the unseeded
// global math/rand source, or neither.
func source(p *Package, sel *ast.SelectorExpr) sourceKind {
	pkg := pkgOf(p, sel.X)
	if pkg == nil {
		return notSource
	}
	switch pkg.Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return wallSource
		}
	case "math/rand", "math/rand/v2":
		if randAllowed[sel.Sel.Name] {
			return notSource
		}
		// Types (rand.Rand, rand.Source) are legitimate in signatures.
		if obj, ok := p.Info.Uses[sel.Sel]; ok {
			if _, isType := obj.(*types.TypeName); isType {
				return notSource
			}
		}
		return randSource
	}
	return notSource
}

// checkSource returns the pass behind the wallclock and rand checks. The
// engine's sim.Time is the only clock and sim.RNG (or a *rand.Rand seeded
// from the run configuration) the only randomness, so outside the kind's
// allowed packages it reports every direct read of the source — in a
// function body or a package-level initializer alike — and every call to
// a module function that reaches one, directly or through any chain of
// module calls, with the witness chain. A helper wrapping time.Now is
// therefore flagged at each call site, and an ignore directive on the
// helper's definition does not launder its callers (directives are
// positional).
//
// Taint does not propagate out of the allowed packages: functions
// defined under cmd/ or internal/trace may read the wall clock by
// policy, so calling them is not a violation. Rand has no allowed
// packages. Named functions and methods are followed; function values
// and closures are not (a direct read in their bodies is still seen).
func checkSource(kind sourceKind) func(*Pass) {
	src := &sources[kind]
	return func(pass *Pass) {
		p := pass.Pkg
		if pass.mod.pol.under(p.Path, src.allow...) {
			return
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if source(p, n) == kind {
						pass.rep(n.Pos(), src.check, src.direct, n.Sel.Name)
					}
				case *ast.CallExpr:
					fn := calleeFunc(p, n)
					if fn == nil || !pass.mod.inModule(fn.Pkg()) {
						return true
					}
					if chain := pass.mod.taintOf(fn)[kind]; chain != nil {
						pass.rep(n.Pos(), src.check, src.call, shortFuncName(fn), strings.Join(chain, " -> "))
					}
				}
				return true
			})
		}
	}
}

// taintFacts records, per source kind, a witness call chain from a
// function to the source (e.g. [util.Stamp, time.Now]); nil means the
// function does not reach that kind.
type taintFacts [len(sources)][]string

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
func (m *modState) taintOf(fn *types.Func) taintFacts {
	facts, _ := m.taint(fn)
	return facts
}

// taint computes taint facts by walking the function body. The second
// result reports completeness: results computed while a call-graph cycle
// is open are correct for the caller but under-explored, so they are not
// memoized (direct sources are always seen by their own function's walk,
// which keeps values exact; only caching is affected).
func (m *modState) taint(fn *types.Func) (taintFacts, bool) {
	if facts, ok := m.taints[fn]; ok {
		return facts, true
	}
	if m.taintRun[fn] {
		return taintFacts{}, false
	}
	m.taintRun[fn] = true
	defer delete(m.taintRun, fn)

	var facts taintFacts
	complete := true
	decl, p := m.declOf(fn)
	if decl == nil || decl.Body == nil {
		m.taints[fn] = facts
		return facts, true
	}
	self := shortFuncName(fn)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if k := source(p, n); k != notSource && facts[k] == nil {
				facts[k] = []string{self, sources[k].pkg + "." + n.Sel.Name}
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
			for k, chain := range child {
				if chain != nil && facts[k] == nil {
					facts[k] = append([]string{self}, chain...)
				}
			}
		}
		return true
	})
	// Sanctioned packages absorb the taint they are allowed to reach.
	for k := range facts {
		if m.pol.under(fn.Pkg().Path(), sources[k].allow...) {
			facts[k] = nil
		}
	}
	if complete {
		m.taints[fn] = facts
	}
	return facts, complete
}
