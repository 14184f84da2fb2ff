package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// checkDigestCover proves the memo cache's key soundness invariant: every
// struct type consumed by a memo.Hasher digest method must have each of
// its exported fields either written into the digest (a selector read in
// the digest function's body), covered by a nested digest call (the
// whole struct value passed along), or explicitly excluded with a
// //caislint:nodigest <reason> annotation at the field's declaration.
// Otherwise adding a field to config.Hardware or strategy.Options
// without a matching Hasher write silently serves stale cache hits — the
// classic incremental-recomputation hazard, caught here at build time
// instead of as a wrong answer later.
//
// Structs reached through a `for range` over a slice inside a digest
// function (faults.Schedule's []Fault) are held to the same standard via
// the range variable.
//
// Func-typed fields cannot be digested at all; they must be guarded by
// the digest package's Cacheable function (points carrying callbacks
// bypass the cache entirely), in addition to carrying an annotation.
func checkDigestCover(pass *Pass) {
	p := pass.Pkg
	if !pass.mod.pol.is(p.Path, memoPackage) {
		return
	}
	hashers := hasherTypes(p)
	if len(hashers) == 0 {
		return
	}
	cacheable := cacheableFields(pass.mod, p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !usesHasher(p, fd, hashers) {
				continue
			}
			for _, c := range consumedStructs(pass.mod, p, fd, hashers) {
				auditStructCoverage(pass, fd, c, cacheable)
			}
		}
	}
}

// hasherTypes collects the digest accumulator types declared in this
// package (named "Hasher" by convention, matching internal/memo).
func hasherTypes(p *Package) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	obj, ok := p.Types.Scope().Lookup("Hasher").(*types.TypeName)
	if ok {
		out[obj] = true
	}
	return out
}

// isHasher reports whether t (or its pointer base) is a registered
// hasher type.
func isHasher(t types.Type, hashers map[*types.TypeName]bool) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && hashers[named.Obj()]
}

// usesHasher reports whether a function is a digest function: its
// receiver or one of its parameters is a (pointer to) Hasher.
func usesHasher(p *Package, fd *ast.FuncDecl, hashers map[*types.TypeName]bool) bool {
	obj, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && isHasher(recv.Type(), hashers) {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isHasher(sig.Params().At(i).Type(), hashers) {
			return true
		}
	}
	return false
}

// consumed is one struct-typed variable a digest function is responsible
// for: a parameter, or a range variable over a slice of structs.
type consumed struct {
	v   *types.Var   // the variable holding the struct
	st  *types.Named // its (pointer-stripped) named struct type
	pos ast.Node     // where to anchor diagnostics
}

// moduleStruct returns the named module-declared struct type behind t
// (through one pointer), or nil.
func moduleStruct(m *modState, t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !m.inModule(named.Obj().Pkg()) {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// consumedStructs collects the struct variables a digest function must
// cover: its module-struct parameters and every range variable iterating
// a slice of module structs inside its body.
func consumedStructs(mod *modState, p *Package, fd *ast.FuncDecl, hashers map[*types.TypeName]bool) []consumed {
	var out []consumed
	obj := p.Info.Defs[fd.Name].(*types.Func)
	sig := obj.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		prm := sig.Params().At(i)
		if isHasher(prm.Type(), hashers) {
			continue
		}
		if st := moduleStruct(mod, prm.Type()); st != nil {
			out = append(out, consumed{v: prm, st: st, pos: fd.Name})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		id, ok := rs.Value.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v, ok := p.Info.Defs[id].(*types.Var)
		if !ok {
			return true
		}
		if st := moduleStruct(mod, v.Type()); st != nil {
			out = append(out, consumed{v: v, st: st, pos: id})
		}
		return true
	})
	return out
}

// fieldUse describes how a digest function touches one consumed variable.
type fieldUse struct {
	fields map[string]bool // field names read through selectors
	whole  bool            // the variable escapes as a bare value (nested digest)
}

// usesOf scans a function body for every use of variable v: selector
// reads collect field names; any bare (non-selector-base) use means the
// whole value was handed to another function — a nested digest call —
// which transfers coverage responsibility to the callee (itself audited
// when it is a digest function).
func usesOf(p *Package, body *ast.BlockStmt, v *types.Var) fieldUse {
	u := fieldUse{fields: map[string]bool{}}
	selBase := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && p.Info.Uses[id] == v {
			selBase[id] = true
			u.fields[sel.Sel.Name] = true
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || selBase[id] || p.Info.Uses[id] != v {
			return true
		}
		u.whole = true
		return true
	})
	return u
}

// cacheableFields maps each struct type the digest package's Cacheable
// function inspects to the set of field names it references — the guard
// that routes callback-carrying points around the cache.
func cacheableFields(mod *modState, p *Package) map[*types.Named]map[string]bool {
	out := map[*types.Named]map[string]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Cacheable" || fd.Recv != nil || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				prm := sig.Params().At(i)
				st := moduleStruct(mod, prm.Type())
				if st == nil {
					continue
				}
				u := usesOf(p, fd.Body, prm)
				if out[st] == nil {
					out[st] = map[string]bool{}
				}
				for name := range u.fields {
					out[st][name] = true
				}
			}
		}
	}
	return out
}

// shortName renders a type as pkgname.Type for diagnostics.
func shortName(t *types.Named) string {
	return types.TypeString(t, func(pkg *types.Package) string { return pkg.Name() })
}

// auditStructCoverage reports every exported field of c's struct that the
// digest function fails to cover.
func auditStructCoverage(pass *Pass, fd *ast.FuncDecl, c consumed, cacheable map[*types.Named]map[string]bool) {
	p := pass.Pkg
	u := usesOf(p, fd.Body, c.v)
	st := c.st.Underlying().(*types.Struct)
	var missing, unguarded []string
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if !fld.Exported() {
			continue
		}
		_, isFuncField := fld.Type().Underlying().(*types.Signature)
		covered := u.whole || u.fields[fld.Name()] || pass.mod.fieldNodigest(fld)
		if !covered {
			missing = append(missing, fld.Name())
		}
		if isFuncField && !cacheable[c.st][fld.Name()] {
			unguarded = append(unguarded, fld.Name())
		}
	}
	sort.Strings(missing)
	sort.Strings(unguarded)
	for _, name := range missing {
		pass.rep(c.pos.Pos(), CheckDigestCover,
			"%s does not digest %s.%s; write it into the digest, pass the whole value to a nested digest, or annotate the field //caislint:nodigest <reason>",
			fd.Name.Name, shortName(c.st), name)
	}
	for _, name := range unguarded {
		pass.rep(c.pos.Pos(), CheckDigestCover,
			"func-typed field %s.%s is not guarded by Cacheable; callback-carrying points must bypass the cache (add a nil check in Cacheable)",
			shortName(c.st), name)
	}
}
