package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// modState is the whole-module view shared by every package analyzed in
// one Run. The cross-package passes use it to reach beyond the package
// under analysis: digestcover reads field annotations from the digested
// structs' defining packages, exhaustive collects enum const blocks from
// their declaring package, and wallclock and rand walk callee bodies
// across the module's call graph. All lookups are lazy and memoized — a
// package's AST and type information load at most once per Run, shared
// with the per-package analysis itself through the loader.
type modState struct {
	l   *loader
	pol policy

	decls    map[string]map[*types.Func]*ast.FuncDecl // pkg path -> func object -> decl
	nodigest map[string]map[token.Pos]bool            // pkg path -> annotated field-name positions
	enums    map[*types.TypeName][]enumMember
	taints   map[*types.Func]taintFacts
	taintRun map[*types.Func]bool // DFS guard for call-graph cycles
}

func newModState(l *loader) *modState {
	return &modState{
		l:        l,
		pol:      policy(l.module),
		decls:    map[string]map[*types.Func]*ast.FuncDecl{},
		nodigest: map[string]map[token.Pos]bool{},
		enums:    map[*types.TypeName][]enumMember{},
		taints:   map[*types.Func]taintFacts{},
		taintRun: map[*types.Func]bool{},
	}
}

// inModule reports whether a types.Package belongs to the module under
// analysis (as opposed to the standard library).
func (m *modState) inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == m.l.module || strings.HasPrefix(path, m.l.module+"/")
}

// pkgFor loads the module package a types.Package corresponds to,
// returning nil for non-module packages or load failures (the package
// already type-checked once to get here, so failures are theoretical).
func (m *modState) pkgFor(pkg *types.Package) *Package {
	if !m.inModule(pkg) {
		return nil
	}
	p, err := m.l.load(pkg.Path())
	if err != nil {
		return nil
	}
	return p
}

// declOf resolves a module function or method object to its declaration,
// building a per-package index on first use.
func (m *modState) declOf(fn *types.Func) (*ast.FuncDecl, *Package) {
	p := m.pkgFor(fn.Pkg())
	if p == nil {
		return nil, nil
	}
	idx, ok := m.decls[p.Path]
	if !ok {
		idx = map[*types.Func]*ast.FuncDecl{}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					idx[obj] = fd
				}
			}
		}
		m.decls[p.Path] = idx
	}
	return idx[fn], p
}

// nodigestFields returns the set of field-name positions carrying a
// well-formed //caislint:nodigest annotation, resolved through the AST: a
// field is annotated by its own doc comment or its own trailing comment,
// never by a neighboring field's (a trailing annotation on one field must
// not bleed into the next line's field). Malformed annotations (missing
// reason) are reported by the owning package's directive parsing and
// deliberately NOT honored here, so a reason-less exclusion still fails
// the digest-coverage gate.
func (m *modState) nodigestFields(p *Package) map[token.Pos]bool {
	if set, ok := m.nodigest[p.Path]; ok {
		return set
	}
	set := map[token.Pos]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				if !hasNodigest(fld.Doc) && !hasNodigest(fld.Comment) {
					continue
				}
				for _, name := range fld.Names {
					set[name.Pos()] = true
				}
			}
			return true
		})
	}
	m.nodigest[p.Path] = set
	return set
}

// hasNodigest reports whether a comment group carries a well-formed
// (reason-bearing) nodigest annotation.
func hasNodigest(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		rest, ok := strings.CutPrefix(strings.TrimSpace(text), "caislint:nodigest")
		if ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}

// fieldNodigest reports whether a struct field carries a well-formed
// //caislint:nodigest annotation at its declaration.
func (m *modState) fieldNodigest(field *types.Var) bool {
	p := m.pkgFor(field.Pkg())
	if p == nil {
		return false
	}
	return m.nodigestFields(p)[field.Pos()]
}
