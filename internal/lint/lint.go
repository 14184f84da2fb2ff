// Package lint is caislint: a project-specific static analyzer that
// enforces the simulator's determinism, unit-safety and cache-soundness
// invariants. The whole reproduction (event ordering, merge-session
// bookkeeping, telemetry digests, memoized simulation points) is only
// meaningful if runs are bit-reproducible and cache keys cover every
// semantically relevant input, so the checks guard the properties
// reviewers cannot reliably eyeball.
//
// The check catalog lives in registry.go; `caislint -list` prints it.
// Local syntactic checks (map-order, units, goroutine, poolreset) analyze
// one package at a time. The other four reason across package boundaries
// through a shared whole-module view:
//
//   - wallclock and rand: a direct read of time.Now/Since/Until or of
//     the unseeded global math/rand source is flagged where it appears,
//     and so is every call site of a module function that reaches one
//     through any chain of module calls — a helper wrapping time.Now is
//     flagged in every package that calls it, not just at its definition.
//   - digestcover: for each struct type consumed by a memo.Hasher digest
//     method, every exported field must be written into the digest,
//     passed to a nested digest call, or annotated
//     `//caislint:nodigest <reason>` at its declaration; func-typed
//     fields must additionally be guarded by memo.Cacheable. Adding a
//     field to strategy.Options without updating internal/memo/key.go is
//     a build-breaking diagnostic instead of a silent stale cache hit.
//   - exhaustive: switches and map literals over enum-like const blocks
//     (faults.Kind, attrib.Bucket, ...) must cover every declared
//     constant or carry an explicit default.
//
// The policy boundaries (which packages may read the wall clock, which
// are engine packages, ...) are fixed relative to the module path; see
// policy below.
//
// Violations that are intentional carry a directive with a mandatory
// reason:
//
//	//caislint:ignore <check>[,<check>...] <reason>   (this line, or the
//	    line above — covering the full line range of the statement that
//	    starts there)
//	//caislint:file-ignore <check> <reason>           (whole file)
//	//caislint:nodigest <reason>                      (in a struct field's
//	    doc or trailing comment: deliberately excluded from the digest)
//
// The analyzer is pure stdlib (go/parser, go/ast, go/types, go/importer);
// it type-checks the module from source so the type-driven checks see
// real types, not syntax.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Col   int    `json:"col"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Msg)
}

// Check names. "directive" covers malformed or unused directives.
const (
	CheckWallclock   = "wallclock"
	CheckRand        = "rand"
	CheckMapOrder    = "map-order"
	CheckUnits       = "units"
	CheckGoroutine   = "goroutine"
	CheckPoolReset   = "poolreset"
	CheckDigestCover = "digestcover"
	CheckExhaustive  = "exhaustive"
	CheckDirective   = "directive"
)

// knownChecks is the directive vocabulary, derived from the registry.
var knownChecks = func() map[string]bool {
	m := map[string]bool{}
	for _, a := range registry {
		m[a.Name] = true
	}
	return m
}()

// Config selects what to analyze.
type Config struct {
	// Dir is the module root (a directory containing go.mod).
	Dir string
	// Patterns are package patterns relative to Dir ("./...", ".",
	// "./internal/..."). Empty means "./...".
	Patterns []string
	// Checks selects a subset of the registered analyzers by name.
	// Empty means all.
	Checks []string
}

// The policy boundaries, as package directories relative to the module
// root. They follow this repository's layout, which the fixture module
// under testdata/src mirrors.
var (
	// wallclockAllow: wall-clock reads are legal in these packages and
	// below them.
	wallclockAllow = []string{"cmd", "internal/trace"}
	// enginePackages: `go` statements are forbidden here unconditionally.
	enginePackages = []string{"internal/sim", "internal/gpu", "internal/nvswitch", "internal/noc", "internal/machine"}
	// concurrencyAllow: the sanctioned concurrency sites, where `go`
	// statements are legal outside the engine packages (and below them).
	concurrencyAllow = []string{"internal/sweep", "cmd"}
)

const (
	// simPackage declares Time, the simulated-time type, and houses the
	// audited float→time conversion helpers (as do packages below it).
	simPackage = "internal/sim"
	// poolPackage declares Pool, the free list whose lifecycle
	// discipline the poolreset check enforces.
	poolPackage = "internal/pool"
	// memoPackage's Hasher methods define the memoization digest that
	// digestcover audits.
	memoPackage = "internal/memo"
)

// policy resolves the module-relative boundaries above against the path
// of the module under analysis.
type policy string

// is reports whether an import path is exactly one of the module-relative
// package dirs.
func (m policy) is(path string, dirs ...string) bool {
	for _, d := range dirs {
		if path == string(m)+"/"+d {
			return true
		}
	}
	return false
}

// under reports whether an import path is one of the module-relative
// package dirs or any package below one.
func (m policy) under(path string, dirs ...string) bool {
	for _, d := range dirs {
		full := string(m) + "/" + d
		if path == full || strings.HasPrefix(path, full+"/") {
			return true
		}
	}
	return false
}

// Run analyzes the requested packages and returns every diagnostic, sorted
// by file, line and column. A non-nil error means the analysis itself
// could not run (parse/type errors, bad patterns) — distinct from
// violations, which arrive as diagnostics with a nil error.
func Run(cfg Config) ([]Diagnostic, error) {
	checks, err := selectAnalyzers(cfg.Checks)
	if err != nil {
		return nil, err
	}
	l, err := newLoader(cfg.Dir)
	if err != nil {
		return nil, err
	}
	patterns := cfg.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	mod := newModState(l)

	var diags []Diagnostic
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, lintPackage(p, mod, checks)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// reporter is the sink checks report into; suppression by directive
// happens here.
type reporter func(pos token.Pos, check, format string, args ...any)

func lintPackage(p *Package, mod *modState, checks []*Analyzer) []Diagnostic {
	fset := p.Fset
	var diags []Diagnostic
	dirsByFile := map[string]*directiveSet{}
	for _, f := range p.Files {
		ds, dirDiags := parseDirectives(fset, f)
		ds.resolveRanges(fset, f)
		diags = append(diags, dirDiags...)
		dirsByFile[fset.Position(f.Pos()).Filename] = ds
	}
	rep := func(pos token.Pos, check, format string, args ...any) {
		position := fset.Position(pos)
		if ds := dirsByFile[position.Filename]; ds != nil && ds.suppressed(check, position.Line) {
			return
		}
		diags = append(diags, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: check, Msg: fmt.Sprintf(format, args...),
		})
	}
	pass := &Pass{Pkg: p, mod: mod, rep: rep}
	ran := map[string]bool{}
	for _, a := range checks {
		a.run(pass)
		ran[a.Name] = true
	}
	for _, name := range sortedKeys(dirsByFile) {
		diags = append(diags, dirsByFile[name].unused(fset, ran)...)
	}
	return diags
}

// directive is one parsed //caislint: comment. A single ignore comment
// naming several checks ("//caislint:ignore wallclock,rand reason")
// expands into one directive per check, tracked individually so a stale
// name inside a multi-check directive is still reported.
type directive struct {
	check    string
	fileWide bool
	line     int
	covEnd   int // last line covered (resolved from statement extents)
	pos      token.Pos
	used     bool
}

type directiveSet struct {
	list []*directive
}

// parseDirectives extracts caislint directives from a file's comments.
// Malformed directives (unknown check, missing reason) are diagnostics
// themselves: a suppression without a recorded reason is indistinguishable
// from a shrug. //caislint:nodigest annotations are validated here (their
// package owns the malformed-annotation diagnostic) but consumed by the
// digestcover pass, so they carry no suppression range and are exempt
// from unused-directive tracking.
func parseDirectives(fset *token.FileSet, f *ast.File) (*directiveSet, []Diagnostic) {
	ds := &directiveSet{}
	var diags []Diagnostic
	bad := func(pos token.Pos, format string, args ...any) {
		position := fset.Position(pos)
		diags = append(diags, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: CheckDirective, Msg: fmt.Sprintf(format, args...),
		})
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // block comments cannot carry directives
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, "caislint:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				bad(c.Pos(), "empty caislint directive")
				continue
			}
			verb := fields[0]
			switch verb {
			case "nodigest":
				if len(fields) < 2 {
					bad(c.Pos(), "caislint:nodigest is missing its mandatory reason")
				}
				continue // consumed by digestcover via the field's position
			case "ignore", "file-ignore":
			default:
				bad(c.Pos(), "unknown caislint directive %q (want ignore, file-ignore or nodigest)", verb)
				continue
			}
			if len(fields) < 2 {
				bad(c.Pos(), "caislint:%s needs a check name", verb)
				continue
			}
			names := strings.Split(fields[1], ",")
			badName := false
			for _, check := range names {
				if !knownChecks[check] {
					bad(c.Pos(), "caislint:%s names unknown check %q", verb, check)
					badName = true
				}
			}
			if badName {
				continue
			}
			if len(fields) < 3 {
				bad(c.Pos(), "caislint:%s %s is missing its mandatory reason", verb, fields[1])
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, check := range names {
				ds.list = append(ds.list, &directive{
					check:    check,
					fileWide: verb == "file-ignore",
					line:     line,
					covEnd:   line + 1,
					pos:      c.Pos(),
				})
			}
		}
	}
	return ds, diags
}

// resolveRanges widens each line directive to the full line range of the
// statement (or declaration) starting on its own line or the line below,
// so a directive above a multi-line statement suppresses diagnostics
// anywhere inside it — not just on the first line. Bare blocks are not
// extents of their own (a directive above `{` should not blanket the
// block), and function declarations keep the narrow two-line coverage so
// a directive above `func` never silently shadows a whole body.
func (ds *directiveSet) resolveRanges(fset *token.FileSet, f *ast.File) {
	lineOf := func(p token.Pos) int { return fset.Position(p).Line }
	widen := func(start, end int) {
		for _, d := range ds.list {
			if d.fileWide {
				continue
			}
			if (start == d.line || start == d.line+1) && end > d.covEnd {
				d.covEnd = end
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt, *ast.FuncDecl, nil:
			return true
		case ast.Stmt:
			widen(lineOf(n.Pos()), lineOf(n.End()))
		case *ast.GenDecl:
			widen(lineOf(n.Pos()), lineOf(n.End()))
		}
		return true
	})
}

// suppressed reports whether a diagnostic for check at the given line is
// covered: file-wide directives cover everything, line directives cover
// the resolved line range of the statement they annotate (at minimum
// their own line and the line directly below).
func (ds *directiveSet) suppressed(check string, line int) bool {
	hit := false
	for _, d := range ds.list {
		if d.check != check {
			continue
		}
		if d.fileWide || (line >= d.line && line <= d.covEnd) {
			d.used = true
			hit = true
		}
	}
	return hit
}

// unused reports directives that suppressed nothing — stale annotations
// are themselves violations so the tree stays minimally annotated. A
// directive is only known-stale when its check actually ran, so under
// -checks subsetting the other checks' ignores are left alone.
func (ds *directiveSet) unused(fset *token.FileSet, ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds.list {
		if d.used || !ran[d.check] {
			continue
		}
		position := fset.Position(d.pos)
		out = append(out, Diagnostic{
			File: position.Filename, Line: position.Line, Col: position.Column,
			Check: CheckDirective,
			Msg:   fmt.Sprintf("unused caislint:ignore directive for %s (nothing to suppress here)", d.check),
		})
	}
	return out
}
