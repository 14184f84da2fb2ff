package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeTableMatchesRegistry asserts the README's check table (the
// block between the caislint-checks markers) lists exactly the registered
// analyzers, in registry order, with their registered doc strings — the
// same rows `caislint -list` prints.
func TestReadmeTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Skipf("README.md not found: %v", err)
	}
	text := string(data)
	begin := strings.Index(text, "<!-- caislint-checks:begin -->")
	end := strings.Index(text, "<!-- caislint-checks:end -->")
	if begin < 0 || end < 0 || end < begin {
		t.Fatal("README.md is missing the caislint-checks marker block")
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\| (.+) \\|$")
	rows := rowRe.FindAllStringSubmatch(text[begin:end], -1)
	analyzers := Analyzers()
	if len(rows) != len(analyzers) {
		t.Fatalf("README table has %d check rows, registry has %d", len(rows), len(analyzers))
	}
	for i, a := range analyzers {
		if rows[i][1] != a.Name {
			t.Errorf("README row %d names %q, registry order says %q", i, rows[i][1], a.Name)
		}
		if rows[i][2] != a.Doc {
			t.Errorf("README doc for %s:\n  table:    %s\n  registry: %s", a.Name, rows[i][2], a.Doc)
		}
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers(nil)
	if err != nil || len(all) != len(registry) {
		t.Fatalf("empty selection = %d analyzers, err %v; want the full registry", len(all), err)
	}
	// Requested order does not matter: partial runs report in registry
	// order, and duplicates collapse.
	got, err := selectAnalyzers([]string{CheckExhaustive, CheckWallclock, CheckExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != CheckWallclock || got[1].Name != CheckExhaustive {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name
		}
		t.Fatalf("subset = %v, want [wallclock exhaustive] in registry order", names)
	}
	if _, err := selectAnalyzers([]string{"frobnicate"}); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("unknown check selection error = %v, want unknown-check error", err)
	}
}

// TestEveryCheckHasFixtures enforces the registry contract: each analyzer
// ships golden fixtures with at least one positive case (a lintwant
// marker) and at least one suppressed case (an ignore directive naming
// the check) under testdata/src.
func TestEveryCheckHasFixtures(t *testing.T) {
	positives := map[string]int{}
	suppressions := map[string]int{}
	ignoreRe := regexp.MustCompile(`caislint:(?:file-)?ignore ([a-z,-]+)`)
	err := filepath.WalkDir("testdata/src", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range wantRe.FindAllStringSubmatch(string(data), -1) {
			positives[m[2]]++
		}
		for _, m := range ignoreRe.FindAllStringSubmatch(string(data), -1) {
			for _, name := range strings.Split(m[1], ",") {
				suppressions[name]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Analyzers() {
		if positives[a.Name] == 0 {
			t.Errorf("check %s has no positive fixture (lintwant:%s marker)", a.Name, a.Name)
		}
		if suppressions[a.Name] == 0 {
			t.Errorf("check %s has no suppressed fixture (caislint:ignore %s ...)", a.Name, a.Name)
		}
	}
	// The directive pseudo-check is exercised by the malformed-directive
	// fixtures rather than by suppression.
	if positives[CheckDirective] == 0 {
		t.Error("no malformed-directive fixtures (lintwant:directive)")
	}
}
