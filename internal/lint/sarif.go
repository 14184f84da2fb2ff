package lint

import (
	"encoding/json"
	"path/filepath"
)

// SARIF 2.1.0 output: the minimal, spec-conformant subset code-scanning
// UIs consume. Rules come from the analyzer registry (plus the synthetic
// "directive" rule for malformed/stale annotations); results reference
// module-relative URIs against a SRCROOT base so the log is portable
// across checkouts.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool               sarifTool               `json:"tool"`
	OriginalURIBaseIDs map[string]sarifBaseURI `json:"originalUriBaseIds,omitempty"`
	Results            []sarifResult           `json:"results"`
	ColumnKind         string                  `json:"columnKind"`
}

type sarifBaseURI struct {
	URI string `json:"uri"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Version        string      `json:"version"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders diagnostics as a SARIF 2.1.0 log. root is the module
// root used to relativize file paths; diagnostics outside it keep their
// absolute path (and no base URI).
func SARIF(diags []Diagnostic, root string) ([]byte, error) {
	rules := []sarifRule{}
	ruleIndex := map[string]int{}
	for _, a := range Analyzers() {
		ruleIndex[a.Name] = len(rules)
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	ruleIndex[CheckDirective] = len(rules)
	rules = append(rules, sarifRule{
		ID:               CheckDirective,
		ShortDescription: sarifMessage{Text: "malformed or stale //caislint directives are violations themselves"},
	})

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		art := sarifArtifact{URI: filepath.ToSlash(d.File)}
		if root != "" {
			if rel, err := filepath.Rel(root, d.File); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
				art = sarifArtifact{URI: filepath.ToSlash(rel), URIBaseID: "SRCROOT"}
			}
		}
		idx, ok := ruleIndex[d.Check]
		if !ok {
			idx = ruleIndex[CheckDirective]
		}
		results = append(results, sarifResult{
			RuleID:    d.Check,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Msg},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: art,
				Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
			}}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:    "caislint",
				Version: "caislint/2",
				Rules:   rules,
			}},
			OriginalURIBaseIDs: map[string]sarifBaseURI{
				"SRCROOT": {URI: "file://" + filepath.ToSlash(root) + "/"},
			},
			Results:    results,
			ColumnKind: "utf16CodeUnits",
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}

func hasDotDotPrefix(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == "../"
}
