package model

import (
	"testing"

	"cais/internal/config"
)

// FuzzModelValidate: every Model that Validate accepts has a usable head
// dimension and token count, and decomposes into both phases' operator
// sequences without panicking.
func FuzzModelValidate(f *testing.F) {
	for _, m := range config.TableIModels() {
		f.Add(m.Hidden, m.FFNHidden, m.Heads, m.SeqLen, m.Batch, m.Layers)
	}
	f.Add(32, 64, 33, 8, 2, 1)
	f.Add(1, 1, 1, 1<<40, 1<<40, 1)
	f.Fuzz(func(t *testing.T, hidden, ffn, heads, seq, batch, layers int) {
		m := config.Model{Name: "fuzz", Hidden: hidden, FFNHidden: ffn, Heads: heads, SeqLen: seq, Batch: batch, Layers: layers}
		if m.Validate() != nil {
			return
		}
		if d := m.HeadDim(); d < 1 || d > m.Hidden {
			t.Fatalf("accepted %+v with head dim %d", m, d)
		}
		if m.Tokens() < 1 {
			t.Fatalf("accepted %+v with %d tokens", m, m.Tokens())
		}
		LayerOps(m, Forward)
		LayerOps(m, Backward)
	})
}
