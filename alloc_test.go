package cais_test

import (
	"testing"

	"cais/internal/experiments"
)

// Allocation ceilings for the three benchmark workloads the pooling
// overhauls target (see DESIGN.md §10). The first pooling pass halved the
// original baseline (Fig17 13.18M, Table2 7.44M, Fig13b 4.49M
// allocs/op); the zero-alloc kernel-construction pass (tile
// arenas, pooled dependency records, interned tile sets, the single-slot
// TB continuation) cut the remainder to under a tenth of the original.
// The ceilings were set ~10% above the post-overhaul measurement (Fig17
// 1,235,823 / Table2 695,539 / Fig13b 488,819). Deleting the five free
// lists that did not pay for themselves (DESIGN.md §10, "Pools on
// trial") left the measurement at Fig17 1,233,518 / Table2 690,545 /
// Fig13b 493,259 (1,323,233 / 714,714 / 522,193 under -race), under the
// unchanged ceilings, so a change that
// reintroduces per-TB or per-registration allocation still trips these
// before it reaches a benchmark diff.
// The ceilings double as the attribution layer's disabled-path guard: none of
// these configs set Config.Attrib or Options.UtilBin, so a change that
// makes the off-by-default observability layer allocate (an eagerly built
// tracer, an unconditional recorder) trips them immediately.
const (
	allocCeilingFig17  = 1_360_000 // measured 1,235,823 + ~10%
	allocCeilingTable2 = 765_000   // measured 695,539 + ~10%
	allocCeilingFig13b = 538_000   // measured 488,819 + ~10%
)

// allocsForRun measures one quick-fidelity sequential regeneration.
// Workers is pinned to 1: testing.AllocsPerRun sets GOMAXPROCS to 1, and a
// sequential sweep keeps the measurement free of worker-pool scheduling
// noise.
func allocsForRun(t *testing.T, fn func(c experiments.Config) error) float64 {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Workers = 1
	return testing.AllocsPerRun(1, func() {
		if err := fn(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocCeilingFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Fig17(c)
		return err
	})
	t.Logf("Fig17 allocs/run: %.0f (ceiling %d)", got, allocCeilingFig17)
	if got > allocCeilingFig17 {
		t.Errorf("Fig17 allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingFig17)
	}
}

func TestAllocCeilingTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Table2(c)
		return err
	})
	t.Logf("Table2 allocs/run: %.0f (ceiling %d)", got, allocCeilingTable2)
	if got > allocCeilingTable2 {
		t.Errorf("Table2 allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingTable2)
	}
}

func TestAllocCeilingFig13Coordination(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Fig13b(c)
		return err
	})
	t.Logf("Fig13b allocs/run: %.0f (ceiling %d)", got, allocCeilingFig13b)
	if got > allocCeilingFig13b {
		t.Errorf("Fig13b allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingFig13b)
	}
}
