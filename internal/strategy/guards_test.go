package strategy

import (
	"strings"
	"testing"

	"cais/internal/faults"
	"cais/internal/machine"
	"cais/internal/model"
	"cais/internal/sim"
)

// Lowering-state guards: a miswired op sequence must fail loudly, not
// silently produce a wrong pipeline.

func guardBuilder(t *testing.T) *model.Builder {
	t.Helper()
	eng := sim.NewEngine()
	return model.NewBuilder(machine.New(eng, tinyHW(), machine.Options{}))
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLoweringGuards(t *testing.T) {
	b := guardBuilder(t)
	tokens := tinyModel().Tokens()

	expectPanic(t, "attention without a local QKV grid", func() {
		st := actState{kind: stateSharded, sharded: b.NewSharded(tokens)}
		lower(b, CAIS(), model.OpSpec{Name: "attn", Kind: model.OpAttention,
			Batch: 1, Heads: 4, Seq: 256, HeadDim: 128}, &st, &plan{})
	})
	expectPanic(t, "row GEMM without a local input grid", func() {
		st := actState{kind: stateGathered, gathered: b.NewGathered(tokens)}
		lower(b, CAIS(), model.OpSpec{Name: "rg", Kind: model.OpRowGEMM,
			M: tokens, N: 512, K: 512}, &st, &plan{})
	})
	expectPanic(t, "Basic-TP col GEMM without replicated input", func() {
		st := actState{kind: stateSharded, sharded: b.NewSharded(tokens)}
		lower(b, TPNVLS(), model.OpSpec{Name: "cg", Kind: model.OpColGEMM,
			M: tokens, N: 512, K: 512}, &st, &plan{})
	})
	expectPanic(t, "SP gather from a non-sharded state", func() {
		st := actState{kind: stateLocal, local: b.NewLocalGrid(tokens, 512)}
		lower(b, CAIS(), model.OpSpec{Name: "cg", Kind: model.OpColGEMM,
			M: tokens, N: 512, K: 512}, &st, &plan{})
	})
	expectPanic(t, "row op with no activation state", func() {
		st := actState{}
		lower(b, CAIS(), model.OpSpec{Name: "ln", Kind: model.OpLN,
			Rows: tokens, Cols: 512}, &st, &plan{})
	})
}

func TestRunLayersRejectsInvalidModel(t *testing.T) {
	bad := tinyModel()
	bad.Layers = 0
	if _, err := RunLayers(tinyHW(), CAIS(), bad, false, 1); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestRunLayersOptsConfigureHook(t *testing.T) {
	called := false
	_, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, 1, Options{
		Configure: func(m *machine.Machine) { called = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("Configure hook not invoked")
	}
}

func TestDirectionTrafficAsymmetry(t *testing.T) {
	// A pure GEMM-RS run is GPU-to-switch heavy (Fig. 10a): contributions
	// go up, only merged results come down.
	hw := tinyHW()
	res, err := RunSubLayer(hw, CAISNoCoord(), model.SubLayers(tinyModel())[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, down := res.Machine.DirectionTraffic()
	if up <= 0 || down <= 0 {
		t.Fatal("no directional traffic")
	}
	busyUp, busyDown := res.Machine.DirectionBusy()
	if busyUp <= 0 || busyDown <= 0 {
		t.Fatal("no directional busy time")
	}
}

// TestRunRejectsOverflowingFaultSchedule: a schedule whose repair time
// overflows the simulated clock is an error from the run entry points,
// not a panic in the engine.
func TestRunRejectsOverflowingFaultSchedule(t *testing.T) {
	sched, err := faults.Parse([]byte(`{"faults":[{"kind":"link-degrade","at_us":9e12,"for_us":9e12,"factor":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Faults: sched}
	runs := map[string]func() error{
		"RunSubLayer": func() error {
			_, err := RunSubLayer(tinyHW(), CAIS(), model.SubLayers(tinyModel())[0], opts)
			return err
		},
		"RunLayersOpts": func() error {
			_, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, 1, opts)
			return err
		},
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%s: err = %v, want the fault's overflow named", name, err)
		}
	}
}
