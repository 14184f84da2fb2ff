package kernel

import (
	"slices"
	"testing"
	"testing/quick"

	"cais/internal/noc"
)

func TestExprEval(t *testing.T) {
	env := Env{GPU: 3, BlockIdx: 17}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Const(5), 5},
		{ParamGPU, 3},
		{ParamBlock, 17},
		{Add(ParamBlock, Const(1)), 18},
		{Mul(ParamBlock, Const(128)), 17 * 128},
		{Div(ParamBlock, Const(4)), 4},
		{Mod(ParamBlock, Const(4)), 1},
		{Add(Mul(ParamGPU, Const(100)), ParamBlock), 317},
	}
	for _, c := range cases {
		if got := c.e.Eval(env); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestExprDivModByZeroPanics(t *testing.T) {
	for _, e := range []Expr{Div(ParamBlock, Const(0)), Mod(ParamBlock, Const(0))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", e)
				}
			}()
			e.Eval(Env{})
		}()
	}
}

func TestUsesParam(t *testing.T) {
	gpuVariant := Add(Mul(ParamGPU, Const(4096)), ParamBlock)
	gpuInvariant := Add(Mul(ParamBlock, Const(128)), Const(7))
	if !UsesParam(gpuVariant, ParamGPU) {
		t.Error("gpuID not detected in variant expression")
	}
	if UsesParam(gpuInvariant, ParamGPU) {
		t.Error("false gpuID detection in invariant expression")
	}
	if !UsesParam(gpuInvariant, ParamBlock) {
		t.Error("blockIdx not detected")
	}
}

func TestExprGPUInvarianceProperty(t *testing.T) {
	// Property: an expression not using gpuID evaluates identically on
	// all GPUs for the same blockIdx (the exact property the compiler's
	// index analysis relies on).
	f := func(scale uint8, off uint16, block uint8) bool {
		e := Add(Mul(ParamBlock, Const(int64(scale)+1)), Const(int64(off)))
		var first int64
		for g := 0; g < 8; g++ {
			v := e.Eval(Env{GPU: int64(g), BlockIdx: int64(block)})
			if g == 0 {
				first = v
			} else if v != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternEvaluators(t *testing.T) {
	p := Pattern{
		Name: "ld.X", Sem: SemRead,
		Addr:  Mul(ParamBlock, Const(1024)),
		Home:  Mod(ParamBlock, Const(8)),
		Bytes: 2048,
	}
	if got := p.AddrAt(5, 3); got != 3072 {
		t.Fatalf("AddrAt = %d, want 3072", got)
	}
	if got := p.HomeAt(5, 11); got != 3 {
		t.Fatalf("HomeAt = %d, want 3", got)
	}
}

func TestKernelValidate(t *testing.T) {
	ok := &Kernel{Name: "k", Grid: 4, Work: func(g, tb int) TBDesc { return TBDesc{} }}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []*Kernel{
		{Grid: 4, Work: ok.Work},
		{Name: "k", Grid: 0, Work: ok.Work},
		{Name: "k", Grid: 4},
		{Name: "k", Grid: 4, Work: ok.Work, SMShare: 1.5},
	}
	for i, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("bad kernel %d accepted", i)
		}
	}
}

func TestKernelAggregates(t *testing.T) {
	k := &Kernel{
		Name: "g", Grid: 3,
		Work: func(gpu, tb int) TBDesc {
			return TBDesc{
				Flops: 100,
				Pre:   []Access{{Mode: noc.OpLdCAIS, Bytes: 10}},
				Post:  []Access{{Mode: noc.OpStore, Bytes: 5, Local: true}},
			}
		},
	}
	if got := k.TotalFlops(0); got != 300 {
		t.Fatalf("TotalFlops = %v, want 300", got)
	}
	if got := k.RemoteBytes(0); got != 30 {
		t.Fatalf("RemoteBytes = %v, want 30 (local posts excluded)", got)
	}
}

func TestKindAndSemanticStrings(t *testing.T) {
	if KindGEMM.String() != "gemm" || KindComm.String() != "comm" {
		t.Fatal("kind names wrong")
	}
	if SemRead.String() != "read" || SemReduce.String() != "reduce" || SemWrite.String() != "write" {
		t.Fatal("semantic names wrong")
	}
}

// TestTilesEnumerateBuilderShapes pins that each dependency set the model
// builders emit as a run enumerates the same tiles, in the same order, as
// the slice the builders used to build: registration, waiter and publish
// order all follow it. The grid is a LocalGrid's layout, tile (mi, ni, g)
// at index (mi*nT+ni)*P + g.
func TestTilesEnumerateBuilderShapes(t *testing.T) {
	const buf, P, nT = 3, 4, 3
	tile := func(mi, ni, g int) Tile { return Tile{Buf: buf, Idx: (mi*nT+ni)*P + g} }
	// gateChunk is GPU g's row tiles of every row in chunk c of C over mT
	// rows, as the CoCoNet/FuseLib gate collected them.
	gateChunk := func(c, C, mT, g int) []Tile {
		var s []Tile
		for mi := 0; mi < mT; mi++ {
			if min(mi*C/mT, C-1) != c {
				continue
			}
			for ni := 0; ni < nT; ni++ {
				s = append(s, tile(mi, ni, g))
			}
		}
		return s
	}
	var row, peers, column []Tile
	for ni := 0; ni < nT; ni++ {
		row = append(row, tile(2, ni, 1))
	}
	for g := 0; g < P; g++ {
		peers = append(peers, tile(2, 1, g))
	}
	const sT, batch = 4, 1
	for mj := 0; mj < sT; mj++ {
		column = append(column, tile(batch*sT+mj, 2, 3))
	}
	hop := Tile{Buf: buf + 1, Idx: 7*P + 1}

	cases := []struct {
		name string
		old  []Tile
		runs []Tiles
	}{
		{"single tile", []Tile{tile(2, 1, 3)}, []Tiles{One(tile(2, 1, 3))}},
		{"row", row, []Tiles{{Tile: tile(2, 0, 1), Stride: P, N: nT}}},
		{"peers", peers, []Tiles{{Tile: tile(2, 1, 0), Stride: 1, N: P}}},
		{"attention K/V column", column, []Tiles{{Tile: tile(batch*sT, 2, 3), Stride: nT * P, N: sT}}},
		// Chunk 0 of 4 over 5 rows holds rows 0 and 1.
		{"gate chunk", gateChunk(0, 4, 5, 2), []Tiles{{Tile: tile(0, 0, 2), Stride: P, N: 2 * nT}}},
		// Chunk 3 of 4 over 3 rows holds none.
		{"empty gate chunk", gateChunk(3, 4, 3, 2), []Tiles{{Tile: tile(3, 0, 2), Stride: P, N: 0}}},
		{"ring hop", []Tile{tile(2, 1, 1), hop}, []Tiles{One(tile(2, 1, 1)), One(hop)}},
	}
	for _, c := range cases {
		var got []Tile
		for _, run := range c.runs {
			for i := 0; i < run.N; i++ {
				got = append(got, run.At(i))
			}
		}
		if !slices.Equal(got, c.old) {
			t.Errorf("%s: run enumerates %v, old slice %v", c.name, got, c.old)
		}
	}
}
