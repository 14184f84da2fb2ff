// Dependency-tracker hot-path microbenchmark. Every TB of every kernel
// registers its input tiles and is woken by publishes — tens of millions
// of cycles per sweep point — so the pooled dependency records, recycled
// waiter lists, and pooled TB run slots must make the full cycle
// allocation-free at steady state. The benchmark pins that in addition to
// timing it.
package machine

import (
	"testing"

	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/sim"
)

// BenchmarkRegisterTB drives one full dependency cycle per iteration:
// register a TB against two unready tiles, publish both (waking and
// admitting the TB), and drain the engine so the no-op TB retires and its
// run slot recycles. The tiles are un-published between iterations so the
// tracker's slots stay at constant size.
func BenchmarkRegisterTB(b *testing.B) {
	eng := sim.NewEngine()
	m := New(eng, testHW(), Options{})
	// A huge grid of no-op TBs: each iteration consumes one fresh TB index
	// (MarkEligible is exactly-once per TB) and the launch never completes.
	k := &kernel.Kernel{
		Name: "bench", Kind: kernel.KindGEMM, Grid: 1 << 30,
		Work: func(g, tb int) kernel.TBDesc { return kernel.TBDesc{Group: -1} },
	}
	var l *gpu.Launch
	eng.At(0, func() { l = m.GPUs[0].Launch(k, gpu.LaunchOpts{LaunchID: 1}) })
	eng.Run() // past readyAt: eligibility now admits instead of buffering
	in := kernel.Tiles{Tile: kernel.Tile{Buf: 1, Idx: 0}, Stride: 1, N: 2}
	nextTB := 0
	cycle := func() {
		m.registerTB(l, nextTB, [2]kernel.Tiles{in})
		nextTB++
		m.PublishTiles(in)
		eng.Run() // retire the admitted no-op TB, recycling its run slot
		m.slot(in.At(0)).ready = false
		m.slot(in.At(1)).ready = false
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the pools, waiter lists, and event heap
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		b.Fatalf("warmed dependency cycle allocates %.2f/op, want 0", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
