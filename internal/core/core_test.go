package core

import (
	"testing"

	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/model"
)

func coreHW() config.Hardware {
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 8
	hw.RequestBytes = 8 << 10
	return hw
}

func TestSessionRejectsInvalidHardware(t *testing.T) {
	hw := coreHW()
	hw.NumGPUs = 0
	if _, err := NewSession(hw, machine.Options{}); err == nil {
		t.Fatal("invalid hardware accepted")
	}
}

func TestSessionStagedPipeline(t *testing.T) {
	s, err := NewSession(coreHW(), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	red := b.NewSharded(512)
	parts := b.NewParts(512, 512)
	rs := b.FusedGEMMRS("rs", 512, 512, 256, 1,
		func(g, mi, ni int) kernel.Tiles { return kernel.Tiles{} },
		model.ReduceCAIS, model.FullCoordination(), red, parts)
	s.Stage(rs)
	elapsed, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if s.SwitchStats().MergedReds == 0 {
		t.Fatal("fused GEMM-RS produced no merged reductions")
	}
	if s.AvgLinkUtilization() <= 0 {
		t.Fatal("no link utilization")
	}
}

func TestSessionPublishTilesSeedsInputs(t *testing.T) {
	s, err := NewSession(coreHW(), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	in := b.NewLocalGrid(256, 256)
	s.PublishTiles(kernel.Tiles{Tile: in.Tile(0, 0, 0), Stride: 1, N: in.MTiles * in.NTiles * 4})
	out := b.NewLocalGrid(256, 256)
	k := b.GEMM("g", 256, 256, 512, 1,
		func(g, mi, ni int) kernel.Tiles { return kernel.One(in.Tile(mi, ni, g)) }, out)
	s.Stage(k)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
