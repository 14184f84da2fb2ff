package machine

import (
	"testing"

	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/metrics"
	"cais/internal/noc"
	"cais/internal/sim"
)

func TestLaunchAllEmptyAndSequenceEmpty(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	calls := 0
	m.LaunchAll(nil, func() { calls++ })
	m.Sequence(nil, func() { calls++ })
	if calls != 2 {
		t.Fatalf("empty plans must complete immediately: %d", calls)
	}
}

func TestKernelSpansRecorded(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	m.Eng.At(0, func() {
		m.Sequence([]*kernel.Kernel{computeOnly("a", 4, 1e8), computeOnly("b", 4, 1e8)}, nil)
	})
	m.Run()
	if len(m.KernelSpans) != 2 {
		t.Fatalf("spans = %d, want 2", len(m.KernelSpans))
	}
	for _, s := range m.KernelSpans {
		if s.End <= s.Start {
			t.Fatalf("span %s has no duration", s.Name)
		}
	}
	if m.KernelSpans[1].Start < m.KernelSpans[0].End {
		t.Fatal("sequence spans must not overlap")
	}
}

func TestContributionInconsistencyPanics(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	m.addContribution(0, 99, 100, 10, kernel.Publish{})
	defer func() {
		if recover() == nil {
			t.Fatal("inconsistent contribution need did not panic")
		}
	}()
	m.addContribution(0, 99, 200, 10, kernel.Publish{})
}

func TestOnDataIgnoresUntaggedPackets(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	m.OnData(0, &noc.Packet{Op: noc.OpStore, Size: 128}) // no tag: no-op
	if len(m.contrib) != 0 {
		t.Fatal("untagged packet created contribution state")
	}
}

func TestAttachRecorderCoversAllLinks(t *testing.T) {
	hw := testHW()
	m := newTestMachine(t, hw, Options{})
	rec := metrics.NewUtilSeries(10*sim.Microsecond, len(m.Links()))
	m.AttachRecorder(rec)
	m.Eng.At(0, func() {
		k := buildRSKernel(m, 8, 4<<10, m.NewBuffer(), false)
		m.LaunchKernel(k, nil)
	})
	m.Run()
	if rec.Mean(0) <= 0 {
		t.Fatal("recorder saw no traffic despite remote reductions")
	}
}

func TestPublishTilesIdempotent(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	tl := kernel.Tile{Buf: 5, Idx: 1}
	m.PublishTiles(kernel.One(tl))
	n := m.PublishedTiles
	m.PublishTiles(kernel.One(tl))
	if m.PublishedTiles != n {
		t.Fatal("republishing must be a no-op")
	}
	if !m.TileReady(tl) {
		t.Fatal("tile not ready")
	}
}

// TestPublishResolvesAtReceiver pins the publish value on the three paths
// that publish: a fixed tile publishes as named, a per-receiver tile
// publishes {Buf, Idx + g} at receiver g.
func TestPublishResolvesAtReceiver(t *testing.T) {
	const g, idx = 2, 3
	paths := []struct {
		name    string
		deliver func(m *Machine, pub kernel.Publish)
	}{
		{"read", func(m *Machine, pub kernel.Publish) {
			m.OnAccessDone(g, kernel.Access{Sem: kernel.SemRead, Publish: pub})
		}},
		{"local write", func(m *Machine, pub kernel.Publish) {
			m.OnAccessDone(g, kernel.Access{Sem: kernel.SemWrite, Addr: 7, Bytes: 64, Publish: pub})
		}},
		{"remote contribution", func(m *Machine, pub kernel.Publish) {
			tag := &gpu.TileTag{Base: 7, NeedBytes: 128, Publish: pub}
			for i := 0; i < 2; i++ {
				m.OnData(g, &noc.Packet{Op: noc.OpStore, Size: 64, Tag: tag})
			}
		}},
	}
	for _, path := range paths {
		for _, perReceiver := range []bool{false, true} {
			m := newTestMachine(t, testHW(), Options{})
			buf := m.NewBuffer()
			path.deliver(m, kernel.Publish{Tile: kernel.Tile{Buf: buf, Idx: idx}, PerReceiver: perReceiver})
			want, other := idx, idx+g
			if perReceiver {
				want, other = other, want
			}
			if !m.TileReady(kernel.Tile{Buf: buf, Idx: want}) || m.TileReady(kernel.Tile{Buf: buf, Idx: other}) {
				t.Errorf("%s, per-receiver=%v: want idx %d ready and idx %d not", path.name, perReceiver, want, other)
			}
			if m.PublishedTiles != 1 {
				t.Errorf("%s, per-receiver=%v: %d tiles published, want 1", path.name, perReceiver, m.PublishedTiles)
			}
		}
	}
}
