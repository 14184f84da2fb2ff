package noc

import "testing"

func TestRingFIFOAcrossWrap(t *testing.T) {
	var r ring
	pkts := make([]*Packet, 100)
	for i := range pkts {
		pkts[i] = &Packet{ID: uint64(i)}
	}
	// Interleave pushes and pops so the head wraps the backing array
	// several times at small capacity.
	next := 0
	for i, p := range pkts {
		r.push(p)
		if i%3 == 2 {
			if got := r.pop(); got != pkts[next] {
				t.Fatalf("pop %d: got ID %d want %d", next, got.ID, pkts[next].ID)
			}
			next++
		}
	}
	for r.len() > 0 {
		if got := r.pop(); got != pkts[next] {
			t.Fatalf("drain pop %d: got ID %d want %d", next, got.ID, pkts[next].ID)
		}
		next++
	}
	if next != len(pkts) {
		t.Fatalf("drained %d packets, want %d", next, len(pkts))
	}
	if r.pop() != nil {
		t.Fatalf("pop on empty ring should return nil")
	}
}

func TestRingPopClearsSlot(t *testing.T) {
	var r ring
	r.push(&Packet{ID: 1})
	r.pop()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a packet after pop", i)
		}
	}
}

func TestRingSteadyStateZeroAlloc(t *testing.T) {
	var r ring
	p := &Packet{}
	// Warm to an 8-deep burst so the backing array reaches its high-water
	// capacity, then verify churn at that depth never reallocates.
	for i := 0; i < 8; i++ {
		r.push(p)
	}
	for r.len() > 0 {
		r.pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			r.push(p)
		}
		for j := 0; j < 8; j++ {
			r.pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ring churn allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRingEnqueueDequeue measures the per-class queue churn pattern
// Link.Send/pop exercise: bursts of enqueues drained in FIFO order. The
// ring reuses its backing array (0 allocs/op at steady state).
func BenchmarkRingEnqueueDequeue(b *testing.B) {
	var r ring
	p := &Packet{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			r.push(p)
		}
		for j := 0; j < 16; j++ {
			r.pop()
		}
	}
}
