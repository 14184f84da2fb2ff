package noc

import (
	"runtime"
	"testing"
	"time"

	"cais/internal/pool"
)

// The link queues are pool.Ring[*Packet]; these tests pin the queue
// behaviour Link.Send and the arbiter depend on, at the packet type.

func TestRingFIFOAcrossWrap(t *testing.T) {
	var r pool.Ring[*Packet]
	pkts := make([]*Packet, 100)
	for i := range pkts {
		pkts[i] = &Packet{ID: uint64(i)}
	}
	// Interleave pushes and pops so the head wraps the backing array
	// several times at small capacity.
	next := 0
	for i, p := range pkts {
		r.PushBack(p)
		if i%3 == 2 {
			if got := r.PopFront(); got != pkts[next] {
				t.Fatalf("pop %d: got ID %d want %d", next, got.ID, pkts[next].ID)
			}
			next++
		}
	}
	for r.Len() > 0 {
		if got := r.PopFront(); got != pkts[next] {
			t.Fatalf("drain pop %d: got ID %d want %d", next, got.ID, pkts[next].ID)
		}
		next++
	}
	if next != len(pkts) {
		t.Fatalf("drained %d packets, want %d", next, len(pkts))
	}
	if r.Len() != 0 {
		t.Fatalf("drained ring reports Len %d, want 0", r.Len())
	}
}

func TestRingPopClearsSlot(t *testing.T) {
	var r pool.Ring[*Packet]
	collected := make(chan struct{})
	p := &Packet{ID: 1}
	runtime.SetFinalizer(p, func(*Packet) { close(collected) })
	r.PushBack(p)
	p = nil
	r.PopFront()
	// The ring stays reachable; only a stale slot could keep the packet
	// alive and its finalizer from running.
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(&r)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(&r)
	t.Fatalf("popped packet still reachable through the ring")
}

func TestRingSteadyStateZeroAlloc(t *testing.T) {
	var r pool.Ring[*Packet]
	p := &Packet{}
	// Warm to an 8-deep burst so the backing array reaches its high-water
	// capacity, then verify churn at that depth never reallocates.
	for i := 0; i < 8; i++ {
		r.PushBack(p)
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			r.PushBack(p)
		}
		for j := 0; j < 8; j++ {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ring churn allocates %v allocs/op, want 0", allocs)
	}
}
