// Engine hot-path microbenchmarks. The event queues are the simulator's
// innermost loop — every simulated request, kernel phase and sync crossing
// is one push/pop pair — so these benchmarks pin low ns/event and zero
// steady-state allocations per scheduled event, for the 4-ary heap, the
// fixed-delay lanes and the streams:
//
//	go test -run='^$' -bench='BenchmarkEngine' -benchmem ./internal/sim/
package sim

import (
	"fmt"
	"testing"
)

// nop is the scheduled body for queue-focused benchmarks: the work under
// measurement is the heap, not the event.
func nop() {}

// BenchmarkEngineSchedule measures a bare At push into a warm engine
// (events accumulate; the heap grows geometrically but is never drained).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), nop)
	}
}

// benchHold runs the classic hold model on the real engine: a pending set
// of `depth` events where each executed event schedules one successor, so
// the queue depth stays constant and every iteration is exactly one pop
// plus one push at steady state.
func benchHold(b *testing.B, depth int) {
	e := NewEngine()
	remaining := b.N
	// Self-rescheduling closure: each event re-arms itself while budget
	// remains, keeping the pending set at `depth`.
	var arm func()
	arm = func() {
		if remaining > 0 {
			remaining--
			e.After(Time(1+remaining%64), arm)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(i%64), arm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineHold64(b *testing.B)   { benchHold(b, 64) }
func BenchmarkEngineHold1024(b *testing.B) { benchHold(b, 1024) }
func BenchmarkEngineHold8192(b *testing.B) { benchHold(b, 8192) }

// BenchmarkEngineLaneHold is the hold model at depth 1024 with one fixed
// delay, scheduled through a lane and through the heap: the per-event
// saving every constant-delay call site gets from its lane.
func BenchmarkEngineLaneHold(b *testing.B) {
	const depth, delay = 1024, 64
	for _, viaLane := range []bool{true, false} {
		name := "heap"
		if viaLane {
			name = "lane"
		}
		b.Run(name, func(b *testing.B) {
			e := NewEngine()
			lane := e.Lane(delay)
			remaining := b.N
			var arm func()
			arm = func() {
				if remaining == 0 {
					return
				}
				remaining--
				if viaLane {
					lane.After(arm)
				} else {
					e.At(e.Now()+delay, arm)
				}
			}
			for i := 0; i < depth; i++ {
				e.At(Time(i%delay), arm)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkEngineManyLanes is the hold model at depth 1024 spread over 1,
// 8 and 64 fixed-delay lanes (delays 1..64, like BenchmarkEngineHold1024):
// the lane-head heap keeps the per-event cost nearly flat in the number of
// lanes. A warm hold cycle must allocate nothing.
func BenchmarkEngineManyLanes(b *testing.B) {
	const depth = 1024
	for _, k := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("lanes=%d", k), func(b *testing.B) {
			e := NewEngine()
			lanes := make([]*Lane, k)
			for i := range lanes {
				lanes[i] = e.Lane(Time(1 + i*(64/k)))
			}
			remaining := 0
			var arm func()
			arm = func() {
				if remaining > 0 {
					remaining--
					lanes[remaining%k].After(arm)
				}
			}
			seed := func(events int) {
				remaining = events
				for i := 0; i < depth; i++ {
					e.At(e.Now()+Time(i%64), arm)
				}
			}
			hold := func() { seed(8 * depth); e.Run() }
			hold() // warm: the rings and both heaps reach their sizes
			if allocs := testing.AllocsPerRun(10, hold); allocs != 0 {
				b.Fatalf("warm hold cycle allocates %.1f times, want 0", allocs)
			}
			seed(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkEngineHoldConcreteHeap is the queue-only counterpart of
// BenchmarkEngineHold1024: the same pop+push cycle directly against the
// 4-ary heap, isolating the queue from engine bookkeeping.
func BenchmarkEngineHoldConcreteHeap(b *testing.B) {
	const depth = 1024
	var h eventHeap
	var seq uint64
	push := func(at Time) {
		seq++
		h.push(event{at: at, seq: seq, fn: nop})
	}
	for i := 0; i < depth; i++ {
		push(Time(i % 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		push(ev.at + Time(1+i%64))
	}
}

// TestEngineSteadyStateAllocs proves the hot path allocates nothing per
// event once the queues are warm: scheduling into and draining a warmed
// engine must cost zero allocations per push/pop pair, on the heap, on a
// fixed-delay lane, on the zero-delay lane, on a stream and across many
// lanes at once.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	lane := e.Lane(3)
	stream := e.Stream()
	many := make([]*Lane, 64)
	for i := range many {
		many[i] = e.Lane(Time(10 + i))
	}
	allLanes := func() {
		for _, l := range many {
			l.After(nop)
		}
	}
	// Warm the queues past their initial capacities so growth is behind us.
	for i := 0; i < 2*initialHeapCap; i++ {
		e.At(Time(i), nop)
		lane.After(nop)
		e.After(0, nop)
		stream.At(Time(i), nop)
	}
	allLanes()
	e.Run()
	cases := []struct {
		name     string
		schedule func()
	}{
		{"heap", func() { e.At(e.Now()+1, nop) }},
		{"lane", func() { lane.After(nop) }},
		{"zero lane", func() { e.After(0, nop) }},
		{"stream", func() { stream.At(e.Now()+1, nop) }},
		{"64 lanes", allLanes},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(1000, func() {
			c.schedule()
			e.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state schedule+run allocates %.1f times per event, want 0", c.name, allocs)
		}
	}
}

// TestEventHeapPushAllocsAmortized checks the geometric-growth contract of
// the queue itself: pushing n events from scratch performs O(log n)
// allocations (the doubling ladder), far below one per event.
func TestEventHeapPushAllocsAmortized(t *testing.T) {
	const n = 100_000
	var h *eventHeap
	allocs := testing.AllocsPerRun(1, func() {
		h = &eventHeap{}
		for i := 0; i < n; i++ {
			h.push(event{at: Time(i), seq: uint64(i), fn: nop})
		}
	})
	// log2(100k/512) ≈ 8 doublings plus the heap struct itself; 16 leaves
	// headroom without letting per-event allocation regressions hide.
	if allocs > 16 {
		t.Errorf("pushing %d events allocated %.0f times; geometric growth should need <= 16", n, allocs)
	}
	if h.len() != n {
		t.Fatalf("heap lost events: len=%d want %d", h.len(), n)
	}
}
