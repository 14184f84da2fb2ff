package sim

import (
	"reflect"
	"testing"
)

// laneRec is one executed event of a lane program: its id and instant.
type laneRec struct {
	id int
	at Time
}

// laneTrace is everything observable about one run of a lane program.
type laneTrace struct {
	log     []laneRec
	pending []int  // Pending() after every RunUntil
	clocks  []Time // Now() after every RunUntil
	lanes   uint64 // LaneEvents() at the end
	heap    uint64 // HeapEvents() at the end

	// Lane mode only: stream events that had to take the heap fallback,
	// and the most lanes ever non-empty at once.
	fallbacks int
	maxHeads  int
}

// laneProgram selects what a lane program schedules besides arbitrary
// delays and zero delays: the fixed delays it uses, and how many private
// monotone streams it feeds.
type laneProgram struct {
	name    string
	fixed   []Time
	streams int
}

// manyDelays has more distinct fixed delays than any real run, so dozens
// of lanes are non-empty at once and the lane-head heap is deep.
func manyDelays() []Time {
	d := make([]Time, 70)
	for i := range d {
		d[i] = Time(i * 3)
	}
	return d
}

var lanePrograms = []laneProgram{
	{name: "fixed", fixed: []Time{0, 1, 7, 40}},
	{name: "streams", fixed: []Time{0, 1, 7, 40}, streams: 3},
	{name: "many-delays", fixed: manyDelays()},
}

// runLaneProgram runs one seeded event program. Its events log themselves,
// schedule children at fixed delays (0 included), at arbitrary delays, at
// the current instant and on streams, and now and then call Stop; the
// outer loop runs it through RunUntil with deadlines that include ties, no
// deadline and deadlines below the clock, and schedules more events
// between calls. A stream's times advance monotonically, except that one
// event in eight goes back to an instant at or after now but below the
// stream's newest event, which must take the heap fallback. viaLane
// selects how fixed delays and stream times are scheduled: through
// Lane.After, After(0) and Lane.At, or through At. The RNG is drawn in
// execution order, so the two modes draw the same numbers only while they
// execute the same events in the same order.
func runLaneProgram(seed uint64, viaLane bool, prog laneProgram) laneTrace {
	const budget = 3000
	e := NewEngine()
	rng := NewRNG(seed)
	lanes := make([]*Lane, len(prog.fixed))
	for i, d := range prog.fixed {
		lanes[i] = e.Lane(d)
	}
	streams := make([]*Lane, prog.streams)
	cursors := make([]Time, prog.streams) // each stream's newest time
	for i := range streams {
		streams[i] = e.Stream()
	}
	var tr laneTrace
	ids := 0
	var schedule func()
	newEvent := func() func() {
		ids++
		id := ids
		return func() {
			tr.log = append(tr.log, laneRec{id, e.Now()})
			for k := rng.Uint64() % 4; k > 0 && ids < budget; k-- {
				schedule()
			}
			if rng.Uint64()%50 == 0 {
				e.Stop()
			}
		}
	}
	schedule = func() {
		fn := newEvent()
		switch r := rng.Uint64() % 10; {
		case r < 3 && len(streams) > 0: // a stream
			i := rng.Uint64() % uint64(len(streams))
			now, c := e.Now(), cursors[i]
			var at Time
			if rng.Uint64()%8 == 0 && c > now {
				at = now + Time(rng.Uint64()%uint64(c-now)) // below the newest
			} else {
				at = max(c, now) + Time(rng.Uint64()%20)
				cursors[i] = at
			}
			if viaLane {
				if at < streams[i].last {
					tr.fallbacks++
				}
				streams[i].At(at, fn)
			} else {
				e.At(at, fn)
			}
		case r < 6: // a fixed delay
			i := rng.Uint64() % uint64(len(prog.fixed))
			if viaLane {
				lanes[i].After(fn)
			} else {
				e.At(e.Now()+prog.fixed[i], fn)
			}
		case r < 8: // an arbitrary delay
			e.At(e.Now()+Time(rng.Uint64()%50), fn)
		default: // zero delay
			if viaLane {
				e.After(0, fn)
			} else {
				e.At(e.Now(), fn)
			}
		}
		tr.maxHeads = max(tr.maxHeads, len(e.heads))
	}
	for i := 0; i < 20; i++ {
		e.At(Time(rng.Uint64()%30), newEvent())
	}
	for round := 0; e.Pending() > 0 && round < 10_000; round++ {
		now := e.Now()
		var deadline Time
		switch rng.Uint64() % 8 {
		case 0:
			deadline = -1
		case 1:
			deadline = now
		case 2:
			deadline = now - 1 - Time(rng.Uint64()%5)
			if deadline < 0 {
				deadline = 0
			}
		default:
			deadline = now + Time(rng.Uint64()%60)
		}
		e.RunUntil(deadline)
		tr.pending = append(tr.pending, e.Pending())
		tr.clocks = append(tr.clocks, e.Now())
		if ids < budget && rng.Uint64()%3 == 0 {
			schedule()
		}
	}
	tr.lanes, tr.heap = e.LaneEvents(), e.HeapEvents()
	return tr
}

// TestLaneOrderMatchesHeap is the lanes' correctness argument run as a
// test: scheduling fixed delays and stream times through lanes must
// execute the same events at the same instants in the same order as
// scheduling them on the heap, and leave the same events pending after
// every RunUntil. Both modes schedule the same events, split differently
// between lanes and heap.
func TestLaneOrderMatchesHeap(t *testing.T) {
	for _, prog := range lanePrograms {
		t.Run(prog.name, func(t *testing.T) {
			fallbacks, maxHeads := 0, 0
			for seed := uint64(1); seed <= 40; seed++ {
				heap := runLaneProgram(seed, false, prog)
				lane := runLaneProgram(seed, true, prog)
				fallbacks += lane.fallbacks
				maxHeads = max(maxHeads, lane.maxHeads)
				if heap.lanes != 0 {
					t.Fatalf("seed %d: heap mode scheduled %d lane events, want 0", seed, heap.lanes)
				}
				if lane.lanes == 0 {
					t.Fatalf("seed %d: lane mode scheduled no lane events", seed)
				}
				if lane.lanes+lane.heap != heap.heap {
					t.Fatalf("seed %d: lane mode scheduled %d+%d events, heap mode %d",
						seed, lane.lanes, lane.heap, heap.heap)
				}
				if len(lane.log) < 500 {
					t.Fatalf("seed %d: program ran only %d events", seed, len(lane.log))
				}
				if !reflect.DeepEqual(heap.log, lane.log) {
					for i := range heap.log {
						if i >= len(lane.log) || heap.log[i] != lane.log[i] {
							t.Fatalf("seed %d: execution logs diverge at event %d", seed, i)
						}
					}
					t.Fatalf("seed %d: lane log has %d extra events", seed, len(lane.log)-len(heap.log))
				}
				if !reflect.DeepEqual(heap.pending, lane.pending) {
					t.Fatalf("seed %d: Pending() differs:\nheap %v\nlane %v", seed, heap.pending, lane.pending)
				}
				if !reflect.DeepEqual(heap.clocks, lane.clocks) {
					t.Fatalf("seed %d: clocks after RunUntil differ", seed)
				}
			}
			if prog.streams > 0 && fallbacks == 0 {
				t.Error("no stream event took the heap fallback")
			}
			if len(prog.fixed) >= 64 && maxHeads < 16 {
				t.Errorf("at most %d lanes were non-empty at once, want >= 16", maxHeads)
			}
		})
	}
}

func TestLaneOnePerDelay(t *testing.T) {
	e := NewEngine()
	if e.Lane(5) != e.Lane(5) {
		t.Error("Lane(5) returned two different lanes")
	}
	if e.Lane(5) == e.Lane(6) {
		t.Error("Lane(5) and Lane(6) share a lane")
	}
	if e.Lane(-3) != e.Lane(0) || e.Lane(0) != e.zero {
		t.Error("a negative delay must clamp to the zero-delay lane")
	}
}

// TestLaneSaturatesAtMaxTime: a lane delay past MaxTime takes the heap's
// saturating path, so the event runs at MaxTime in scheduling order.
func TestLaneSaturatesAtMaxTime(t *testing.T) {
	e := NewEngine()
	lane := e.Lane(100)
	var got []int
	var at []Time
	rec := func(id int) func() {
		return func() { got, at = append(got, id), append(at, e.Now()) }
	}
	e.At(MaxTime-10, func() {
		lane.After(rec(1))
		e.After(100, rec(2))
		lane.After(rec(3))
	})
	e.Run()
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("order %v, want [1 2 3]", got)
	}
	for i, a := range at {
		if a != MaxTime {
			t.Errorf("event %d ran at %v, want MaxTime", got[i], a)
		}
	}
	if n := e.LaneEvents(); n != 0 {
		t.Errorf("LaneEvents = %d, want 0 (saturated events go to the heap)", n)
	}
}

// TestQueueTelemetry checks the two counters the machine exports as gauges.
func TestQueueTelemetry(t *testing.T) {
	e := NewEngine()
	lane := e.Lane(2)
	for i := 0; i < 3; i++ {
		e.At(Time(i), nop)
	}
	lane.After(nop)
	e.After(0, nop)
	if e.Pending() != 5 || e.QueueHighWater() != 5 {
		t.Fatalf("Pending %d, high water %d; want 5 and 5", e.Pending(), e.QueueHighWater())
	}
	e.Run()
	if e.Pending() != 0 || e.QueueHighWater() != 5 || e.LaneEvents() != 2 {
		t.Fatalf("after Run: Pending %d, high water %d, lane events %d; want 0, 5, 2",
			e.Pending(), e.QueueHighWater(), e.LaneEvents())
	}
}
