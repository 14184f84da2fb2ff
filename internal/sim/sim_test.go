package sim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var hit Time = -1
	e.At(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { hit = e.Now() })
	})
	e.Run()
	if hit != 150*Nanosecond {
		t.Fatalf("After fired at %v, want 150ns", hit)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10*Nanosecond, func() { ran++ })
	e.At(20*Nanosecond, func() { ran++ })
	e.At(30*Nanosecond, func() { ran++ })
	e.RunUntil(20 * Nanosecond)
	if ran != 2 {
		t.Fatalf("ran %d events before deadline, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran %d after full drain, want 3", ran)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10*Nanosecond, func() { ran++; e.Stop() })
	e.At(20*Nanosecond, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop should halt)", ran)
	}
}

func TestEngineStepLimitPanics(t *testing.T) {
	e := NewEngine()
	e.SetStepLimit(5)
	var loop func()
	loop = func() { e.After(Nanosecond, loop) }
	e.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("step limit did not panic")
		}
	}()
	e.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3.00ns"},
		{2 * Microsecond, "2.000us"},
		{350 * Microsecond, "350.00us"},
		{4 * Millisecond, "4.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationForBytes(t *testing.T) {
	// 450 GB/s, 4500 bytes -> 10ns.
	d := DurationForBytes(4500, 450e9)
	if d != 10*Nanosecond {
		t.Fatalf("DurationForBytes = %v, want 10ns", d)
	}
	if DurationForBytes(0, 450e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if DurationForBytes(1, 1e15) < 1 {
		t.Fatal("nonzero transfer must take at least 1ps")
	}
}

// TestFloatTimeSaturates pins the float-to-Time conversions: out-of-range
// values and ±Inf saturate to ±MaxTime instead of wrapping, in-range values
// truncate as before, and NaN panics naming the caller.
func TestFloatTimeSaturates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		got  func() Time
		want Time // ignored when panic is set
		// panic, when set, is a substring the NaN panic must contain.
		panic string
	}{
		{"in range", func() Time { return Scale(Second, 1.5) }, 1500 * Millisecond, ""},
		{"Scale 1e30", func() Time { return Scale(Second, 1e30) }, MaxTime, ""},
		{"Scale -1e30", func() Time { return Scale(Second, -1e30) }, -MaxTime, ""},
		{"DurationForBytes 1TiB at 1e-20 B/s", func() Time { return DurationForBytes(1<<40, 1e-20) }, MaxTime, ""},
		{"DurationForFlops +Inf", func() Time { return DurationForFlops(inf, 1) }, MaxTime, ""},
		{"Scale +Inf", func() Time { return Scale(Second, inf) }, MaxTime, ""},
		{"FromPicoseconds -Inf", func() Time { return FromPicoseconds(-inf) }, -MaxTime, ""},
		{"Scale NaN", func() Time { return Scale(Second, nan) }, 0, "sim.Scale"},
		{"DurationForBytes NaN", func() Time { return DurationForBytes(1, nan) }, 0, "sim.DurationForBytes"},
		{"FromPicoseconds NaN", func() Time { return FromPicoseconds(nan) }, 0, "sim.FromPicoseconds"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if c.panic == "" {
					if r != nil {
						t.Errorf("%s: unexpected panic %v", c.name, r)
					}
					return
				}
				if msg, _ := r.(string); !strings.Contains(msg, c.panic) {
					t.Errorf("%s: panic %v, want one naming %s", c.name, r, c.panic)
				}
			}()
			if got := c.got(); got != c.want {
				t.Errorf("%s: got %d, want %d", c.name, int64(got), int64(c.want))
			}
		}()
	}

	// After(MaxTime) at now > 0 saturates at MaxTime instead of wrapping
	// into the past.
	e := NewEngine()
	var at Time
	e.At(Microsecond, func() { e.After(MaxTime, func() { at = e.Now() }) })
	e.Run()
	if at != MaxTime {
		t.Fatalf("After(MaxTime) at now=1us fired at %d, want MaxTime", int64(at))
	}
}

func TestResourceSerializesReservations(t *testing.T) {
	r := NewResource("link")
	s1, e1 := r.Reserve(0, 10*Nanosecond)
	if s1 != 0 || e1 != 10*Nanosecond {
		t.Fatalf("first reservation (%v,%v)", s1, e1)
	}
	// Second request at t=5ns queues behind the first.
	s2, e2 := r.Reserve(5*Nanosecond, 10*Nanosecond)
	if s2 != 10*Nanosecond || e2 != 20*Nanosecond {
		t.Fatalf("second reservation (%v,%v), want (10ns,20ns)", s2, e2)
	}
	// A request after the resource is idle starts immediately.
	s3, _ := r.Reserve(100*Nanosecond, Nanosecond)
	if s3 != 100*Nanosecond {
		t.Fatalf("idle-start reservation at %v, want 100ns", s3)
	}
	if r.BusyTime() != 21*Nanosecond {
		t.Fatalf("busy = %v, want 21ns", r.BusyTime())
	}
}

func TestResourceUtilization(t *testing.T) {
	r := NewResource("hbm")
	r.Reserve(0, 25*Nanosecond)
	if u := r.Utilization(100 * Nanosecond); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Fatalf("zero-horizon utilization = %v", u)
	}
}

func TestResourceReservationsNeverOverlap(t *testing.T) {
	// Property: for any request sequence, granted intervals are disjoint
	// and ordered.
	f := func(durs []uint16, gaps []uint16) bool {
		r := NewResource("x")
		now := Time(0)
		lastEnd := Time(0)
		for i, d := range durs {
			if i < len(gaps) {
				now += Time(gaps[i])
			}
			s, e := r.Reserve(now, Time(d))
			if s < now || s < lastEnd || e != s+Time(d) {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatchFiresOnceAtZero(t *testing.T) {
	l := NewLatch(3)
	fired := 0
	l.OnRelease(func() { fired++ })
	l.Done()
	l.Done()
	if fired != 0 {
		t.Fatal("latch fired early")
	}
	l.Done()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// Late registration runs immediately.
	l.OnRelease(func() { fired++ })
	if fired != 2 {
		t.Fatalf("late OnRelease fired = %d, want 2", fired)
	}
}

func TestLatchZeroCountFiresImmediately(t *testing.T) {
	l := NewLatch(0)
	fired := false
	l.OnRelease(func() { fired = true })
	if !fired {
		t.Fatal("zero latch should fire on registration")
	}
}

func TestLatchDoubleDonePanics(t *testing.T) {
	l := NewLatch(1)
	l.Done()
	defer func() {
		if recover() == nil {
			t.Error("Done on released latch did not panic")
		}
	}()
	l.Done()
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBetween(t *testing.T) {
	r := NewRNG(9)
	lo, hi := 10*Nanosecond, 20*Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Between(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Between out of range: %v", v)
		}
	}
	if r.Between(hi, lo) != hi {
		t.Fatal("inverted range should return lo")
	}
}

func TestRNGJitterRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("Jitter out of range: %v", j)
		}
	}
	if r.Jitter(0) != 1 {
		t.Fatal("zero-frac jitter must be exactly 1")
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for g := uint64(0); g < 8; g++ {
		for k := uint64(0); k < 64; k++ {
			h := Hash64(g, k)
			if seen[h] {
				t.Fatalf("Hash64 collision at (%d,%d)", g, k)
			}
			seen[h] = true
		}
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 should be order-sensitive")
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(123)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(8)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 {
			t.Fatalf("bucket %d frac %v far from 0.125", b, frac)
		}
	}
}
