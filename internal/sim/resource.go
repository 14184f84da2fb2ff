package sim

// Resource models a serialized, full-throughput resource such as a link's
// serialization stage or a GPU's HBM share. Callers reserve an interval of
// exclusive use; the resource tracks its next-free time and accumulated
// busy time for utilization reporting.
//
// Resource intentionally does not schedule events itself: the caller
// receives the (start, end) interval and schedules whatever completion
// events it needs, which keeps queueing policy (FIFO vs virtual channels)
// in the component that owns the policy.
type Resource struct {
	Name     string
	freeAt   Time
	busy     Time
	firstUse Time
	used     bool
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource {
	return &Resource{Name: name}
}

// Reserve books dur of exclusive use no earlier than now and returns the
// interval granted. Reservations are FIFO: each call starts at
// max(now, previous end).
func (r *Resource) Reserve(now Time, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	if !r.used {
		r.used = true
		r.firstUse = start
	}
	return start, end
}

// FreeAt reports when the resource next becomes idle.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime reports the total reserved time.
func (r *Resource) BusyTime() Time { return r.busy }

// Utilization reports busy time as a fraction of the window [0, horizon].
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

// Latch is a countdown latch used to model barriers: once Add'ed count
// reaches zero the registered callbacks fire, in registration order, at the
// time of the final Done call.
type Latch struct {
	remaining int
	fns       []func()
	fired     bool
}

// NewLatch returns a latch waiting for n completions. n == 0 latches fire
// immediately upon the first callback registration.
func NewLatch(n int) *Latch {
	return &Latch{remaining: n}
}

// Remaining reports outstanding completions.
func (l *Latch) Remaining() int { return l.remaining }

// OnRelease registers fn to run when the latch reaches zero. If the latch
// already fired, fn runs synchronously.
func (l *Latch) OnRelease(fn func()) {
	if l.fired || l.remaining <= 0 {
		l.fire()
		fn()
		return
	}
	l.fns = append(l.fns, fn)
}

// Done counts down one completion, firing callbacks when the count hits
// zero. Calling Done on a released latch panics: it indicates a
// double-completion bug in the caller.
func (l *Latch) Done() {
	if l.remaining <= 0 {
		panic("sim: Latch.Done on released latch")
	}
	l.remaining--
	if l.remaining == 0 {
		l.fire()
	}
}

// fire releases the latch, running the callbacks in registration order.
func (l *Latch) fire() {
	if l.fired {
		return
	}
	l.fired = true
	fns := l.fns
	l.fns = nil
	for _, fn := range fns {
		fn()
	}
}
