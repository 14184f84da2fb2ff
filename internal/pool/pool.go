// Package pool provides typed, per-run free-lists for the simulator's
// high-churn objects (noc packets, gpu requests and TB runs, nvswitch merge
// sessions). A Pool is a plain stack of recycled pointers: the engine
// packages are single-threaded by construction (enforced by caislint's
// goroutine check), so no synchronization is needed and Get/Put compile to
// a few instructions.
//
// Pools are owned by the per-run assembly (machine.New) and die with it, so
// recycled objects never leak across simulation points and a leaked object
// costs at most one run's worth of memory.
//
// Discipline (enforced by caislint's poolreset check): every type handed to
// a Pool must carry a reset() method, and every Put call site must reset
// the object immediately before returning it. Get does not clear objects —
// a stale field after reuse is a reset() bug, not a Get bug.
//
// A pool is kept only while it pays: each one in the tree stays on a
// measured allocation reason, recorded in DESIGN.md §10.
package pool

// Pool is a stack-backed free list of *T. The zero value is ready to use.
type Pool[T any] struct {
	free []*T
}

// Get pops a recycled object, or allocates a fresh zero-valued T when the
// free list is empty. Objects from the free list were reset() by the Put
// site and are indistinguishable from fresh ones.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// Put pushes x back onto the free list. The caller must have reset x first
// (caislint: poolreset). Putting the same object twice without an
// intervening Get corrupts the pool; the lifecycle events that call Put
// (packet delivered, TB retired, session flushed) each fire exactly once.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		return
	}
	p.free = append(p.free, x)
}
