package pool

// Arena is a chunked bump allocator for small slices with run lifetime.
// The kernel-construction hot path (the model builders) produces millions
// of tiny []kernel.Access slices per simulation point, and allocating
// each from the heap dominated the allocation profile once packets were
// pooled. An Arena hands out sub-slices of large chunks instead: steady
// state costs one heap allocation per arenaChunk elements rather than one
// per slice.
//
// Like Pool, an Arena is owned by the per-run assembly (machine.New) and
// dies with it — slices returned by Make stay valid for as long as they
// are referenced and never leak across simulation points. The arena keeps
// only its active chunk, so a spent chunk is collected once no slice
// into it is live. The engine packages are single-threaded by
// construction, so no synchronization is needed.
type Arena[T any] struct {
	free []T // unused tail of the active chunk
}

// arenaChunk is the per-chunk element count. Large enough that chunk
// allocation is rare, small enough that a mostly-idle arena stays cheap.
const arenaChunk = 4096

// Make returns a zeroed-length-n slice backed by the arena. The slice has
// cap == len (three-index), so appending to it cannot bleed into a
// neighbouring allocation. n == 0 returns nil; n > arenaChunk falls back
// to a dedicated heap slab (rare, still correct).
func (a *Arena[T]) Make(n int) []T {
	if n <= 0 {
		return nil
	}
	if n > arenaChunk {
		return make([]T, n)
	}
	if len(a.free) < n {
		a.free = make([]T, arenaChunk)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// One returns a 1-element arena slice holding v — the replacement for the
// ubiquitous []T{v} literal on the kernel-construction path.
func (a *Arena[T]) One(v T) []T {
	s := a.Make(1)
	s[0] = v
	return s
}
