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
// dies with it — slices returned by Make stay valid for the owning
// machine's lifetime and never leak across simulation points. The engine
// packages are single-threaded by construction, so no synchronization is
// needed.
//
// Mark/Rewind give callers with a transient allocation pattern (the
// machine's TB-registration loop, which discards each Work descriptor
// after registering its input tiles with the tile tracker) a way to
// reclaim arena space: take a Mark, allocate freely, Rewind when every slice
// allocated since the mark is dead. Rewinding while such a slice is still
// referenced is a use-after-free-style bug — the memory will be handed
// out again.
type Arena[T any] struct {
	chunks [][]T
	ci     int // active chunk index
	used   int // elements used in the active chunk
}

// arenaChunk is the per-chunk element count. Large enough that chunk
// allocation is rare, small enough that a mostly-idle arena stays cheap.
const arenaChunk = 4096

// Mark is a position in the arena that Rewind can return to.
type Mark struct {
	ci   int
	used int
}

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
	for {
		if a.ci < len(a.chunks) {
			c := a.chunks[a.ci]
			if a.used+n <= len(c) {
				s := c[a.used : a.used+n : a.used+n]
				a.used += n
				// Rewound chunks hand out stale elements: clear them so
				// Make always returns zero values, like make([]T, n).
				clear(s)
				return s
			}
			a.ci++
			a.used = 0
			continue
		}
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
}

// One returns a 1-element arena slice holding v — the replacement for the
// ubiquitous []T{v} literal on the kernel-construction path.
func (a *Arena[T]) One(v T) []T {
	s := a.Make(1)
	s[0] = v
	return s
}

// Mark records the current allocation position.
func (a *Arena[T]) Mark() Mark {
	return Mark{ci: a.ci, used: a.used}
}

// Rewind returns the arena to a previously taken Mark, reclaiming every
// in-chunk allocation made since. Dedicated slabs (oversized Makes) are
// not reclaimed — they stay with the garbage collector. The caller
// guarantees no slice allocated after the mark is still referenced.
func (a *Arena[T]) Rewind(m Mark) {
	if m.ci > a.ci || (m.ci == a.ci && m.used > a.used) {
		return // stale mark from a position already rewound past
	}
	a.ci = m.ci
	a.used = m.used
}
