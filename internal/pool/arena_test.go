package pool

import "testing"

func TestArenaMakeZeroedAndCapped(t *testing.T) {
	var a Arena[int]
	s := a.Make(3)
	if len(s) != 3 || cap(s) != 3 {
		t.Fatalf("Make(3): len=%d cap=%d, want 3/3", len(s), cap(s))
	}
	for i, v := range s {
		if v != 0 {
			t.Fatalf("Make returned non-zero element %d at %d", v, i)
		}
	}
	s[0], s[1], s[2] = 1, 2, 3
	// cap == len: appending must not bleed into the next allocation.
	n := a.Make(2)
	_ = append(s, 99)
	if n[0] != 0 || n[1] != 0 {
		t.Fatalf("append to a full arena slice clobbered the neighbour: %v", n)
	}
	if a.Make(0) != nil {
		t.Fatal("Make(0) must return nil")
	}
}

func TestArenaOne(t *testing.T) {
	var a Arena[int]
	s := a.One(7)
	if len(s) != 1 || s[0] != 7 {
		t.Fatalf("One(7) = %v", s)
	}
}

func TestArenaChunkSpillAndOversized(t *testing.T) {
	var a Arena[byte]
	chunks := 0
	for total := 0; total < 3*arenaChunk; total += 100 {
		free := len(a.free)
		if s := a.Make(100); len(s) != 100 {
			t.Fatalf("len = %d", len(s))
		}
		if len(a.free) > free {
			chunks++ // the request did not fit: a fresh chunk started
		}
	}
	if chunks < 3 {
		t.Fatalf("chunks = %d, want >= 3 after %d elems", chunks, 3*arenaChunk)
	}
	free := len(a.free)
	big := a.Make(arenaChunk + 1)
	if len(big) != arenaChunk+1 {
		t.Fatalf("oversized Make len = %d", len(big))
	}
	// An oversized request gets a dedicated slab, not chunk space.
	if len(a.free) != free {
		t.Fatalf("active chunk has %d free after oversized Make, want %d", len(a.free), free)
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena[int]
	// Warm one chunk; while it has room, Make and One must not allocate.
	a.Make(64)
	allocs := testing.AllocsPerRun(100, func() {
		s := a.Make(8)
		s[0] = 1
		_ = a.One(2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Make/One allocates %.1f/op, want 0", allocs)
	}
}
