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

func TestArenaMarkRewindReclaims(t *testing.T) {
	var a Arena[int]
	a.Make(10)
	m := a.Mark()
	first := a.Make(4)
	first[0] = 42
	a.Rewind(m)
	second := a.Make(4)
	// Same backing memory, and it must come back zeroed.
	if &first[0] != &second[0] {
		t.Fatal("Rewind did not reclaim arena space")
	}
	if second[0] != 0 {
		t.Fatal("reclaimed arena slice not re-zeroed")
	}
	// A stale mark (taken after the position we rewound to) is a no-op.
	a.Rewind(Mark{ci: 5, used: 0})
	if got := a.Make(1); got == nil {
		t.Fatal("arena unusable after stale rewind")
	}
}

func TestArenaChunkSpillAndOversized(t *testing.T) {
	var a Arena[byte]
	total := 0
	for total < 3*arenaChunk {
		s := a.Make(100)
		if len(s) != 100 {
			t.Fatalf("len = %d", len(s))
		}
		total += 100
	}
	if len(a.chunks) < 3 {
		t.Fatalf("chunks = %d, want >= 3 after %d elems", len(a.chunks), total)
	}
	chunks := len(a.chunks)
	big := a.Make(arenaChunk + 1)
	if len(big) != arenaChunk+1 {
		t.Fatalf("oversized Make len = %d", len(big))
	}
	// An oversized request gets a dedicated slab, not a chunk.
	if len(a.chunks) != chunks {
		t.Fatalf("chunks = %d after oversized Make, want %d", len(a.chunks), chunks)
	}
}

func TestArenaSteadyStateAllocs(t *testing.T) {
	var a Arena[int]
	// Warm one chunk, then Mark/Rewind cycles must not allocate at all.
	m := a.Mark()
	a.Make(64)
	a.Rewind(m)
	allocs := testing.AllocsPerRun(100, func() {
		mk := a.Mark()
		s := a.Make(8)
		s[0] = 1
		_ = a.One(2)
		a.Rewind(mk)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Mark/Make/Rewind allocates %.1f/op, want 0", allocs)
	}
}
