package pool

import "testing"

type thing struct {
	a int
	b []int
}

func (t *thing) reset() { t.a = 0; t.b = t.b[:0] }

func TestGetPutRecycles(t *testing.T) {
	var p Pool[thing]
	x := p.Get()
	x.a = 7
	x.b = append(x.b, 1, 2, 3)
	x.reset()
	p.Put(x)
	y := p.Get()
	if y != x {
		t.Fatalf("Get after Put returned a fresh object, want the recycled one")
	}
	if y.a != 0 || len(y.b) != 0 {
		t.Fatalf("recycled object not reset: %+v", y)
	}
	if cap(y.b) < 3 {
		t.Fatalf("reset dropped backing array: cap=%d", cap(y.b))
	}
}

func TestGetOrderLIFO(t *testing.T) {
	var p Pool[thing]
	a, b := p.Get(), p.Get()
	a.reset()
	p.Put(a)
	b.reset()
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatalf("pool is not LIFO: got %p want %p", got, b)
	}
	if got := p.Get(); got != a {
		t.Fatalf("pool is not LIFO on second Get")
	}
}

func TestPutNilIgnored(t *testing.T) {
	var p Pool[thing]
	p.Put(nil)
	if x := p.Get(); x == nil {
		t.Fatalf("Get returned nil after Put(nil)")
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	var p Pool[thing]
	// Warm the free list so append in Put never grows.
	warm := make([]*thing, 8)
	for i := range warm {
		warm[i] = p.Get()
	}
	for _, x := range warm {
		x.reset()
		p.Put(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		x := p.Get()
		x.reset()
		p.Put(x)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v allocs/op, want 0", allocs)
	}
}
