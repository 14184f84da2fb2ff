package main

import "time"

// The machine this benchmark was sized on is a shared two-CPU virtual
// machine whose speed drifts by up to half over minutes as its neighbours'
// load comes and goes, in CPU time as much as in wall time. A time taken
// from one run alone moves with that drift, so every timing is scaled to
// the reference speed: multiplied by refNominal over the time of a fixed
// reference kernel run next to it. The raw seconds stay in the result file.

// refNominal is the reference kernel's time, in seconds, on that machine
// when it runs at its usual speed, so scaled times read as seconds there.
const refNominal = 0.034

// refSink keeps the reference kernel's result live.
var refSink uint64

// referenceSeconds times the reference kernel: an event loop over a binary
// heap with map updates, the simulator's own mix of work, written against
// the standard library only so that no change to the simulator moves it.
// It allocates nothing in its loop, so the garbage a previous point left
// does not slow it.
func referenceSeconds() float64 {
	start := time.Now()
	type ev struct{ at, key uint64 }
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	heap := make([]ev, 0, 1<<14+1)
	push := func(e ev) {
		heap = append(heap, e)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p].at <= heap[i].at {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() ev {
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1].at < heap[c].at {
				c++
			}
			if heap[i].at <= heap[c].at {
				break
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
		return top
	}
	for i := 0; i < 1<<14; i++ {
		push(ev{at: next() & 0xffff, key: next()})
	}
	seen := make(map[uint64]uint32, 1<<16)
	for i := 0; i < 200_000; i++ {
		e := pop()
		seen[e.key&0xffff]++
		push(ev{at: e.at + next()&0xfff, key: next()})
	}
	refSink += uint64(len(seen))
	return time.Since(start).Seconds()
}

// scaled converts raw seconds to reference seconds, given the reference
// kernel's time around the measured interval.
func scaled(raw, ref float64) float64 { return raw * refNominal / ref }
