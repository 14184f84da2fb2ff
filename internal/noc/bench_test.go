package noc

import (
	"testing"

	"cais/internal/sim"
)

// countSink is an Endpoint that only counts deliveries.
type countSink struct{ n int }

func (c *countSink) Receive(*Packet) { c.n++ }

// BenchmarkLinkHop measures one packet crossing one link: Send, the
// serialization end, the delivery and Receive. Both events ride engine
// lanes (the serialization time's and the propagation latency's), so a
// hop never touches the event heap. The queues and the engine are warm,
// so a hop allocates nothing.
func BenchmarkLinkHop(b *testing.B) {
	eng := sim.NewEngine()
	dst := &countSink{}
	l := NewLink(eng, "bench", 450e9, 250*sim.Nanosecond, dst)
	p := &Packet{Op: OpStore, Size: 8 << 10}
	hop := func() {
		l.Send(p)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		hop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.StopTimer()
	if dst.n != 64+b.N {
		b.Fatalf("delivered %d packets, want %d", dst.n, 64+b.N)
	}
}
