package main

import (
	"encoding/json"
	"os"
	"time"

	"cais/internal/machine"
	"cais/internal/memo"
	"cais/internal/serve"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// span is one benchmark-side interval, measured from the benchmark's own
// files around the calls into each layer. Times are host offsets from the
// probe's origin.
type span struct {
	cat, name  string
	parent     int // index of the enclosing span, -1 at the top
	start, end time.Duration
}

// probe records the spans and counts of one traced pass. Every method is
// a no-op on a nil probe, which is what the timed passes run with.
//
// Iteration-cost calls that hit the memo cache number about two million
// per serving pass, so a hit is recorded as a count and a summed time at
// the cost-call boundary instead of a span of its own; every miss gets a
// span.
type probe struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices

	// The engine of the strategy point in flight, so that the first-event
	// hook can remove itself.
	eng      *sim.Engine
	configFn func(*machine.Machine)
	eventFn  func(sim.Time, uint64)

	costTime time.Duration // summed over every cost call
	hits     int64
	hitTime  time.Duration
}

func newProbe(origin time.Time) *probe {
	pr := &probe{origin: origin}
	pr.configFn = pr.configured
	pr.eventFn = pr.firstEvent
	return pr
}

func (pr *probe) now() time.Duration { return time.Since(pr.origin) }

// begin opens a span under the innermost open one.
func (pr *probe) begin(cat, name string) {
	if pr == nil {
		return
	}
	start := pr.now()
	pr.closed(cat, name, start, start)
	pr.open = append(pr.open, len(pr.spans)-1)
}

// end closes the innermost open span.
func (pr *probe) end() {
	if pr == nil {
		return
	}
	n := len(pr.open)
	pr.spans[pr.open[n-1]].end = pr.now()
	pr.open = pr.open[:n-1]
}

// closed records a span under the innermost open one.
func (pr *probe) closed(cat, name string, start, end time.Duration) {
	parent := -1
	if n := len(pr.open); n > 0 {
		parent = pr.open[n-1]
	}
	pr.spans = append(pr.spans, span{cat: cat, name: name, parent: parent, start: start, end: end})
}

var noop = func() {}

// span opens a layer span and returns the function that closes it.
func (pr *probe) span(name string) func() {
	if pr == nil {
		return noop
	}
	pr.begin("layer", name)
	return pr.end
}

// beginStrategy arms the hooks that split a strategy point into assembly
// (call to Options.Configure), lowering (Configure to the first event) and
// the event loop (first event to return).
func (pr *probe) beginStrategy(o *strategy.Options) {
	if pr == nil {
		return
	}
	pr.eng = nil
	pr.begin("layer", "strategy.assembly")
	o.Configure = pr.configFn
}

func (pr *probe) configured(m *machine.Machine) {
	pr.end()
	pr.begin("layer", "strategy.lower")
	pr.eng = m.Eng
	m.Eng.SetProgress(1, pr.eventFn)
}

// firstEvent ends the lowering span and removes itself, so the event loop
// runs without a hook.
func (pr *probe) firstEvent(sim.Time, uint64) {
	pr.eng.SetProgress(0, nil)
	pr.end()
	pr.begin("layer", "strategy.loop")
}

func (pr *probe) endStrategy() {
	if pr == nil {
		return
	}
	pr.end() // the loop span, or the unfinished assembly/lowering span
}

// costModel wraps the serving cost model in a timer on traced passes.
func (pr *probe) costModel(sc *serve.StrategyCost, cache *memo.Cache) serve.CostModel {
	if pr == nil {
		return sc
	}
	return &timedCost{sc: sc, cache: cache, pr: pr}
}

// timedCost times every iteration-cost call and tells hits from misses by
// the shared cache's miss counter.
type timedCost struct {
	sc    *serve.StrategyCost
	cache *memo.Cache
	pr    *probe
}

func (t *timedCost) Prefill(tokens int) (sim.Time, error) { return t.price(true, tokens) }
func (t *timedCost) Decode(batch int) (sim.Time, error)   { return t.price(false, batch) }

func (t *timedCost) price(prefill bool, n int) (sim.Time, error) {
	misses := t.cache.Misses()
	start := t.pr.now()
	var (
		c   sim.Time
		err error
	)
	if prefill {
		c, err = t.sc.Prefill(n)
	} else {
		c, err = t.sc.Decode(n)
	}
	end := t.pr.now()
	t.pr.costTime += end - start
	if t.cache.Misses() == misses {
		t.pr.hits++
		t.pr.hitTime += end - start
	} else {
		t.pr.closed("memo", "cost.miss", start, end)
	}
	return c, err
}

// total sums the durations of the spans with the given name.
func (pr *probe) total(name string) time.Duration {
	var d time.Duration
	for _, s := range pr.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// layerTimes are the layer times a traced pass yields.
func (pr *probe) layerTimes() map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := map[string]float64{
		"strategy.assembly_ms": ms(pr.total("strategy.assembly")),
		"strategy.lower_ms":    ms(pr.total("strategy.lower")),
		"strategy.loop_ms":     ms(pr.total("strategy.loop")),
		"serve.sched_ms":       ms(pr.total("serve.Run") - pr.costTime),
		"serve.evaluate_ms":    ms(pr.total("serve.Evaluate")),
		"attrib.build_ms":      ms(pr.total("attrib.Build")),
		"memo.hit_ns":          0,
	}
	if pr.hits > 0 {
		out["memo.hit_ns"] = float64(pr.hitTime) / float64(pr.hits)
	}
	return out
}

// writeChromeTrace writes the spans as a Chrome trace-event file, which
// loads in ui.perfetto.dev. Each span's args name its parent.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: map[string]int{"id": i, "parent": s.parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
