package main

import (
	"fmt"
	"sort"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/memo"
	"cais/internal/model"
	"cais/internal/serve"
	"cais/internal/sim"
	"cais/internal/strategy"
	"cais/internal/trace"
)

// A workload is a fixed list of simulation points that one caller runs in
// order, each after the previous one returns (a closed loop). newPass
// returns the points of one pass; state the points of a pass share, the
// serving memo cache, is made fresh for every pass so that every pass
// does the same work.
type workload struct {
	name    string
	sizes   map[string]int // workload sizes, recorded in the result file
	newPass func() []point
}

// A point is one simulation the benchmark times. run executes it whole,
// inside the timed section; the returned settle function runs outside it
// and derives the point's golden record, invariant check and layer counts.
type point struct {
	name string
	run  func(pr *probe) (settle func() outcome, err error)
}

// outcome is what a point left behind once settled.
type outcome struct {
	rec    record
	counts counts
	err    error // invariant violation
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"inswitch-sublayers", "ring-sublayers", "serving-trace", "faults-attrib"}

// newWorkload builds the named workload's inputs from the seed. It is the
// benchmark's set-up step, together with loading the golden record.
func newWorkload(name string, seed uint64) (*workload, error) {
	hw := config.DGXH100() // 8 KB requests: full fidelity
	hw.Seed = seed
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	subs := model.SubLayers(config.LLaMA7B())
	switch name {
	case "inswitch-sublayers":
		// CAIS-Base runs the backward sub-layers only: on L1 and L2 its
		// event count swings between 1.1M and 2.2M with the jitter seed,
		// which would make the workload's cost a function of the seed.
		return sublayerWorkload(name, hw,
			sublayerRun{strategy.CAIS(), subs}, sublayerRun{strategy.CAISBase(), subs[2:]}, sublayerRun{strategy.TPNVLS(), subs}), nil
	case "ring-sublayers":
		// LADM is left out: it alone costs more than the other four.
		return sublayerWorkload(name, hw,
			sublayerRun{strategy.T3(), subs}, sublayerRun{strategy.CoCoNet(), subs},
			sublayerRun{strategy.MegatronRing(), subs}, sublayerRun{strategy.FuseLib(), subs}), nil
	case "serving-trace":
		return servingWorkload(name, hw, seed)
	case "faults-attrib":
		return faultsWorkload(name, hw, subs[1], seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// sublayerRun is a strategy and the LLaMA-7B sub-layers it runs.
type sublayerRun struct {
	spec strategy.Spec
	subs []model.SubLayer
}

// sublayerWorkload runs sub-layers under strategies, one point each.
func sublayerWorkload(name string, hw config.Hardware, runs ...sublayerRun) *workload {
	var pts []point
	for _, r := range runs {
		for _, sub := range r.subs {
			pts = append(pts, strategyPoint(r.spec.Name+"/"+sub.ID, hw, r.spec, sub, strategy.Options{}, false))
		}
	}
	return &workload{
		name:    name,
		sizes:   map[string]int{"points": len(pts), "strategies": len(runs)},
		newPass: func() []point { return pts },
	}
}

// Serving-trace sizes: one open-loop trace per (rate, strategy) pair.
// servingMaxPrefill caps a prefill iteration at 2048 tokens, so the anchor
// shapes, and with them the simulations a pass runs, are the same at every
// seed; under the scheduler's default of 4096 some seeds add a 4096-token
// anchor that costs a third of the pass.
const (
	servingRequests   = 24000
	servingMaxPrefill = 2048
	servingSLO        = 750 * sim.Millisecond
)

var servingRates = []float64{10, 25, 50}

// servingWorkload serves a seeded request trace at three arrival rates
// under three strategies. The arrivals are simulated inputs, not load on
// the benchmark. All nine runs of a pass share one memo cache, so after a
// few anchor simulations nearly every iteration price is a cache hit.
func servingWorkload(name string, hw config.Hardware, seed uint64) (*workload, error) {
	specs := []strategy.Spec{strategy.CAIS(), strategy.TPNVLS(), strategy.T3()}
	base := config.LLaMA7B()
	var runs []serve.Workload
	for _, rate := range servingRates {
		w := serve.Workload{
			Requests: servingRequests, RatePerSec: rate, Seed: seed,
			Prompt: serve.Uniform(64, 512), Output: serve.Uniform(8, 32),
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		runs = append(runs, w)
	}
	newPass := func() []point {
		cache := memo.NewCache()
		var pts []point
		for _, w := range runs {
			for _, spec := range specs {
				pts = append(pts, servingPoint(fmt.Sprintf("%s/%grps", spec.Name, w.RatePerSec), hw, spec, base, w, cache))
			}
		}
		return pts
	}
	return &workload{
		name: name,
		sizes: map[string]int{
			"points": len(runs) * len(specs), "strategies": len(specs), "rates": len(runs),
			"requests_per_run": servingRequests, "max_prefill_tokens": servingMaxPrefill,
		},
		newPass: newPass,
	}, nil
}

// faultScenario is one fault schedule of the faults-attrib workload; a nil
// schedule is the healthy run.
type faultScenario struct {
	name  string
	spec  strategy.Spec
	opts  strategy.Options
	sched *faults.Schedule
}

// faultsWorkload runs the L2 sub-layer under CAIS and TP-NVLS with faults
// injected, each point recorded by its own trace.Tracer and attributed with
// attrib.Build. The CAIS points use the merge unit by bypass, eviction,
// timeout and reroute rather than by merging. TP-NVLS keeps only the
// scenarios that change its behaviour (merge-disable, for one, is a no-op
// without merge units).
func faultsWorkload(name string, hw config.Hardware, sub model.SubLayer, seed uint64) (*workload, error) {
	all := func(k faults.Kind, factor float64) *faults.Schedule {
		return &faults.Schedule{Faults: []faults.Fault{{Kind: k, Plane: faults.All, GPU: faults.All, Factor: factor}}}
	}
	// The plane fails mid-run, so that in-flight switch state is flushed
	// and re-registered rather than never created.
	planeDown := &faults.Schedule{Faults: []faults.Fault{{Kind: faults.PlaneDown, At: 100 * sim.Microsecond, Plane: 0, GPU: faults.All}}}
	straggler := &faults.Schedule{Faults: []faults.Fault{{Kind: faults.Straggler, Plane: faults.All, GPU: 0, Factor: 2}}}
	mix := faults.RandomSchedule(sim.NewStreamRNG(seed, "perfbench/faults"), "random-mix",
		hw.NumGPUs, hw.NumSwitchPlanes, faults.CampaignSpec{Faults: 3, MaxDeadPlanes: 1})
	cais, nvls := strategy.CAIS(), strategy.TPNVLS()
	scenarios := []faultScenario{
		{name: "healthy", spec: cais},
		{name: "link-degrade-0.5", spec: cais, sched: all(faults.LinkDegrade, 0.5)},
		{name: "plane-down", spec: cais, sched: planeDown},
		{name: "merge-disable", spec: cais, sched: all(faults.MergeDisable, 0)},
		{name: "merge-table-8KB", spec: cais, opts: strategy.Options{MergeTableBytes: 8 << 10}},
		{name: "random-mix", spec: cais, sched: mix},
		{name: "healthy", spec: nvls},
		{name: "plane-down", spec: nvls, sched: planeDown},
		{name: "straggler-2x", spec: nvls, sched: straggler},
	}
	var pts []point
	for _, sc := range scenarios {
		if sc.sched != nil {
			if err := sc.sched.Validate(hw.NumGPUs, hw.NumSwitchPlanes); err != nil {
				return nil, fmt.Errorf("%s: %w", sc.name, err)
			}
		}
		opts := sc.opts
		opts.Faults = sc.sched
		pts = append(pts, strategyPoint(sc.spec.Name+"/"+sub.ID+"/"+sc.name, hw, sc.spec, sub, opts, true))
	}
	return &workload{
		name:    name,
		sizes:   map[string]int{"points": len(pts), "random_mix_faults": len(mix.Faults)},
		newPass: func() []point { return pts },
	}, nil
}

// strategyPoint runs one sub-layer under a strategy. An attributed point
// records the run with its own trace.Tracer and builds the time
// attribution from it, both inside the timed section.
func strategyPoint(name string, hw config.Hardware, spec strategy.Spec, sub model.SubLayer, opts strategy.Options, attributed bool) point {
	return point{name: name, run: func(pr *probe) (func() outcome, error) {
		o := opts
		var tr *trace.Tracer
		if attributed {
			tr = trace.New()
			o.Tracer = tr
		}
		pr.beginStrategy(&o)
		res, err := strategy.RunSubLayer(hw, spec, sub, o)
		pr.endStrategy()
		if err != nil {
			return nil, err
		}
		var rep *attrib.Report
		if attributed {
			end := pr.span("attrib.Build")
			rep = attrib.Build(res.Machine, tr, res.Elapsed)
			end()
		}
		return func() outcome { return strategyOutcome(res, tr, rep) }, nil
	}}
}

// servingPoint serves one request trace with iteration prices from a
// strategy's anchor simulations, then evaluates it against the SLO.
func servingPoint(name string, hw config.Hardware, spec strategy.Spec, base config.Model, w serve.Workload, cache *memo.Cache) point {
	return point{name: name, run: func(pr *probe) (func() outcome, error) {
		lookups, hits := cache.Lookups(), cache.Hits()
		sc, err := serve.NewStrategyCost(hw, spec, base, 1, strategy.Options{}, cache)
		if err != nil {
			return nil, err
		}
		end := pr.span("serve.Run")
		res, err := serve.Run(w, pr.costModel(sc, cache), serve.SchedConfig{MaxPrefillTokens: servingMaxPrefill})
		end()
		if err != nil {
			return nil, err
		}
		end = pr.span("serve.Evaluate")
		sum := serve.Evaluate(res, serve.SLO{E2E: servingSLO})
		end()
		lookups, hits = cache.Lookups()-lookups, cache.Hits()-hits
		return func() outcome { return servingOutcome(w, res, sum, lookups, hits) }, nil
	}}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
