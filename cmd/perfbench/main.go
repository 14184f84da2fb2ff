// Command perfbench is the CAIS simulator's benchmark. It measures host
// cost, the time and memory the simulator takes, on four workloads that
// stress different layers of the stack, and checks each point's simulated
// output against a golden record. Simulated time is checked, never scored;
// the model is unvalidated against hardware, so no accuracy error is given.
//
// Usage, from the repository root:
//
//	bash cmd/perfbench/run.sh --workload inswitch-sublayers --seed 1 --seconds 25 --trace 0
//	bash cmd/perfbench/run.sh --workload serving-trace --seed 1 --seconds 25 --trace 1
//	bash cmd/perfbench/run.sh --compare DIR_A DIR_B
//	bash cmd/perfbench/run.sh --bless
//
// With --trace 0 a run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a separate traced run. The last line of
// standard output is the result as one JSON object. README.md lists the
// workloads, the metrics and what each metric is predicted to move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// processStart is the origin of the traced run's span clock.
var processStart = time.Now()

// setupReps is how many times a run sets its workload up; setup_s is the
// median, in reference seconds.
const setupReps = 15

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.events_per_tb", "events/tb"}, {"sim.ns_per_event", "ns"},
		{"noc.packets", "count"}, {"noc.wire_bytes", "bytes"}, {"noc.max_queue", "count"},
		{"nvswitch.merged", "count"}, {"nvswitch.evictions", "count"}, {"nvswitch.bypass", "count"},
		{"nvswitch.merge_ratio", "ratio"},
		{"gpu.tbs", "count"}, {"gpu.requests", "count"}, {"machine.published_tiles", "count"},
		{"strategy.assembly_ms", "ms"}, {"strategy.lower_ms", "ms"}, {"strategy.loop_ms", "ms"},
		{"memo.lookups", "count"}, {"memo.hit_ratio", "ratio"}, {"memo.hit_ns", "ns"},
		{"serve.iterations", "count"}, {"serve.sched_ms", "ms"}, {"serve.evaluate_ms", "ms"},
		{"faults.reroutes", "count"}, {"faults.timeout_flushes", "count"}, {"trace.events", "count"},
		{"attrib.build_ms", "ms"},
		{"runtime.alloc_mb", "MB"}, {"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_share", "ratio"},
	}
	for _, g := range shareGroups {
		defs = append(defs, metricDef{shareMetric(g), "ratio"})
	}
	return append(defs, metricDef{"profile.samples", "count"}, metricDef{"bench.trace_overhead", "ratio"})
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name       = flag.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
		seed       = flag.Uint64("seed", defaultSeed, "seed the workload's inputs are made from")
		seconds    = flag.Int("seconds", 25, "how long one run measures, in seconds")
		traceMode  = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		outDir     = flag.String("out", ".bench_build/results", "directory the result files are written to")
		goldenPath = flag.String("golden", "cmd/perfbench/golden.json", "golden record of the simulated output")
		bless      = flag.Bool("bless", false, "run every workload once and rewrite the golden record")
		compare    = flag.Bool("compare", false, "compare the result files of two directories given as arguments")
	)
	flag.Parse()
	switch {
	case *compare:
		return compareMain("BENCHMARK.json", flag.Args())
	case *bless:
		return blessMain(*goldenPath, *seed)
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, have %d\n", *traceMode)
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be at least 1, have %d\n", *seconds)
		return 2
	}

	var (
		w     *workload
		g     *golden
		err   error
		setup samples
	)
	referenceSeconds() // warm up: the first call also faults its memory in
	ref := referenceSeconds()
	for i := 0; i < setupReps; i++ {
		cpu0, start := cpuSeconds(), time.Now()
		if w, err = newWorkload(*name, *seed); err == nil {
			g, err = loadGolden(*goldenPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
			return 2
		}
		raw, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
		after := referenceSeconds()
		setup.add(raw, cpu, ref, after)
		ref = after
	}

	r := runner{w: w, g: g, seed: *seed, traced: *traceMode == 1}
	r.measure(time.Duration(*seconds) * time.Second)

	res := result{
		Workload:   w.name,
		Seed:       *seed,
		Trace:      *traceMode,
		Provenance: provenance(w, *seed),
		Passes:     r.passes,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Setup:      setup,
		Points:     r.points,
	}
	if r.traced {
		res.Metrics = r.layerMetrics()
	} else {
		res.Metrics = r.endToEndMetrics(median(setup.scaledWall()))
	}
	if err := writeResult(*outDir, &res, r.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	printResult(&res, r.traced)
	return 0
}

// runner holds one run's measurements.
type runner struct {
	w      *workload
	g      *golden
	seed   uint64
	traced bool

	passes, attempted, failed int
	points                    []samples // timed run: per-point samples

	// Traced run only.
	tracedWall, plainWall []float64
	layerTimes            []map[string]float64
	counts                counts
	groups                map[string]int64
	rt                    runtimeDelta
	spans                 []span
}

// samples are one measured interval's repeats: raw wall and CPU seconds,
// and the mean reference-kernel time around each.
type samples struct {
	Name  string    `json:"name,omitempty"`
	WallS []float64 `json:"wall_s"`
	CPUS  []float64 `json:"cpu_s"`
	RefS  []float64 `json:"ref_s"`
}

func (s *samples) add(wall, cpu, refBefore, refAfter float64) {
	s.WallS = append(s.WallS, wall)
	s.CPUS = append(s.CPUS, cpu)
	s.RefS = append(s.RefS, (refBefore+refAfter)/2)
}

func (s *samples) scaledWall() []float64 { return s.scale(s.WallS) }
func (s *samples) scaledCPU() []float64  { return s.scale(s.CPUS) }

func (s *samples) scale(raw []float64) []float64 {
	out := make([]float64, len(raw))
	for i, x := range raw {
		out[i] = scaled(x, s.RefS[i])
	}
	return out
}

// measure runs passes over the workload's points until the next pass
// would end past the budget, with at least two passes. A timed run keeps
// every point's wall and CPU time; a traced run alternates plain passes
// with traced ones, which record spans and a CPU profile.
func (r *runner) measure(budget time.Duration) {
	r.groups = map[string]int64{}
	start := time.Now()
	for {
		passStart := time.Now()
		if r.traced && r.passes%2 == 1 {
			pr := newProbe(processStart)
			pr.begin("workload", r.w.name)
			r.counts = r.pass(pr)
			pr.end()
			r.layerTimes = append(r.layerTimes, pr.layerTimes())
			r.spans = append(r.spans, pr.spans...)
		} else {
			r.pass(nil)
		}
		r.passes++
		last := time.Since(passStart)
		if r.passes >= 2 && time.Since(start)+last > budget {
			return
		}
	}
}

// pass runs every point once, timing each, then settles and checks it
// outside the timed section. It returns the pass's layer counts.
//
// Each point starts from a collected heap, as in go test -bench, so that
// it does not pay for the garbage its predecessor left; the collection and
// the reference kernel run outside the timed section.
func (r *runner) pass(pr *probe) counts {
	var c counts
	var wallSum float64
	ref := r.settleMachine()
	for i, pt := range r.w.newPass() {
		settle, wall, cpu, err := r.timePoint(pt, pr)
		wallSum += wall
		r.attempted++
		if err == nil {
			o := settle()
			c.add(o.counts)
			err = o.err
			if err == nil && r.g != nil && r.seed == r.g.Seed {
				err = r.g.check(r.w.name+"/"+pt.name, o.rec)
			}
		}
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", r.w.name, pt.name, err)
		}

		after := r.settleMachine()
		if !r.traced {
			if i == len(r.points) {
				r.points = append(r.points, samples{Name: pt.name})
			}
			r.points[i].add(wall, cpu, ref, after)
		}
		ref = after
	}
	switch {
	case pr != nil:
		r.tracedWall = append(r.tracedWall, wallSum)
	case r.traced:
		r.plainWall = append(r.plainWall, wallSum)
	}
	return c
}

// timePoint runs one point, measuring its wall and CPU time and, in a
// traced run, its CPU profile (traced pass) or runtime counters (plain
// pass).
func (r *runner) timePoint(pt point, pr *probe) (settle func() outcome, wall, cpu float64, err error) {
	var (
		prof bytes.Buffer
		rt   runtimeDelta
	)
	switch {
	case pr != nil:
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
		}
	case r.traced:
		rt = readRuntime()
	}
	pr.begin("point", pt.name)
	cpu0, t0 := cpuSeconds(), time.Now()
	settle, err = pt.run(pr)
	wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	pr.end()
	switch {
	case pr != nil:
		pprof.StopCPUProfile()
		if err := foldProfile(prof.Bytes(), r.groups); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	case r.traced:
		r.rt.add(readRuntime().sub(rt))
	}
	return settle, wall, cpu, err
}

// settleMachine collects the heap and, in a timed run, times the reference
// kernel.
func (r *runner) settleMachine() float64 {
	runtime.GC()
	if r.traced {
		return 0
	}
	return referenceSeconds()
}

// endToEndMetrics estimates one pass from the per-point medians of the
// scaled times, which keeps a noise burst during one pass out of the
// result.
func (r *runner) endToEndMetrics(setup float64) map[string]float64 {
	var wall, cpu float64
	for _, p := range r.points {
		wall += median(p.scaledWall())
		cpu += median(p.scaledCPU())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: getrusage: %v\n", err)
	}
	return map[string]float64{
		"wall_s":      wall,
		"cpu_s":       cpu,
		"setup_s":     setup,
		"peak_rss_mb": float64(ru.Maxrss) / 1024, // Maxrss is in KiB on Linux
	}
}

// layerMetrics derives the per-layer metrics of a traced run: counts from
// the last traced pass, layer times as medians over the traced passes,
// CPU shares from their profiles and runtime counts from the plain passes,
// all over the points' own execution.
func (r *runner) layerMetrics() map[string]float64 {
	c := r.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{
		"sim.events":              float64(c.events),
		"sim.events_per_tb":       ratio(float64(c.events), float64(c.tbs)),
		"noc.packets":             float64(c.packets),
		"noc.wire_bytes":          float64(c.wireBytes),
		"noc.max_queue":           float64(c.maxQueue),
		"nvswitch.merged":         float64(c.merged),
		"nvswitch.evictions":      float64(c.evictions),
		"nvswitch.bypass":         float64(c.bypass),
		"nvswitch.merge_ratio":    ratio(float64(c.merged), float64(c.mergeRequests)),
		"gpu.tbs":                 float64(c.tbs),
		"gpu.requests":            float64(c.requests),
		"machine.published_tiles": float64(c.published),
		"memo.lookups":            float64(c.lookups),
		"memo.hit_ratio":          ratio(float64(c.hits), float64(c.lookups)),
		"serve.iterations":        float64(c.iterations),
		"faults.reroutes":         float64(c.reroutes),
		"faults.timeout_flushes":  float64(c.timeoutFlushes),
		"trace.events":            float64(c.traceEvents),
		"bench.trace_overhead":    ratio(median(r.tracedWall), median(r.plainWall)),
	}
	for _, k := range sortedKeys(r.layerTimes[0]) {
		var vals []float64
		for _, st := range r.layerTimes {
			vals = append(vals, st[k])
		}
		m[k] = median(vals)
	}
	m["sim.ns_per_event"] = ratio(m["strategy.loop_ms"]*1e6, float64(c.events))

	plain := float64(len(r.plainWall))
	m["runtime.alloc_mb"] = r.rt.allocBytes / plain / (1 << 20)
	m["runtime.mallocs"] = r.rt.mallocs / plain
	m["runtime.gc_cycles"] = r.rt.gcCycles / plain
	m["runtime.gc_cpu_share"] = ratio(r.rt.gcCPU, r.rt.usedCPU)

	var samples int64
	for _, n := range r.groups {
		samples += n
	}
	for _, grp := range shareGroups {
		m[shareMetric(grp)] = ratio(float64(r.groups[grp]), float64(samples))
	}
	m["profile.samples"] = float64(samples)
	return m
}

// runtimeDelta accumulates runtime/metrics counters over plain passes.
type runtimeDelta struct {
	allocBytes, mallocs, gcCycles, gcCPU, usedCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		default:
			return 0
		}
	}
	return runtimeDelta{allocBytes: v(0), mallocs: v(1), gcCycles: v(2), gcCPU: v(3), usedCPU: v(4) - v(5)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.usedCPU - b.usedCPU}
}

func (a *runtimeDelta) add(b runtimeDelta) {
	a.allocBytes += b.allocBytes
	a.mallocs += b.mallocs
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.usedCPU += b.usedCPU
}

// cpuSeconds is the process's user plus system CPU time, all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is one run's record, written to the result file; its last-line
// summary goes to standard output.
type result struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Provenance map[string]any     `json:"provenance"`
	Passes     int                `json:"passes"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Setup      samples            `json:"setup"`
	Points     []samples          `json:"points,omitempty"`
}

// provenance records where a result came from.
func provenance(w *workload, seed uint64) map[string]any {
	p := map[string]any{
		"vcs.revision": "unknown",
		"go":           runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"seed":         seed,
		"sizes":        w.sizes,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				p[s.Key] = s.Value
			}
		}
	}
	return p
}

func writeResult(dir string, res *result, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", res.Workload, res.Seed, res.Trace))
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if len(spans) > 0 {
		return writeChromeTrace(base+".spans.json", spans)
	}
	return nil
}

// printResult prints every metric by name and unit, then the summary line.
func printResult(res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	fmt.Printf("perfbench %s seed=%d trace=%d passes=%d sizes=%v go=%v gomaxprocs=%v nproc=%v rev=%v\n",
		res.Workload, res.Seed, res.Trace, res.Passes, res.Provenance["sizes"], res.Provenance["go"],
		res.Provenance["gomaxprocs"], res.Provenance["nproc"], res.Provenance["vcs.revision"])
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	var shares float64
	for _, d := range defs {
		v := res.Metrics[d.name]
		fmt.Printf("  %-24s %14.6g %s\n", d.name, v, d.unit)
		out[d.name] = value{v, d.unit}
	}
	if traced {
		for _, g := range shareGroups {
			shares += res.Metrics[shareMetric(g)]
		}
		fmt.Printf("  cpu shares sum to %.4f; tracing overhead: traced points take %.3fx the untraced median\n",
			shares, res.Metrics["bench.trace_overhead"])
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, out})
	fmt.Println(string(line))
}

// blessMain runs one pass of every workload and rewrites the golden
// record. It refuses if any point fails or breaks an invariant.
func blessMain(path string, seed uint64) int {
	g := &golden{Seed: seed, Points: map[string]record{}}
	for _, name := range workloadNames {
		w, err := newWorkload(name, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		for _, pt := range w.newPass() {
			settle, err := pt.run(nil)
			if err == nil {
				o := settle()
				g.Points[name+"/"+pt.name] = o.rec
				err = o.err
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s/%s: %v\n", name, pt.name, err)
				return 1
			}
		}
	}
	if err := g.save(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("perfbench: blessed %d points at seed %d into %s\n", len(g.Points), seed, path)
	return 0
}
