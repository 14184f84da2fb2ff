package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strconv"
	"strings"

	"cais/internal/attrib"
	"cais/internal/nvswitch"
	"cais/internal/serve"
	"cais/internal/strategy"
	"cais/internal/trace"
)

// defaultSeed is the seed the golden record was made at. Other seeds check
// invariants only.
const defaultSeed = 1

// record is the simulated output of one point that the golden record
// pins. It holds simulated statistics only: host-side counters (sim.steps,
// pool.*, arena.*, memo.*, the tracer's length) are left out, so a change
// that only removes events or pooling still matches.
type record struct {
	ElapsedPS int64             `json:"elapsed_ps,omitempty"`
	Switch    *nvswitch.Summary `json:"switch,omitempty"`
	// Counters digests every gpu.*, machine.*, noc.*, nvswitch.* and
	// faults.* telemetry value of the run.
	Counters string `json:"counters,omitempty"`
	// Buckets totals each attribution bucket over all components.
	Buckets []int64        `json:"buckets_ps,omitempty"`
	Serve   *serve.Summary `json:"serve,omitempty"`
	// Requests digests every request's four lifecycle timestamps.
	Requests string `json:"requests,omitempty"`
}

// counts are the layer counts of one point, summed over a pass for the
// traced run's per-layer metrics.
type counts struct {
	events, tbs, requests, published         int64
	packets, wireBytes, maxQueue             int64
	merged, evictions, bypass, mergeRequests int64
	reroutes, timeoutFlushes, traceEvents    int64
	lookups, hits, iterations                int64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.tbs += o.tbs
	c.requests += o.requests
	c.published += o.published
	c.packets += o.packets
	c.wireBytes += o.wireBytes
	c.maxQueue = max(c.maxQueue, o.maxQueue)
	c.merged += o.merged
	c.evictions += o.evictions
	c.bypass += o.bypass
	c.mergeRequests += o.mergeRequests
	c.reroutes += o.reroutes
	c.timeoutFlushes += o.timeoutFlushes
	c.traceEvents += o.traceEvents
	c.lookups += o.lookups
	c.hits += o.hits
	c.iterations += o.iterations
}

// simulatedPrefixes are the telemetry families the golden record pins.
var simulatedPrefixes = []string{"gpu.", "machine.", "noc.", "nvswitch.", "faults."}

func strategyOutcome(res strategy.Result, tr *trace.Tracer, rep *attrib.Report) outcome {
	m := res.Machine
	stats := res.Stats
	rec := record{ElapsedPS: int64(res.Elapsed), Switch: &stats}

	h := fnv.New64a()
	n := 0
	for _, mt := range res.Telemetry.Metrics {
		for _, p := range simulatedPrefixes {
			if strings.HasPrefix(mt.Name, p) {
				fmt.Fprintf(h, "%s=%s/%d/%s;", mt.Name, strconv.FormatFloat(mt.Value, 'g', -1, 64),
					mt.Count, strconv.FormatFloat(mt.Sum, 'g', -1, 64))
				n++
				break
			}
		}
	}
	rec.Counters = fmt.Sprintf("%d:%016x", n, h.Sum64())

	c := counts{
		events:         int64(m.Eng.Steps()),
		tbs:            int64(res.Telemetry.Value("gpu.tbs_run")),
		requests:       int64(res.Telemetry.Value("gpu.requests_sent")),
		published:      int64(res.Telemetry.Value("machine.published_tiles")),
		wireBytes:      int64(res.Telemetry.Value("noc.up.wire_bytes") + res.Telemetry.Value("noc.down.wire_bytes")),
		merged:         stats.MergedLoads + stats.MergedReds,
		evictions:      stats.Evictions,
		bypass:         stats.BypassLoads + stats.BypassReds,
		mergeRequests:  stats.MergedLoads + stats.LoadFetches + stats.BypassLoads + stats.MergedReds + stats.BypassReds,
		reroutes:       m.Reroutes(),
		timeoutFlushes: stats.TimeoutEvictions + stats.NvlsTimeoutFlushes,
		traceEvents:    int64(tr.Len()),
	}
	for _, l := range m.Links() {
		c.packets += l.Packets()
		c.maxQueue = max(c.maxQueue, int64(l.MaxQueueDepth()))
	}

	err := m.CheckQuiescent()
	if err == nil && res.Elapsed <= 0 {
		err = fmt.Errorf("elapsed %v, want > 0", res.Elapsed)
	}
	if rep != nil {
		rec.Buckets = make([]int64, attrib.NumBuckets)
		for _, comp := range rep.Components {
			for b, t := range comp.Buckets {
				rec.Buckets[b] += int64(t)
			}
			if err == nil && (comp.Total() != res.Elapsed || rep.Elapsed != res.Elapsed) {
				err = fmt.Errorf("attribution of %s sums to %v, elapsed %v", comp.Name, comp.Total(), res.Elapsed)
			}
		}
	}
	return outcome{rec: rec, counts: c, err: err}
}

func servingOutcome(w serve.Workload, res serve.Result, sum serve.Summary, lookups, hits int64) outcome {
	h := fnv.New64a()
	var err error
	if len(res.Requests) != w.Requests {
		err = fmt.Errorf("%d requests served, want %d", len(res.Requests), w.Requests)
	}
	for _, r := range res.Requests {
		fmt.Fprintf(h, "%d,%d,%d,%d;", r.Arrival, r.Admitted, r.FirstToken, r.Done)
		if err == nil && !(r.Arrival <= r.Admitted && r.Admitted <= r.FirstToken && r.FirstToken <= r.Done && r.Done > 0) {
			err = fmt.Errorf("request %d out of order: arrival %v admitted %v first token %v done %v",
				r.ID, r.Arrival, r.Admitted, r.FirstToken, r.Done)
		}
	}
	return outcome{
		rec:    record{Serve: &sum, Requests: fmt.Sprintf("%d:%016x", len(res.Requests), h.Sum64())},
		counts: counts{lookups: lookups, hits: hits, iterations: int64(res.Iterations)},
		err:    err,
	}
}

// golden is the committed record of every point's simulated output at
// defaultSeed, keyed by workload and point name.
type golden struct {
	Seed   uint64            `json:"seed"`
	Points map[string]record `json:"points"`
}

func loadGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// check compares a point's record with the golden one.
func (g *golden) check(key string, rec record) error {
	want, ok := g.Points[key]
	if !ok {
		return fmt.Errorf("no golden record for %s", key)
	}
	if !reflect.DeepEqual(want, rec) {
		w, _ := json.Marshal(want)
		r, _ := json.Marshal(rec)
		return fmt.Errorf("simulated output differs from the golden record\n  want %s\n  have %s", w, r)
	}
	return nil
}

// save writes the golden record one point per line, so that a re-bless
// shows as a readable diff.
func (g *golden) save(path string) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"seed\": %d, \"points\": {\n", g.Seed)
	keys := sortedKeys(g.Points)
	for i, k := range keys {
		line, err := json.Marshal(g.Points[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: %s%s\n", k, line, sep)
	}
	buf.WriteString("}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
