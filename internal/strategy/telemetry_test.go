package strategy

import (
	"bytes"
	"encoding/json"
	"testing"

	"cais/internal/trace"
)

// TestTracingDoesNotPerturbSimulation: attaching a tracer must be a pure
// observer — elapsed time and every switch statistic must be identical to
// the untraced run (bit-reproducibility is a stated engine invariant).
func TestTracingDoesNotPerturbSimulation(t *testing.T) {
	hw := tinyHW()
	m := tinyModel()

	base, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	traced, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	if base.Elapsed != traced.Elapsed {
		t.Fatalf("tracing changed elapsed time: %v vs %v", base.Elapsed, traced.Elapsed)
	}
	if base.Stats != traced.Stats {
		t.Fatalf("tracing changed stats:\nbase:   %+v\ntraced: %+v", base.Stats, traced.Stats)
	}
	if base.AvgUtil != traced.AvgUtil {
		t.Fatalf("tracing changed utilization: %v vs %v", base.AvgUtil, traced.AvgUtil)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}

	// The trace must serialize as valid Chrome trace-event JSON with spans
	// from the GPU, switch, and interconnect subsystems.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat]++
	}
	for _, want := range []string{"gpu.tb", "gpu.sync", "nvswitch.merge", "noc.link", "kernel"} {
		if cats[want] == 0 {
			t.Errorf("no %q events in trace (got %v)", want, cats)
		}
	}
}

// TestTelemetrySnapshotInResult: every run must carry a machine-readable
// metric snapshot with the core cross-subsystem gauges populated.
func TestTelemetrySnapshotInResult(t *testing.T) {
	res, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap.Len() < 20 {
		t.Fatalf("telemetry has %d metrics, want >= 20", snap.Len())
	}
	for _, name := range []string{
		"sim.steps", "sim.now_us", "gpu.tbs_run", "machine.kernels_launched",
		"noc.up.wire_bytes", "nvswitch.plane0.merged_loads",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if v := snap.Value("gpu.tbs_run"); v <= 0 {
		t.Errorf("gpu.tbs_run = %v, want > 0", v)
	}
	if v := snap.Value("sim.steps"); v <= 0 {
		t.Errorf("sim.steps = %v, want > 0", v)
	}
}

// TestTelemetryQueueGauges: the engine's queue gauges reach the snapshot.
// Every event is executed by the end of the run, so lane_events and
// heap_events split sim.steps.
func TestTelemetryQueueGauges(t *testing.T) {
	res, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	steps := snap.Value("sim.steps")
	if v := snap.Value("sim.queue_high_water"); v < 1 || v > steps {
		t.Errorf("sim.queue_high_water = %v, want in [1, %v]", v, steps)
	}
	lanes, heap := snap.Value("sim.lane_events"), snap.Value("sim.heap_events")
	if lanes <= 0 || heap <= 0 || lanes+heap != steps {
		t.Errorf("sim.lane_events %v + sim.heap_events %v, want both > 0 and summing to sim.steps %v",
			lanes, heap, steps)
	}
}
