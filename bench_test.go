// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each iteration regenerates the experiment at
// reduced (Quick) fidelity and reports the headline quantity the paper's
// figure shows as a custom metric; the full-fidelity regeneration is
// `go run ./cmd/caissim -experiment all`.
package cais_test

import (
	"testing"

	"cais/internal/attrib"
	"cais/internal/experiments"
)

func benchConfig() experiments.Config { return experiments.Quick() }

func BenchmarkTable1Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig2Scaling(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Rows[len(r.Rows)-1].Ratio
	}
	b.ReportMetric(ratio, "comm/compute@maxGPUs")
}

func BenchmarkFig10AsymmetricTraffic(b *testing.B) {
	var imb float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		imb = r.Rows[len(r.Rows)-1].Imbalance
	}
	b.ReportMetric(imb, "CAIS-volume-imbalance")
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		geo = r.Geomean["TP-NVLS"]
	}
	b.ReportMetric(geo, "speedup-vs-TP-NVLS")
}

func BenchmarkFig12SubLayer(b *testing.B) {
	var geo float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		geo = r.Geomean["T3-NVLS"]
	}
	b.ReportMetric(geo, "speedup-vs-T3-NVLS")
}

func BenchmarkFig13MergeTable(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reduction = r.ReductionPct
	}
	b.ReportMetric(reduction, "table-size-reduction-%")
}

func BenchmarkFig13Coordination(b *testing.B) {
	var wait float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		wait = r.Rows[len(r.Rows)-1].SkewUS
	}
	b.ReportMetric(wait, "coordinated-wait-us")
}

func BenchmarkFig14TableSweep(b *testing.B) {
	var retention float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		retention = r.Rows[0].CAIS
	}
	b.ReportMetric(retention, "CAIS-perf@smallest-table")
}

func BenchmarkFig15Bandwidth(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		util = r.AvgCAIS
	}
	b.ReportMetric(util, "CAIS-bandwidth-util-%")
}

func BenchmarkFig16UtilOverTime(b *testing.B) {
	var bins float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig16(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		bins = float64(len(r.Series[len(r.Series)-1].Util))
	}
	b.ReportMetric(bins, "series-bins")
}

func BenchmarkFig17GPUScaling(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig17(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		tput = r.Rows[len(r.Rows)-1].CAIS
	}
	b.ReportMetric(tput, "per-GPU-throughput@maxGPUs")
}

// BenchmarkFig17Attributed is the same sweep with time attribution on:
// the delta against BenchmarkFig17GPUScaling is the all-in cost of
// tracing every point plus the offline interval sweep. The disabled path
// (the benchmark above) is the regression-guarded one; this one exists to
// keep the enabled-path cost visible in benchmark diffs.
func BenchmarkFig17Attributed(b *testing.B) {
	var points float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Attrib = attrib.NewAggregator()
		if _, err := experiments.Fig17(cfg); err != nil {
			b.Fatal(err)
		}
		points = float64(cfg.Attrib.Len())
	}
	b.ReportMetric(points, "attributed-points")
}

func BenchmarkFig18NVLSValidation(b *testing.B) {
	var errPct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig18(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		errPct = r.AvgErr
	}
	b.ReportMetric(errPct, "avg-validation-error-%")
}

func BenchmarkTable2ScaledDown(b *testing.B) {
	var full float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		full = r.Rows[0].Speedup
	}
	b.ReportMetric(full, "CAIS-speedup-full-scale")
}

// BenchmarkServingSweep regenerates the request-level serving study: the
// reported metric is CAIS goodput at the fault-study rate — the headline
// number the serving tables exist to produce.
func BenchmarkServingSweep(b *testing.B) {
	var goodput float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Serving(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.FaultRows {
			if row.Scenario == "healthy" && row.Strategy == "CAIS" {
				goodput = row.Sum.GoodputRPS
			}
		}
	}
	b.ReportMetric(goodput, "CAIS-goodput-rps")
}

func BenchmarkAblationEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationEviction(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSideband(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationSideband(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		slowdown = r.Rows[len(r.Rows)-1].SlowdownPct
	}
	b.ReportMetric(slowdown, "no-sideband-slowdown-%")
}

func BenchmarkAreaModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Area(); len(out) == 0 {
			b.Fatal("empty area output")
		}
	}
}
