GO ?= go

.PHONY: all build test check vet fmt lint race fuzz-smoke alloc-bench resilience-smoke parallel-smoke attrib-smoke serving-smoke clean

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# race: the simulator is single-goroutine by design, but the CLI spawns a
# pprof server goroutine and tests exercise concurrent snapshotting idioms
# — run the whole suite under the race detector to keep that honest.
race:
	$(GO) test -race ./...

# fuzz-smoke: 15 s of each input-validation fuzzer — the fault-schedule
# parser and the hardware, model and serving-workload validators.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=15s ./internal/faults/
	$(GO) test -run='^$$' -fuzz=FuzzHardwareValidate -fuzztime=15s ./internal/config/
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadValidate -fuzztime=15s ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzModelValidate -fuzztime=15s ./internal/model/

# alloc-bench: the disabled tracer's hot path, which must report
# 0 allocs/op.
alloc-bench:
	$(GO) test -run='^$$' -bench=BenchmarkDisabledHotPath -benchmem ./internal/trace/

# resilience-smoke: the fault-injection degradation study at reduced
# fidelity (DESIGN.md §8) — a fast end-to-end pass over every fault kind.
resilience-smoke: build
	$(GO) run ./cmd/caissim -experiment resilience -quick

# parallel-smoke: every experiment at reduced fidelity on a 4-worker sweep
# pool — exercises the parallel executor end to end.
parallel-smoke: build
	$(GO) run ./cmd/caissim -experiment all -quick -parallel 4

# attrib-smoke: the time-attribution engine end to end (DESIGN.md §12) —
# a quick fig17 sweep with the tick-exact JSON report written out; CI
# uploads the report as a non-gating artifact.
attrib-smoke: build
	$(GO) run ./cmd/caissim -experiment fig17 -quick -attrib-json attrib-report.json

# serving-smoke: the request-level serving study (DESIGN.md §13) at reduced
# fidelity on a 4-worker pool — continuous batching, SLO/goodput evaluation
# and the memoized cost anchors, end to end through the CLI.
serving-smoke: build
	$(GO) run ./cmd/caissim -experiment serving -quick -parallel 4

vet:
	$(GO) vet ./...

# lint: caislint, the project's determinism, unit-safety and
# cache-soundness analyzer (see DESIGN.md "Static analysis").
# `caislint -list` prints the check catalog.
lint:
	$(GO) run ./cmd/caislint ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# check: the pre-merge gate, the same step list CI runs.
check: fmt vet build lint test race fuzz-smoke alloc-bench resilience-smoke attrib-smoke serving-smoke parallel-smoke

clean:
	$(GO) clean ./...
