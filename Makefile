GO ?= go

.PHONY: all build test check vet fmt lint lint-sarif race resilience-smoke parallel-smoke attrib-smoke serving-smoke clean

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

# lint-sarif: full run plus a SARIF 2.1.0 log for code-scanning UIs; CI
# uploads caislint.sarif as a workflow artifact.
lint-sarif:
	$(GO) run ./cmd/caislint -sarif caislint.sarif ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet lint test race resilience-smoke attrib-smoke serving-smoke

clean:
	$(GO) clean ./...
