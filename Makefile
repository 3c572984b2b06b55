GO ?= go

.PHONY: all build test race vet fmt lint lint-fix fuzz ci bench-module exp quick litmus-quick

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt fails if any file needs reformatting (CI mode); run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs awglint, the repo's domain analyzer suite (the eleven analyzers
# registered in cmd/awglint): simdeterminism, hotpathalloc, hotpathmap,
# snapcover, fpcover, replaypure, waiterhome, ctorerr, schedpast, plus
# reduced nilness and shadow checks. Suppress a justified finding with
# `//lint:allow <analyzer> <reason>` on (or above) the offending line.
lint:
	$(GO) run ./cmd/awglint ./...

# lint-fix applies the mechanical SuggestedFixes (e.g. After(0) -> After(1),
# replaypure's `if !m.replaying { ... }` gate) in place, then re-reports
# anything that remains.
lint-fix:
	$(GO) run ./cmd/awglint -fix ./...

# fuzz runs short native-fuzzing smokes: random fault schedules through a
# small oversubscribed sim with the IFP invariant enforced on every outcome,
# random schedule/run interleavings through the event-engine calendar
# checked against a reference heap oracle, random condition-cache op
# streams diffed against a map-based oracle of the slab condition store,
# fuzzed snapshot/restore cuts that must replay bit-identically, the
# litmus shrinker driven against abstract progress-model oracles, and
# random IR programs (shared words only see commuting adds, so the result
# is interleaving-independent) run on the machine with every addressable
# word checked against an untimed sequential reference interpreter.
fuzz:
	$(GO) test ./internal/fault -fuzz FuzzSchedule -fuzztime 5s -run '^$$'
	$(GO) test ./internal/event -fuzz FuzzCalendar -fuzztime 5s -run '^$$'
	$(GO) test ./internal/syncmon -fuzz FuzzCondStore -fuzztime 5s -run '^$$'
	$(GO) test ./internal/sim -fuzz FuzzSnapshotRestore -fuzztime 5s -run '^$$'
	$(GO) test ./internal/fleet -fuzz FuzzFleetEvents -fuzztime 5s -run '^$$'
	$(GO) test ./internal/litmus -fuzz FuzzLitmusShrink -fuzztime 5s -run '^$$'
	$(GO) test ./internal/gpu -fuzz FuzzProgIR -fuzztime 5s -run '^$$'

# golden runs the quick experiment suite once and checks its deterministic
# outputs (simulated cycles, run counts, rendered-table hashes) against the
# committed golden record. After an intentional model change:
# `go run ./cmd/awgexp -quick -golden GOLDEN_quick.json -update-golden`.
golden:
	$(GO) run ./cmd/awgexp -quick -golden GOLDEN_quick.json > /dev/null

# litmus-quick regenerates the quick litmus conformance sweep and checks
# it against its own golden record (the sweep also runs inside the main
# golden target; this gate pins the matrix and worked examples standalone
# so a conformance drift is reported by name). After an intentional
# change: `go run ./cmd/awgexp -quick -exp litmus -golden
# GOLDEN_litmus.json -update-golden`.
litmus-quick:
	$(GO) run ./cmd/awgexp -quick -exp litmus -golden GOLDEN_litmus.json > /dev/null

# ci is the full gate: formatting, static checks (go vet plus the awglint
# domain analyzers), the race-instrumented test suite (which exercises the
# parallel experiment pool), the fuzz smokes, the golden-record drift
# checks (suite-wide and the standalone litmus conformance gate), and the
# benchmark module's own vet and tests. Performance is measured by
# cmd/awgbench (`bash cmd/awgbench/run.sh`), not gated here.
ci: fmt vet lint race fuzz golden litmus-quick bench-module

# bench-module vets and tests cmd/awgbench. It is a separate Go module, so
# `go test ./...` at the root never builds it; this catches a change to a
# public API it calls (gpu.ExecStats, sim.*, litmus.*).
bench-module:
	cd cmd/awgbench && $(GO) vet ./... && $(GO) test ./...

# exp/quick print the full and reduced-scale experiment suites.
exp:
	$(GO) run ./cmd/awgexp

quick:
	$(GO) run ./cmd/awgexp -quick
