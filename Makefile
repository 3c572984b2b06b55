GO ?= go

.PHONY: all build test race vet fmt lint lint-fix fuzz ci bench-module exp quick golden golden-full

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

# lint runs awglint, the repo's domain analyzer suite; for the registered
# analyzers, see `go run ./cmd/awglint -h`. Suppress a justified finding
# with `//lint:allow <analyzer> <reason>` on (or above) the offending line.
lint:
	$(GO) run ./cmd/awglint ./...

# lint-fix applies the mechanical SuggestedFixes in place (the remaining one
# is schedpast's AfterTask(0) -> AfterTask(1)), then re-reports anything that
# remains.
lint-fix:
	$(GO) run ./cmd/awglint -fix ./...

# fuzz runs short native-fuzzing smokes: random fault schedules through a
# small oversubscribed sim with the IFP invariant enforced on every outcome,
# random schedule/run interleavings through the event-engine calendar
# checked against a reference heap oracle, random condition-cache op
# streams diffed against a map-based oracle of the slab condition store,
# runs sliced at a fuzzed cycle that must equal the unsliced run (the step
# every fleet rewind relies on), the litmus shrinker driven against
# abstract progress-model oracles,
# random IR programs (shared words only see commuting adds, so the result
# is interleaving-independent) run on the machine with every addressable
# word checked against an untimed sequential reference interpreter,
# random wait begin/met/write-atomic streams through the Table 2
# characterization diffed against its slice-based reference, and random
# litmus pattern names through the one-pass decoder diffed against a
# split-based reference decoder.
fuzz:
	$(GO) test ./internal/fault -fuzz FuzzSchedule -fuzztime 5s -run '^$$'
	$(GO) test ./internal/event -fuzz FuzzCalendar -fuzztime 5s -run '^$$'
	$(GO) test ./internal/syncmon -fuzz FuzzCondStore -fuzztime 5s -run '^$$'
	$(GO) test ./internal/sim -fuzz FuzzSlicedRun -fuzztime 5s -run '^$$'
	$(GO) test ./internal/fleet -fuzz FuzzFleetEvents -fuzztime 5s -run '^$$'
	$(GO) test ./internal/litmus -fuzz FuzzLitmusShrink -fuzztime 5s -run '^$$'
	$(GO) test ./internal/gpu -fuzz FuzzProgIR -fuzztime 5s -run '^$$'
	$(GO) test ./internal/gpu -fuzz FuzzCharacterization -fuzztime 5s -run '^$$'
	$(GO) test ./internal/kernels -fuzz FuzzDecodeLitmus -fuzztime 5s -run '^$$'

# golden and golden-full run the experiment suite at the quick and full
# scale and diff its output against the committed text record. -F '^== '
# heads each hunk with the title of the table above it; one line of
# context (-U1) keeps a change in a table's first rows from pulling that
# title into the hunk, where -F would pass over it. The full scale takes
# about 14.5–16.5 s of wall time on two cores. awgexp writes to a temp file
# first so that its own failure fails the target (/bin/sh may lack
# pipefail).
# After an intentional model change, regenerate a record with
# `go run ./cmd/awgexp [-quick] > awgexp_<scale>.txt`.
golden:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/awgexp -quick > "$$out" && diff -U1 -F '^== ' awgexp_quick.txt "$$out"

golden-full:
	@out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/awgexp > "$$out" && diff -U1 -F '^== ' awgexp_full.txt "$$out"

# ci is the full gate: formatting, static checks (go vet plus the awglint
# domain analyzers), the race-instrumented test suite (which exercises the
# parallel experiment pool), the fuzz smokes, the golden-record diffs at
# both scales, and the benchmark module's own vet and tests.
# Performance is measured by cmd/awgbench (`bash cmd/awgbench/run.sh`),
# not gated here.
ci: fmt vet lint race fuzz golden golden-full bench-module

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
