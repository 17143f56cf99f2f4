GO ?= go

.PHONY: all build vet fmt-check lint test test-fast bench bench-check bench-valid fuzz clean-testcache serve-demo examples

all: test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet plus hennlint, the repo's six invariant
# analyzers (polypool, cryptorand, ctcompare, wiremagic, levelbudget,
# errsink). See internal/lint and
# `go run ./cmd/hennlint -list`.
lint: vet
	$(GO) run ./cmd/hennlint ./...

fmt-check:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Clear the cache before the suite (lattigo idiom) so the race detector
# really re-runs every package, then gofmt gate + vet + full race suite.
# The suite includes the serving lifecycle e2e: the restart round trip
# (TestRestartRoundTrip) and the v1→v2 supersede under live traffic
# (TestSupersedeDrainEndToEnd), both in internal/server, run under -race.
test: clean-testcache fmt-check vet
	$(GO) test -race ./...

# Fast iteration loop: cached, no race detector.
test-fast:
	$(GO) test ./...

clean-testcache:
	$(GO) clean -testcache

# The root bench_test.go: Coefficient Tuning (Fig. 7), one training pipeline
# per Table 3 row, the plaintext PAF and one fine-tuning step. The paper's
# tables are golden files under `go test`, not benchmarks.
bench:
	$(GO) test -bench . -benchmem -run XXX .

# bench/ (hennbench, the repo's benchmark) is its own module, so the root
# `go vet`/`go test ./...` never compile it: check it against this tree
# whenever the client/server or marshal API it drives changes.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# hennbench refuses a run whose workload no longer stresses the layer it
# names (rotation share on linear_heavy, PAF share on paf_heavy, ≥ 0.60 of
# unit time) — but only at its own ring degree, which bench-check's smoke
# test does not use. A substrate change shifts those shares, so run both
# gates for real: one set-up, a 3 s window, the default warm-up (a shorter
# one leaves only cold-cache units in the trace ring, which fail the gate
# on any commit).
bench-valid:
	bash bench/run.sh --workload linear_heavy --seconds 3 --setups 1
	bash bench/run.sh --workload paf_heavy --seconds 3 --setups 1

# End-to-end remote encrypted inference: spins up an in-process hennserve on
# a loopback port, registers a session over HTTP, classifies encrypted
# inputs and checks them against the plaintext reference.
serve-demo:
	$(GO) run ./examples/remote_mlp

# Run every example main to the end (remote_mlp against its in-process
# server) and fail on the first non-zero exit: an example that compiles can
# still fail after minutes of training, and only running it shows that.
# About 60 s on 2 cores once built.
examples:
	@set -e; for d in examples/*/; do echo "== $${d%/}"; $(GO) run ./$${d%/}; done

# Short fuzz pass over the modular-arithmetic primitives and the wire
# decoders an endpoint exposes (one target per invocation is a `go test`
# restriction). The evaluation-key and registration-frame seeds are tens to
# hundreds of kilobytes, so their minimizers are capped or they would eat
# the whole pass.
fuzz:
	$(GO) test -run XXX -fuzz FuzzAddSubMod -fuzztime 10s ./internal/ring/
	$(GO) test -run XXX -fuzz FuzzMulModShoup -fuzztime 10s ./internal/ring/
	$(GO) test -run XXX -fuzz FuzzPowMod -fuzztime 10s ./internal/ring/
	$(GO) test -run XXX -fuzz FuzzAcc128 -fuzztime 10s ./internal/ring/
	$(GO) test -run XXX -fuzz FuzzCiphertextUnmarshal -fuzztime 10s ./internal/ckks/
	$(GO) test -run XXX -fuzz FuzzEvaluationKeysUnmarshal -fuzztime 10s -fuzzminimizetime 2s ./internal/ckks/
	$(GO) test -run XXX -fuzz FuzzMLPUnmarshal -fuzztime 10s ./internal/henn/
	$(GO) test -run XXX -fuzz FuzzModelBundleUnmarshal -fuzztime 10s ./internal/registry/
	$(GO) test -run XXX -fuzz FuzzRegisterFrame -fuzztime 10s -fuzzminimizetime 2s ./internal/server/
