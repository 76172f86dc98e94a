# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml). Performance has one record: `make bench` runs
# the end-to-end benchmark (bench/, bounds in BENCHMARK.json), and
# `make alloc-gate` pins the steady-state hot paths at zero allocations.

GO ?= go

.PHONY: all build test race lint bench alloc-gate chaos fuzz

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomises test (and subtest) execution order each run, so
# an accidental inter-test ordering dependency fails somewhere instead of
# passing forever in source order. Failures print the shuffle seed for
# deterministic replay: go test -race -shuffle=<seed> <pkg>.
race:
	$(GO) test -race -shuffle=on ./...

# gofmt -s (simplify) covers the tree including the reprolint testdata
# corpus; reprolint is the project-native analyzer suite (noalloc,
# atomicmix, nopanic, errcheck, lockbalance — see DESIGN.md §9).
lint:
	@unformatted="$$(gofmt -s -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet -tests=true ./...
	$(GO) run ./tools/reprolint ./...

# The end-to-end benchmark: every workload in BENCHMARK.json against the
# real binaries. For one workload, a traced run with the per-layer ladder or
# a parent/change comparison, call it directly, e.g.
# `go run ./bench -workload edge_float_b1 -trace 1` (see bench/README.md).
bench:
	$(GO) run ./bench

# Hard zero-allocation gate on the steady-state hot paths (planned split
# transforms, batched circulant multiply, workspace forward, compiled
# program Run on both backends, registry-routed infer). The same tests
# run in `make test`; this target runs just them, without -race (the race
# runtime skews allocation accounting).
alloc-gate:
	$(GO) test -count=1 -run 'ZeroAlloc' ./...

# Fault-injection chaos suite for the fleet tier (DESIGN.md §10): kill
# and revive backends under closed-loop load, seeded connection faults on
# the router's persistent clients, drain during a concurrent hot-swap,
# and the 2-backend throughput-scaling floor — all under the race
# detector, asserting zero non-typed client-visible errors throughout.
# -count=1 defeats the test cache: chaos runs must actually run.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/router/

# Coverage-guided fuzzing of the decoders, one target per decoder: the
# wire row codec (RPI1/RQE1/RSE1), the RPO1 results codec, RPS2 stream
# frames, the engine's parameter file, the one-pass JSON request reader
# against encoding/json, the architecture parser against its own export —
# and of the Goldilocks field multiply
# under the fixed-point build's transform, against math/big. `go test`
# accepts one -fuzz pattern per invocation, so each target gets its own run.
# CI runs the same loop as a short smoke; raise the budget locally, e.g.
# `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run xxx -fuzz 'FuzzParseWireRows$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzParseWireResults$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzDecodeStreamFrame$$' -fuzztime $(FUZZTIME) ./internal/serve/stream/
	$(GO) test -run xxx -fuzz 'FuzzLoadParameters$$' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run xxx -fuzz 'FuzzParseArchitecture$$' -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run xxx -fuzz 'FuzzJSONRequest$$' -fuzztime $(FUZZTIME) ./cmd/serve/
	$(GO) test -run xxx -fuzz 'FuzzNTTMul$$' -fuzztime $(FUZZTIME) ./internal/fft/
