# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), and `make bench` emits the same BENCH_<date>.json
# schema the CI perf job uploads, so local and CI perf numbers accumulate in
# one comparable format.

GO ?= go

.PHONY: all build test race lint bench bench-compare alloc-gate check-gates chaos fuzz

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
# atomicmix, nopanic, errcheck, lockbalance — see DESIGN.md §9); and
# check-gates pins the benchmark gate lists against CI plus the
# ALLOCGATE↔noalloc benchcover cross-check.
lint:
	@unformatted="$$(gofmt -s -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet -tests=true ./...
	$(GO) run ./tools/reprolint ./...
	$(GO) run ./tools/benchjson checkgates

# Run the full benchmark suite (root package) and write BENCH_<YYYYMMDD>.json.
# Override the selection or budget, e.g.:
#   make bench BENCH=BenchmarkBatchedSpectralForward COUNT=3
BENCH ?= .
BENCHTIME ?= 3x
COUNT ?= 5

bench:
	$(GO) run ./tools/benchjson run -bench '$(BENCH)' -benchtime $(BENCHTIME) -count $(COUNT)

# Compare two benchmark artifacts with the CI gates: >15% median ns/op
# regression on hot-path benchmarks fails, and ANY allocs/op increase on
# the steady-state serving/spectral benchmarks fails:
#   make bench-compare BASE=BENCH_base.json HEAD=BENCH_head.json
GATE ?= BenchmarkBatchedSpectralForward|BenchmarkFig2_CirculantMatvec|BenchmarkAblationSpectralCache|BenchmarkAblationAccumulateSpectral|BenchmarkCompiledForward|BenchmarkQuantizedForward|BenchmarkVectorSearch
# Serving acceptance benchmarks, gated at a wide catastrophic-only
# threshold (2.5x) because closed-loop per-op medians are scheduler-shaped.
SERVEGATE ?= BenchmarkRegistryRoutedInfer|BenchmarkStreamInfer|BenchmarkRouterRoutedInfer|BenchmarkEmbed
# Alloc-gate only benchmarks whose hot path is deterministically serial
# (above the spectral engine's parallel threshold the worker fan-out heap-
# allocates its closures by design, and the closed-loop serving benches
# spawn client goroutines); the hard `alloc-gate` test target below covers
# the full set of steady-state paths exactly.
ALLOCGATE ?= BenchmarkBatchedSpectralForward/arch1Batched|BenchmarkCompiledForward|BenchmarkQuantizedForward|BenchmarkStreamInfer/serial|BenchmarkEmbed|BenchmarkVectorSearch

bench-compare:
	$(GO) run ./tools/benchjson compare -threshold 1.15 -gate '$(GATE)' -allocgate '$(ALLOCGATE)' $(BASE) $(HEAD)
	$(GO) run ./tools/benchjson compare -threshold 2.5 -gate '$(SERVEGATE)' $(BASE) $(HEAD)

# Fail if the benchmark gate lists above have drifted from the CI
# workflow's copies (.github/workflows/ci.yml env block). Runs in the CI
# lint job too, so a PR that updates one file but not the other is caught.
check-gates:
	$(GO) run ./tools/benchjson checkgates

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
# frames, the artifact-store index — and of the Goldilocks field multiply
# under the fixed-point build's transform, against math/big. `go test`
# accepts one -fuzz pattern per invocation, so each target gets its own run.
# CI runs the same loop as a short smoke; raise the budget locally, e.g.
# `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run xxx -fuzz 'FuzzParseWireRows$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzParseWireResults$$' -fuzztime $(FUZZTIME) ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzDecodeStreamFrame$$' -fuzztime $(FUZZTIME) ./internal/serve/stream/
	$(GO) test -run xxx -fuzz 'FuzzParseStoreIndex$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run xxx -fuzz 'FuzzNTTMul$$' -fuzztime $(FUZZTIME) ./internal/fft/
