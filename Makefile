# Targets mirror .github/workflows/ci.yml so a green `make ci` locally means
# a green CI run.

GO ?= go

.PHONY: all build fmt lint graphmatlint staticcheck govulncheck test perfbench race bench bench-engine bench-sched bench-store bench-multi bench-snap fuzz kernel-parity ci

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/... ./cmd/...

fmt:
	gofmt -w .

# lint = the non-test static gates CI runs: formatting, vet, staticcheck,
# govulncheck and the graphmatlint invariant suite — identical commands to
# the CI steps, so a green `make lint` locally means green lint in CI.
lint: staticcheck govulncheck graphmatlint
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# graphmatlint statically enforces the engine's correctness invariants
# (snapshot pin release, fold determinism, cancellation polling, operator
# purity, hot-path call bans — see internal/lint). It runs through go vet's
# unitchecker protocol so test files are covered and results are cached.
graphmatlint:
	$(GO) install ./cmd/graphmatlint
	$(GO) vet -vettool="$$($(GO) env GOPATH)/bin/graphmatlint" ./...

# CI installs staticcheck at the version pinned in tools/go.mod; locally it
# runs only if already on PATH, so the target works on offline machines.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Same PATH gate as staticcheck: govulncheck needs the network for the vuln
# database, so offline machines skip it and CI enforces it.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# perfbench is its own module (perfbench/go.mod), so the root ./... patterns
# never compile it; vet and test it explicitly so an API break in the
# packages it drives cannot reach the benchmark unseen.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# internal/graph carries the versioned store (snapshot isolation under
# concurrent updates + compaction); algorithms carries the store-backed
# registry instances; bitvec backs every frontier the workers share and gen
# feeds the parallel generators. All matter under -race.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... ./internal/sparse/... ./internal/server/... ./internal/graph/... ./internal/bitvec/... ./internal/gen/... ./internal/snap/... ./algorithms/...

# Fuzz smoke over the graph readers, the run-reply encoder and the SIMD
# kernel backends: 10s per target (go test takes one -fuzz pattern at a
# time). The reader targets assert parallel parse ≡ sequential parse; the
# reply target asserts the encoder's bytes ≡ encoding/json's; the kernel
# targets assert every SIMD backend ≡ the scalar oracle bit for bit.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadMTX$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadEdgeList$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzReadBinary$$' -fuzztime=10s ./internal/graph
	$(GO) test -run='^$$' -fuzz='^FuzzRunReplyEncoding$$' -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz='^FuzzBitvecWords$$' -fuzztime=10s ./internal/kernels
	$(GO) test -run='^$$' -fuzz='^FuzzDenseFold$$' -fuzztime=10s ./internal/kernels

# The kernel backend parity matrix from CI: the differential suites under
# each backend forced via GRAPHMAT_KERNEL (unsupported names fall back to
# scalar, covering the fallback path).
kernel-parity:
	for backend in scalar avx2 neon; do \
		GRAPHMAT_KERNEL=$$backend $(GO) test -count=1 ./internal/kernels ./internal/bitvec ./internal/core ./algorithms || exit 1; \
	done

# One pass over every benchmark: perf regressions that break a benchmark
# surface as failures-to-run.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The engine kernel sweep: the backend {scalar, avx2|neon} × mode
# {pull, push, auto} × workers {1, 4, 8} matrix. Real measurement (1s per
# case), unlike the bench smoke.
bench-engine:
	$(GO) test -bench='^BenchmarkEngine' -benchtime=1s -run='^$$' .

# The scheduler runtime microbenches: pool wake vs per-call spawn dispatch
# latency, plus the steal-overhead / balanced pair. -cpu 1,4 exercises both
# the inline single-worker path and real cross-worker stealing.
bench-sched:
	$(GO) test -bench=. -benchtime=1s -run='^$$' -cpu=1,4 ./internal/sched

# The versioned-store sweep: 1% update-batch application and overlay
# compaction. Real measurement (1s per case).
bench-store:
	$(GO) test -bench='^(BenchmarkApplyEdges|BenchmarkCompaction)' -benchtime=1s -run='^$$' .

# The multi-source block-run sweep: k ∈ {1, 8, 32} sources per batched
# BFS/PPR run. Real measurement (1s per case).
bench-multi:
	$(GO) test -bench='^(BenchmarkBatchBFS|BenchmarkBatchPPR)' -benchtime=1s -run='^$$' .

# The persistence sweep: snapshot write / mmap boot / parse+rebuild (the
# restart ratio) plus WAL append and replay. Real measurement (1s per case).
bench-snap:
	$(GO) test -bench='^(BenchmarkSnapWrite|BenchmarkSnapBoot|BenchmarkSnapParseBuild)$$' -benchtime=1s -run='^$$' .
	$(GO) test -bench='^BenchmarkWAL' -benchtime=1s -run='^$$' ./internal/snap

ci: build lint test perfbench kernel-parity race fuzz bench
