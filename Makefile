GO ?= go

.PHONY: check build vet test race alloc-gate lint fmt-check tools bench bench-compare bench-e2e bench-module doc-links examples fuzz-smoke sweep sweep-poison gc-gate check-mutations

## check: the full gate — formatting, build, vet, static analysis, the
## test suite under the race detector, the access path's allocation gate
## (which the race run skips), the benchmark module's own self-checks
## and one run of every example. This is what CI runs (CI's lint job
## additionally runs govulncheck).
check: fmt-check build vet lint race alloc-gate bench-module examples

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt-check: fail when any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: the documentation link checker plus staticcheck when installed
## (see 'make tools'; staticcheck.conf enables ST1000, so every package
## must keep its doc comment). Without staticcheck a skip notice is
## printed — the container image does not bake analysis tools in, CI
## installs them in the lint job.
lint: doc-links
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (run 'make tools')"; fi

## doc-links: verify every relative link and anchor in the top-level
## markdown set (README/DESIGN/ARCHITECTURE/EXPERIMENTS) resolves, that
## every internal/ and cmd/ path DESIGN.md and ARCHITECTURE.md cite
## exists, that DESIGN.md names every dsm.Config field, msg.Kind and
## dsm.CounterSet counter, and that README's knob tables name exactly the
## fields of SystemConfig, ControllerConfig and ServingConfig.
doc-links:
	$(GO) test -run 'TestDocLinks|TestDocsCiteExistingPaths|TestDesignNamesConfigAndKinds|TestReadmeKnobTablesMatchConfigs' .

## examples: run every program under examples/ once; a non-zero exit
## fails the target by name. The examples are the only non-test callers
## of several facade entry points, which 'go build' compiles but nothing
## else runs.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || { echo "examples: $$d failed"; exit 1; }; \
	done

## tools: one-time install of the analysis tools check/CI use. Requires
## network access; CI's lint job runs the same installs. Versions are
## pinned so a tool release can't break CI out from under a PR (and so
## CI's ~/go/bin cache key is stable); bump them deliberately here.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## alloc-gate: the engine-side access path's allocation counts and bytes,
## without the race detector (whose instrumentation allocates, so 'make
## race' skips these): a warm Span allocates nothing, nor does a warm
## fan-out of width 8 (its legs go to parked workers), also through the
## cluster with a crash scheduled (its chaos layer counts the fan-outs in
## flight);
## a remote miss — single or batched from two writers — and a
## lock hand-off, with or without a history pull, stay under their ceilings, a miss
## whose page carries 64 or more pending notices from three writers
## allocates nothing once warm (its snapshot and diff table are the
## node's, so a miss costs the same whatever its backlog), a dense
## remote miss allocates its diff's exact bytes once, packed into a store
## chunk (no decode copy, no growth by doubling), MakeDiff is one
## allocation, queueing or dropping a write notice allocates nothing, nor
## does a warm notice set or barrier fold taking a batch of notices, 64
## pages of one shard queueing 16 notices each from empty make at most 3
## allocations (their queues grow into blocks of the shard's slab), so do
## 64 pages of one shard closing 16 intervals each from empty runs (the
## runs grow into blocks of the shard's diff pool and give outgrown ones
## back), and a second such round after a GC collect dropped the runs
## allocates nothing, a warm close of 100 dirty pages allocates nothing
## (its lists are the node's, each page's diff run keeps its array), a
## node's causal history grows through a second epoch of lock hand-offs
## in the array it kept across the barrier, so does a warm barrier's fold
## of its notices into the array the episode before left, a lock pull's
## notice list is its pooled reply's — a hand-off costs the same bytes
## whether its pulls carry 16 notices or 512 — a warm barrier episode of 8 nodes,
## flat or a binary tree, with or without a GC round under it, stays
## within 8 allocations (its messages are pooled and its scratch is the
## cluster's), and on warm
## pools a twin, a stored diff's create/serve/GC-drop cycle, every pooled
## request kind served through the transport handler's body and every
## pooled reply kind decoded and released allocate nothing. Stored diffs
## live in per-node chunks that a GC round hands back whole to a free list
## no Go collection empties, so a GC epoch's diffs allocate nothing even
## after two Go collections (internal/dsm/alloc_test.go).
## The pools' other callers are held too: an encode into a pooled buffer
## and a decode/Release of every pooled message kind, the barrier and GC
## kinds' nested lists included (internal/msg), a mux round trip
## (internal/transport), a warm get/put of the pool itself (internal/pool)
## and a serving workload's measured window end (internal/serve). So is the engine's barrier bookkeeping: a warm fold of
## 64 threads' charges and re-draw of 8 nodes' execution orders allocate
## nothing (internal/threads). A re-introduced escape or copy fails here,
## not at the next benchmark run.
alloc-gate:
	$(GO) test ./internal/dsm -run 'TestSpanWarmZeroAllocs|TestFanOutWarmZeroAllocs|TestRemoteMissAllocCeiling|TestRemoteMissBytesCeiling|TestMakeDiffOneAlloc|TestNoticeIngestAllocs|TestPendingGrowsFromShard|TestDiffRunsGrowFromShard|TestKnownKeepsArrayAcrossBarrier|TestBarrierFoldKeepsArray|TestCloseIntervalWarmZeroAllocs|TestLockHandoffAllocCeiling|TestBarrierEpisodeAllocCeiling|TestLockGrantNoticeBytes|TestDiffLifecycleAllocs' -count=1 -v
	$(GO) test ./internal/msg ./internal/transport ./internal/pool ./internal/threads ./internal/serve -run '^(TestEncodeToZeroAlloc|TestDecodeReleaseZeroAlloc|TestMuxCallAllocs|TestSlices|TestEpochScratchZeroAllocs|TestWindowEndZeroAllocs)$$' -count=1 -v

## bench: one benchmark per paper table/figure, plus the ablation,
## cut-cost, prefetch and trace-replay comparisons. The substrate
## micro-benchmarks are rungs of the benchmark module's per-layer ladder
## (see bench-e2e), where they are tracked.
bench:
	$(GO) test -bench=. -benchmem -run '^$$'

## bench-module: benchmark/ is a Go module of its own, so the root
## 'go build ./... && go test ./...' neither builds nor tests it. This
## runs its fast self-checks against the checkout's facade, so an API
## change at the root cannot break the benchmark unseen.
bench-module:
	cd benchmark && $(GO) test ./...

## bench-e2e: the wall-clock + virtual-time benchmark BENCHMARK.json
## declares (benchmark/README.md): one run of one workload. Override
## BENCH_E2E_ARGS for another workload, a traced run (--trace 1), or
## '--compare out/setA out/setB'.
BENCH_E2E_ARGS ?= --workload sor_local --seed 1 --seconds 10 --trace 0
bench-e2e:
	bash benchmark/run.sh $(BENCH_E2E_ARGS)

## bench-compare: the benchmark regression gate. Every lane is
## deterministic (virtual time, message counts), so each is rerun, its
## BENCH_<lane>.json rewritten in place and gated against the committed
## copy; a clean tree afterwards means nothing drifted.
##   prefetch   demand calls with prefetch + batching: <= 5% growth per app
##   managers   tree barrier depth <= 2*ceil(log2 n); sharded node-0 lock share <= 50%
##   serving    <= 5% QPS/p99 regression per row; min-cost beats static on p99 and QPS
##   placement  <= 5% elapsed/call regression per row; combined beats thread-only and data-only somewhere
##   failover   clean, crash and crash+rejoin legs digest identically; call counts exact
##   transport  fast/slow topology stretches the run; elapsed and per-link traffic exact
bench-compare:
	$(GO) run ./cmd/actbench -only prefetch,managers,serving,placement,failover,transport \
		-json-dir . -baseline-dir .

## fuzz-smoke: run every fuzz target briefly (FUZZTIME each, default
## 10s). Catches codec and diff-application regressions without a long
## fuzzing campaign; CI runs this on every push.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/msg
	$(GO) test -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/msg
	$(GO) test -fuzz=FuzzApplyDiff -fuzztime=$(FUZZTIME) ./internal/dsm
	$(GO) test -fuzz=FuzzDiffRoundTrip -fuzztime=$(FUZZTIME) ./internal/dsm
	$(GO) test -fuzz=FuzzTraceDecode -fuzztime=$(FUZZTIME) ./internal/trace

## sweep: the coherence model-checker (DESIGN.md §8) — SWEEP_SEEDS seeded
## schedules per scenario under seeded chaos plans with the LRC oracle
## attached. A violation prints a shrunk, ready-to-paste repro and fails.
SWEEP_SEEDS ?= 200
sweep:
	$(GO) run ./cmd/actcheck -seeds $(SWEEP_SEEDS) -q

## sweep-poison: the same sweep, fewer seeds, built with the race
## detector — which also turns on the pools' poison fill (pool.Race: a
## recycled wire frame, twin, page image or diff chunk is overwritten
## with 0xDB, a released message's integers and lists name an impossible
## page, and a recycled chunk's count becomes a sentinel), so a read through storage
## that was already released becomes a wrong byte the oracle reports or
## a named panic. The sweep is not a test binary, so 'make race' does
## not reach it.
SWEEP_POISON_SEEDS ?= 20
sweep-poison:
	$(GO) run -race ./cmd/actcheck -seeds $(SWEEP_POISON_SEEDS) -q

## gc-gate: a garbage-collection round stays one GCCollect per (home,
## member). The message-count test fails on a regression back to per-page
## traffic, the chaos test on a dropped or doubly executed multi-page
## collect moving a counter, and the poisoned sweep (whose *gc scenarios
## collect at every barrier) on a page list or a diff read through a frame
## that was already recycled. GC rounds also drive the diff store's chunk
## recycling, so the pinned-diff tests run here under the race detector,
## whose poison fill and sentinel count catch a chunk recycled while a
## serve still pins one of its diffs; and msg's release test, which reads
## a released diff batch reply and lock grant and must find the sentinel.
gc-gate: sweep-poison
	$(GO) test -run 'TestGCRoundMessageCount|TestChaosBarrierGCDedup' -count=3 ./internal/dsm
	$(GO) test -race -count=5 -run 'TestPinnedDiffOutlivesDrop|TestDiffAliasGCHammer' ./internal/dsm
	$(GO) test -race -count=5 -run 'TestReleasePoisons' ./internal/msg

## check-mutations: checker validation. Each patch under
## internal/check/testdata/mutations plants one protocol bug; the runner
## applies it to a copy of the module, which must build and vet, and
## every check its header names must then fail with the violation the
## header expects. A patch that no longer applies or builds, or a check
## that passes or fails some other way, fails the target by name.
check-mutations:
	sh internal/check/testdata/mutations/run.sh
