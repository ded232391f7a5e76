GO ?= go

.PHONY: build test race chaos bench bench-insert bench-ring bench-smoke bench-alloc bench-report bench-query bench-perfbench fuzz fmt docs clean cover verify-stats

build:
	$(GO) build ./...

# -shuffle=on randomizes test order every run, so accidental
# inter-test coupling fails loudly instead of riding on file order.
test:
	$(GO) test -shuffle=on ./...

# Race-check the concurrent packages (SPSC ring + pipeline, multi-queue
# replay, network-wide merge workers, cluster dispatcher, query
# front-end against a live sealing loop, telemetry instruments), then
# the seeded chaos suite (deterministic fault injection exercises the
# agent/collector concurrency paths hardest).
race:
	$(GO) test -race -shuffle=on ./internal/ovs/... ./internal/core/... ./internal/netwide/... ./internal/shard/... ./internal/cluster/... ./internal/query/... ./internal/window/... ./internal/telemetry/... ./internal/packet/... ./internal/pcap/...
	$(MAKE) chaos

# Seeded chaos simulation: the faultnet scenarios (latency, drops,
# partial writes, resets, bandwidth caps, partitions), the differential
# chaos gates against the exact oracle, and the cluster chaos suite
# (collectors killed/revived/partitioned behind the Maglev dispatcher,
# cluster-wide conservation ledger + decode equality, bit-identical
# across two replays per seed), all under the race detector with
# shuffled test order. Every fault schedule derives from a fixed seed,
# so a pass here is reproducible, not lucky.
chaos:
	$(GO) test -race -count=1 -shuffle=on -run 'Chaos' ./internal/netwide/ ./internal/oracle/ ./internal/cluster/

# Documentation gate: go vet plus the doc-comment linter (fails on any
# package or exported identifier missing a doc comment).
docs:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doclint .

# Hot-path microbenchmarks: single vs batched insert for both sketch
# variants, plus hashing.
bench-insert:
	$(GO) test -run '^$$' -bench 'BenchmarkInsertCoco' -benchmem .
	$(GO) test -run '^$$' -bench 'Bob32Multi|HashSeeds' -benchmem ./internal/hash/ ./internal/flowkey/

# Ring transfer microbenchmarks: uncached vs cached indices, single vs
# batch operations.
bench-ring:
	$(GO) test -run '^$$' -bench 'BenchmarkRingSPSC' ./internal/ovs/

# Telemetry overhead gate: instrumented vs disabled batched insert must
# stay within the budget (min-of-counts rejects CI host noise; see
# internal/tools/benchsmoke).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInsertBatch/' -count 6 -benchtime 1s . \
		| $(GO) run ./internal/tools/benchsmoke -max 1.05

# Zero-allocation ingest gates (DESIGN.md §13): every AllocsPerRun test
# on the replay→decode→InsertBatch path must report zero, and the
# 4-queue replay must beat the 1-queue run by the speedup floor.
# The speedup is a physical-core fact, so benchsmoke -need-cpus skips
# the ratio gate (tests still run) on hosts below 4 CPUs.
bench-alloc:
	$(GO) test -run 'NoAllocs|TestBuildSingleAllocation' -count=1 -v \
		./internal/packet/ ./internal/pcap/ ./internal/flowkey/ ./internal/core/ ./internal/shard/
	$(GO) test -run '^$$' -bench 'BenchmarkReplayQueues/' -count 4 -benchtime 5x ./internal/shard/ \
		| $(GO) run ./internal/tools/benchsmoke -off queues-1 -on queues-4 -max 0 -min 1.8 -need-cpus 4

# Report compression gates (DESIGN.md §14): at the harness geometry the
# compressed codec must undercut full snapshots by at least 5× on wire
# bytes, and decoding a compressed report must not be slower than
# decoding the full snapshot it replaces (measured ≈2× faster;
# min-of-counts rejects CI host noise, see internal/tools/benchsmoke).
bench-report:
	$(GO) test -run 'TestCompressionRatioFloor' -count=1 -v ./internal/report/
	$(GO) test -run '^$$' -bench 'BenchmarkReportDecode/' -count 4 ./internal/report/ \
		| $(GO) run ./internal/tools/benchsmoke -off decode-full -on decode-compressed -max 0 -min 1.0

# Continuous query-serving gates (DESIGN.md §16): a sealer drives the
# window ring at line rate while query readers hammer the windowed API;
# the run must sustain ≥10k queries/s, keep ingest above its floor, and
# hold the cache hit ratio — all enforced inside the env-gated test.
# The microbenchmark reports the cached/uncached split behind the gate.
# The ranking gate: a cache-off top-10 miss must beat the full sort of
# every group (limit 0) by at least 2.5× in the same run (measured ≈4×).
bench-query:
	COCO_QUERY_GATE=1 $(GO) test -run 'TestQueryServingGate' -count=1 -v ./internal/window/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowGroupBy|BenchmarkQueryUnderIngest' -benchmem ./internal/window/
	$(GO) test -run '^$$' -bench 'BenchmarkWindowTopMiss/' -count 4 ./internal/window/ \
		| $(GO) run ./internal/tools/benchsmoke -off rows-all -on top-10 -max 0 -min 2.5

# perfbench is its own module, so the root `go test ./...` never runs
# its smoke test; this target does.
bench-perfbench:
	cd perfbench && $(GO) test .

bench: bench-insert bench-ring bench-smoke bench-report bench-query bench-alloc bench-perfbench

# Short fuzz pass over the multi-seed hash (equivalence with Bob32).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBob32Multi -fuzztime 30s ./internal/hash/

# Statistical verification: the differential matrix (every sketch
# implementation against the exact oracle, variance-bound CIs), the
# metamorphic invariants (batch/shard/serialize/merge/telemetry
# equivalences) and the injected-bias negative control that proves the
# matrix has power. The telemetry package is vetted and race-checked
# here because the equivalence tests lean on its concurrent instruments.
verify-stats:
	$(GO) vet ./internal/telemetry/
	$(GO) test -race -count=1 ./internal/telemetry/
	$(GO) test ./internal/oracle/ -run 'TestDifferentialMatrix|TestMetamorphic|TestInjectedBias' -count=1 -v
	$(MAKE) chaos

# Per-package coverage floor. Exempt: demo binaries, the two thin
# network daemons (their libraries are tested directly), build tooling.
cover:
	$(GO) test -cover ./... | $(GO) run ./internal/tools/coverfloor -min 75 \
		-exempt cocosketch/examples/,cocosketch/cmd/cocoagent,cocosketch/cmd/cococollector,cocosketch/internal/tools/

fmt:
	gofmt -l -w .

clean:
	rm -f cocosketch.test BENCH_cocobench.json
