GO ?= go

.PHONY: all build test race vet fmt staticcheck bench bench-json bench-check chaos realbench fuzz loc check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages under the race detector: the transport
# torture tests, the core replica lifecycle tests (including the read
# path and the conflict-elision property test), the consensus proposer
# and the membership encoding it schedules, the client retry loop
# with its TCP transport and the shard router, the sharded cluster and
# the reconfiguration drills (node replacement under load), the restart
# cycles (each reopens a replica's WAL from its disk), the pinned-seed
# recovery (promote/demote/rebuild churn), consistent-read,
# conflict-class and overload chaos scenarios, the live-rebalancing
# migration property, the trace storage, replay scheduler and
# recorded-synchronization packages, the WAL, whose frontier /healthz
# reads while an append holds the log's mutex, and the env channel every
# RealEnv hand-off goes through, which keeps its queue array across
# sends. CI runs exactly this target.
race:
	$(GO) test -race ./internal/env ./internal/transport ./internal/core ./internal/storage
	$(GO) test -race ./internal/trace ./internal/sched ./internal/rexsync
	$(GO) test -race ./internal/paxos ./internal/reconfig
	$(GO) test -race ./internal/client ./internal/server ./internal/shard
	$(GO) test -race -run 'TestMultiCluster|TestReplacementDrill|TestRemovedIdentityRefused|TestRepeatedRestartCycles|TestPowerLossOnEveryReplica' ./internal/cluster/
	$(GO) test -race -run 'TestRecoveryScenarioPinnedSeed|TestReadsScenarioPinnedSeed|TestConflictsScenarioPinnedSeed|TestOverloadScenarioPinnedSeed' ./internal/chaos/
	$(GO) test -race -run 'TestMigrationWindowProperty' ./internal/rebalance/

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-formatted, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck is optional locally (skipped when not installed); CI
# installs and runs it unconditionally.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Acceptance evidence as machine-readable JSON: the commit-path suite
# (encode allocs/op, quick Figure 7 with the Paxos persist batch sizes,
# and the conflict-class delta-size experiment with its
# delta_bytes_mean), the shard-scaling suite (aggregate throughput at
# 1/2/4/8 groups, plus the live-rebalance migration experiment in its
# `rebalance` field), the read-scaling suite (linearizable vs session
# reads on a 90/10 mix), and the overload suite (goodput vs offered
# load past saturation, with and without admission control;
# goodput_2x_vs_peak is the headline).
bench-json:
	$(GO) run ./cmd/rexbench -exp commitpath -json BENCH_commit_path.json
	$(GO) run ./cmd/rexbench -exp shards -json BENCH_shard_scaling.json
	$(GO) run ./cmd/rexbench -exp reads -json BENCH_read_scaling.json
	$(GO) run ./cmd/rexbench -exp overload -json BENCH_overload.json

# The bench-json files, regenerated into a temporary directory and
# compared byte for byte with the committed copies. The simulator is
# deterministic and the JSON holds no wall-clock figure, so any
# difference is a change in behaviour: regenerate with `make bench-json`
# and say why in the commit. CI runs this target.
BENCH_SUITES = commitpath:BENCH_commit_path.json shards:BENCH_shard_scaling.json \
	reads:BENCH_read_scaling.json overload:BENCH_overload.json
bench-check:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/rexbench" ./cmd/rexbench; \
	for s in $(BENCH_SUITES); do \
		exp=$${s%%:*}; f=$${s##*:}; \
		echo "bench-check $$exp -> $$f"; \
		"$$d/rexbench" -exp "$$exp" -json "$$d/$$f" >/dev/null; \
		cmp "$$d/$$f" "$$f"; \
	done

# A short chaos sweep over every preset: each must come back OK. Every
# sweep here is pinned by TestGoldenSweeps and replays bit for bit. A failing sweep prints the
# command line that reruns its first failing seed.
chaos:
	$(GO) run ./cmd/rexchaos -scenario generic -scenarios 8 -seed 1
	$(GO) run ./cmd/rexchaos -scenario shards -scenarios 2 -seed 1
	$(GO) run ./cmd/rexchaos -scenario reconfig -scenarios 4 -seed 1 -duration 2s
	$(GO) run ./cmd/rexchaos -scenario recovery -scenarios 4 -seed 1 -duration 4s
	$(GO) run ./cmd/rexchaos -scenario reads -scenarios 4 -seed 1 -duration 4s
	$(GO) run ./cmd/rexchaos -scenario conflicts -scenarios 4 -seed 1 -duration 4s
	$(GO) run ./cmd/rexchaos -scenario overload -scenarios 4 -seed 1
	$(GO) run ./cmd/rexchaos -scenario rebalance -scenarios 2 -seed 1 -groups 3

# Every decoder fuzz target (input reachable from a socket, the WAL, a
# snapshot file or a peer's checkpoint push), FUZZTIME each: go test fuzzes one target per run. Their
# seed corpora already run in `make test`. go test minimizes every input
# that adds coverage, by default for up to 60 s with a search quadratic
# in the input's length; one long input then kept both workers busy for
# the rest of a 10 s run, so the search is capped at 10000 executions (a
# crasher is still reported, less minimized).
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/paxos:FuzzDecodeMessage \
	./internal/paxos:FuzzDecodeLentFrame \
	./internal/paxos:FuzzRecoverLog \
	./internal/core:FuzzDecodeCtrl \
	./internal/core:FuzzDecodeSnapshot \
	./internal/reconfig:FuzzDecodeValue \
	./internal/reconfig:FuzzDecodeSchedule \
	./internal/shard:FuzzDecodeShardMap \
	./internal/trace:FuzzDecodeDelta \
	./internal/readpath:FuzzTokenRoundTrip \
	./internal/readpath:FuzzTokenDecode \
	./internal/readpath:FuzzTokenMerge \
	./internal/readpath:FuzzTokenDecodePrefix \
	./internal/overload:FuzzWireDeadlineDecode \
	./internal/overload:FuzzWireDeadlineRoundTrip \
	./internal/server:FuzzServerReadFrame \
	./internal/server:FuzzDecodeRequest \
	./internal/transport:FuzzTCPReadFrame \
	./internal/apps:FuzzReadCheckpoint \
	./internal/rebalance:FuzzDecodeGroupStatus

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 10000x $$pkg; \
	done

# realbench/ is its own module, so the root's build and tests never
# compile it: vet it and run its smoke tests so an API change cannot
# break the benchmark unseen.
realbench:
	cd realbench && $(GO) vet ./... && $(GO) test .

# The size of the program: non-test Go lines outside realbench/ (its own
# module) and .bench_build/ (the benchmark's build cache).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './realbench/*' ! -path './.bench_build/*' | xargs cat | wc -l

check: build fmt vet staticcheck test race chaos realbench
