# Developer loops for the lotuseater reproduction.
#
#   make            # build + vet + lint + test (the tier-1 gate)
#   make lint       # project analyzers (lotus-lint) over the whole module
#   make fmt        # gofmt the tree in place
#   make bench      # scenario benchmarks -> BENCH_scenarios.json
#   make bench-go   # go test registry micro-benchmarks
#   make figures    # regenerate every table/figure at quick fidelity
#   make race       # race-check the concurrency kernel + strategy layer

GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet lint fmt fmt-check race bench bench-go check-stats figures list scenarios golden cover clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the determinism and hot-path rules
# (detrand, maprange, rngshard, allocfree) enforced by cmd/lotus-lint.
# Non-zero exit on any finding; see README "Static analysis".
lint:
	$(GO) run ./cmd/lotus-lint ./...

fmt:
	$(GOFMT) -w .

# CI gate: fail listing any file gofmt would rewrite.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./internal/sim/... ./internal/sweep/... ./internal/experiment/... \
		./internal/scenario/... ./internal/attack/... ./internal/defense/... ./internal/cli/... \
		./internal/gossip/... ./internal/swarm/... ./internal/serve/... ./internal/adaptive/... \
		./internal/cluster/... ./internal/obs/... ./internal/population/... \
		./internal/tokenmodel/...
	# The swarm's widened ParallelFor passes (sharded unchoke scoring, the
	# leecher scans, the reverse-position/rarity builds) only fan out above
	# ~32k nodes; these tests force that scale and shard split under -race.
	$(GO) test -race -count=1 \
		-run 'TestShardedPassesRace|TestEvalParallelBitIdentical|TestIncrementalRarityMatchesRescan' \
		./internal/swarm

# Statistical self-tests for the adaptive stopping rule: Student-t golden
# constants and the 1000-trial CI coverage check, uncached so the numbers
# are actually recomputed.
check-stats:
	$(GO) test -count=1 -run 'TestStoppingRuleCoverage' -v ./internal/adaptive
	$(GO) test -count=1 -run 'TestTCriticalGolden|TestTQuantileInvertsCDF|TestAccumulatorHalfWidth' ./internal/metrics

# Rewrite the golden CLI outputs and registry artifacts after an
# intentional output change; review the diff like code.
golden:
	$(GO) test ./internal/cli ./internal/experiment -run Golden -update

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# Registry-driven scenario benchmarks (one per substrate plus a
# 1000-replicate streaming-aggregation run), the adaptive bench (fixed
# budget vs CI-targeted replication on the three *-auto scenarios), the
# kernel bench (ns/round and allocs/round for gossip and swarm at n in
# {10k, 100k, 1m}), and the cluster bench (1-vs-2-worker distributed
# throughput through a loopback coordinator); emits BENCH_scenarios.json,
# BENCH_adaptive.json, BENCH_kernel.json, and BENCH_cluster.json for the
# performance trajectory across PRs. Raise -kernel-rounds locally for
# tighter kernel numbers; read the cluster scaling row next to its cpus
# field.
bench:
	$(GO) run ./cmd/lotus-sim scenarios bench -out BENCH_scenarios.json -adaptive-out BENCH_adaptive.json -kernel-out BENCH_kernel.json -cluster-out BENCH_cluster.json

bench-go:
	$(GO) test -run '^$$' -bench 'BenchmarkRegistry' -benchmem ./

figures:
	$(GO) run ./cmd/lotus-sim figures -exp all -quality quick

list:
	$(GO) run ./cmd/lotus-sim list

scenarios:
	$(GO) run ./cmd/lotus-sim scenarios list

clean:
	$(GO) clean ./...
