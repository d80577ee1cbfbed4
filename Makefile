# SieveStore reproduction — common developer targets.

GO ?= go

.PHONY: all build test race test-chaos test-cluster test-tenant cover bench bench-smoke bench-hot perfbench experiments experiments-quick fuzz test-fuzz fmt vet lint clean

# Tier-1 flow: compile, static checks, unit tests, the race detector over
# every package (the concurrent store/appliance paths must stay
# race-clean), then the cluster suite, the multi-tenant QoS suite, and a
# smoke pass over the concurrency benchmarks.
all: build vet lint test race test-cluster test-tenant bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection chaos run under the race detector: concurrent I/O and
# epoch rotations against a backend that fails, hangs, and spikes, plus
# cache-device and spill faults — asserting no deadlock, no stale data,
# and clean recovery out of every degraded mode.
test-chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/core/

# Multi-tenant QoS suite under the race detector: the adversarial
# noisy-neighbor scenario (quotas keep a stable tenant within 2% of its
# solo hit ratio while a churner degrades the unguarded run ≥5%), the
# endurance-budget caps, the accounting no-double-count fence, and the
# quota-repartition stress run across rotations/flushes/snapshots.
test-tenant:
	$(GO) test -race -count=1 -run 'TestTenant' ./internal/core/
	$(GO) test -race -count=1 ./internal/tenant/

# Replicated-cluster suite under the race detector, including the
# multi-node chaos run (kill/restart mid-load over an N=3 R=2 ring:
# zero lost acked writes, no stale reads past the version floor,
# automatic re-replication back to full R).
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/

# Deeper static analysis, skipped gracefully where the tools aren't
# installed (this container has neither; no network installs). When
# staticcheck/govulncheck are on PATH they become part of tier-1 via
# `all`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# Coverage floors for the observability-critical packages: the metrics
# primitives feed operator-facing numbers, the appliance parses
# untrusted network input, the cache package is the pluggable
# eviction-policy seam every variant sits on, and core is the op path
# itself — all must stay thoroughly tested. Other packages report
# coverage without a floor.
COVER_FLOOR_metrics    := 90
COVER_FLOOR_appliance  := 80
COVER_FLOOR_cache      := 90
COVER_FLOOR_tier       := 85
COVER_FLOOR_tenant     := 85
COVER_FLOOR_core       := 85

cover:
	@out=$$($(GO) test -cover ./internal/...); echo "$$out"; fail=0; \
	for spec in metrics:$(COVER_FLOOR_metrics) appliance:$(COVER_FLOOR_appliance) cache:$(COVER_FLOOR_cache) tier:$(COVER_FLOOR_tier) tenant:$(COVER_FLOOR_tenant) core:$(COVER_FLOOR_core); do \
	  pkg=$${spec%%:*}; floor=$${spec##*:}; \
	  pct=$$(echo "$$out" | awk -v p="repro/internal/$$pkg" \
	    '$$2==p { for (i=1; i<=NF; i++) if ($$i ~ /%$$/) { gsub(/%/, "", $$i); print $$i } }'); \
	  if [ -z "$$pct" ]; then echo "cover: FAIL no coverage reported for internal/$$pkg"; fail=1; \
	  elif awk -v a="$$pct" -v b="$$floor" 'BEGIN { exit !(a < b) }'; then \
	    echo "cover: FAIL internal/$$pkg at $$pct% (floor $$floor%)"; fail=1; \
	  else echo "cover: internal/$$pkg $$pct% >= $$floor%"; fi; \
	done; exit $$fail

# One benchmark per paper table/figure plus hot-path micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem .

# Fast sanity pass over the concurrency benchmarks: proves the store still
# serves hits during rotations and scales across clients, without the full
# bench run's cost.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkConcurrentStore|BenchmarkRotationWhileServing' -benchtime 100ms .

# The repository's end-to-end benchmark (perfbench/, declared by
# BENCHMARK.json): the paper's ensemble trace through SieveStore-D, a
# two-tenant Zipf hot set, and client → wire → cluster gateway → nodes.
# Prints the host record and one JSON result line per workload; run
# perfbench/run.sh directly for another --seed or the --trace 1
# per-layer breakdown.
perfbench:
	for w in ensemble hotset gateway; do bash perfbench/run.sh --workload $$w || exit 1; done

# Hit-path scaling sweep: pure cache-hit throughput at 1–8 GOMAXPROCS for
# Shards=1 vs Shards=8. The headline number for the sharded-store work;
# compare ns/op across -cpu to see lock-contention scaling.
bench-hot:
	$(GO) test -run '^$$' -bench BenchmarkHitPathParallel -cpu 1,2,4,8 .

# Full evaluation at the default reproduction scale (minutes).
experiments:
	$(GO) run ./cmd/experiments | tee experiments_output.txt

# Quick evaluation pass.
experiments-quick:
	$(GO) run ./cmd/experiments -scale 4096 -skip-sweeps

# run-fuzz runs every fuzz target for $(1) of new inputs each.
define run-fuzz
	$(GO) test ./internal/trace/ -fuzz FuzzBinaryReader -fuzztime $(1) -run XXX
	$(GO) test ./internal/trace/ -fuzz FuzzCSVReader -fuzztime $(1) -run XXX
	$(GO) test ./internal/core/ -fuzz FuzzLoadSnapshot -fuzztime $(1) -run XXX
	$(GO) test ./internal/appliance/ -fuzz 'FuzzFrameRoundTrip$$' -fuzztime $(1) -run XXX
	$(GO) test ./internal/appliance/ -fuzz 'FuzzFrameRoundTripV2$$' -fuzztime $(1) -run XXX
	$(GO) test ./internal/appliance/ -fuzz FuzzServerInput -fuzztime $(1) -run XXX
	$(GO) test ./internal/appliance/ -fuzz FuzzClientResponse -fuzztime $(1) -run XXX
	$(GO) test ./internal/tenant/ -fuzz FuzzTenantAccounting -fuzztime $(1) -run XXX
endef

fuzz:
	$(call run-fuzz,30s)

# Quick smoke over every fuzz target (seed corpora + 5s of new inputs
# each) — cheap enough for pre-commit; `make fuzz` is the long soak.
test-fuzz:
	$(call run-fuzz,5s)

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
