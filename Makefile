.PHONY: check test bench bench-smoke trace replay-golden chaos top farm farm-soak farm-chaos load

# Tier-1 gate: gofmt, vet, build, full test suite, race tests on the
# concurrency-heavy core and replay packages, golden-trace verification,
# the obs overhead gate (fully-disabled observability within 3% of the
# diplomat hot-path baseline) and the cycadatop snapshot smoke test.
check:
	./scripts/check.sh

# Differential verification of the checked-in golden traces: each must replay
# to byte-identical per-present checksums and final frame.
replay-golden:
	go run ./cmd/cycadareplay verify internal/replay/testdata/*.cytr

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Quick compile-and-run sanity check of the diplomat hot-path benchmarks
# (BenchmarkDiplomatCall, BenchmarkDiplomatCallAllocs); also run by check.sh.
bench-smoke:
	go test -run='^$$' -bench='BenchmarkDiplomatCall' -benchtime=100x .

# The repository benchmark (bench/, BENCHMARK.json) is the only throughput
# and regression harness: `bash bench/run.sh` runs its workloads with the
# host-speed correction and noise bands that single-iteration `go test
# -bench` dumps lack; bench/ab.sh compares two revisions on one host.

# Long chaos soak: golden traces under many generated fault schedules, with
# the recovery invariants checked for every seed. Tier-1 runs 8 seeds (see
# check.sh); override with SEEDS=N for longer runs.
SEEDS ?= 64
chaos:
	go test -race ./internal/replay -run 'TestChaos' -chaos.seeds=$(SEEDS) -v

# Chrome trace_event demo: open trace.json in chrome://tracing or Perfetto.
trace:
	go run ./cmd/cycadabench -trace trace.json

# Live-state introspection snapshot: boots the Cycada iOS configuration,
# drives a short cross-persona workload and prints what the system is doing
# (sessions, replicas, surface health, frame histograms, flight recorder).
top:
	go run ./cmd/cycadatop

# Multi-device farm demo: 2 device stacks, 8 verified trace-replay sessions
# through the admission-controlled scheduler, per-session frame health.
farm:
	go run ./cmd/cycadafarm -devices 2 -sessions 8 \
		-trace internal/replay/testdata/passmark-2d.cytr -verify

# Sustained-load demo with live telemetry: a LOAD_N-device farm replaying
# the PassMark 2D golden trace 200 times through admission control,
# watchdogs and failover, with /metrics, /healthz, /snapshot, and /events
# served on LOAD_ADDR — scrape with `cycadatop -connect
# http://127.0.0.1:9090` from another terminal while it runs.
LOAD_N ?= 4
LOAD_ADDR ?= 127.0.0.1:9090
load:
	go run ./cmd/cycadafarm -devices $(LOAD_N) -sessions 200 \
		-trace internal/replay/testdata/passmark-2d.cytr -listen $(LOAD_ADDR)

# Heavier farm soak under the race detector: more devices and sessions than
# the tier-1 run in check.sh. Override with SOAK_DEVICES/SOAK_SESSIONS.
SOAK_DEVICES ?= 3
SOAK_SESSIONS ?= 24
farm-soak:
	go test -race ./internal/farm -run 'TestFarmSoak' -v \
		-soak.devices=$(SOAK_DEVICES) -soak.sessions=$(SOAK_SESSIONS)

# Long self-healing chaos soak: seeded farm runs with injected session
# hangs, device wedges, and mid-replay panics, checking the watchdog /
# quarantine / failover invariants per seed. Tier-1 runs 2 seeds (see
# check.sh); override with FARM_SEEDS=N for longer runs.
FARM_SEEDS ?= 8
farm-chaos:
	go test -race ./internal/farm -v \
		-run 'TestFarmChaos|TestFarmFailoverVerifiesIdentically' \
		-chaosfarm.seeds=$(FARM_SEEDS)
