#!/bin/sh
# Tier-1 checks: the gate every change must pass before merging.
# Run directly or via `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/core/... ./internal/replay/... ./internal/android/egl ./internal/android/sflinger ./internal/sim/gpu/... ./internal/gles/... ./internal/farm ./internal/obs/... ./internal/linker"
go test -race ./internal/core/... ./internal/replay/... ./internal/android/egl ./internal/android/sflinger ./internal/sim/gpu/... ./internal/gles/... ./internal/farm ./internal/obs/... ./internal/linker

echo "== chaos smoke (fault-injection invariants under -race, serial and batched)"
go test -race ./internal/replay -run 'TestChaos' -chaos.seeds=8

echo "== farm soak (multi-device session scheduler under -race)"
go test -race ./internal/farm -run 'TestFarmSoak' -soak.devices=2 -soak.sessions=8

echo "== farm chaos (self-healing invariants under -race: watchdog, quarantine, failover)"
go test -race ./internal/farm -run 'TestFarmChaos|TestFarmFailoverVerifiesIdentically' -chaosfarm.seeds=2

echo "== reproduction gate (cycadabench -exp all byte-identical to the committed golden)"
# Every table, figure and functionality check of the paper, on the virtual
# clock only: the output is deterministic across processes and hosts, so any
# difference is a change in what the reproduction reports. A change that
# means to move a number regenerates the golden with
#   go run ./cmd/cycadabench -exp all > cmd/cycadabench/testdata/all.golden
# and says why in its description.
repro=$(mktemp -d)
go build -o "$repro/cycadabench" ./cmd/cycadabench
"$repro/cycadabench" -exp all >"$repro/all.txt"
if ! diff -u cmd/cycadabench/testdata/all.golden "$repro/all.txt"; then
	echo "reproduction gate failed: cycadabench -exp all differs from cmd/cycadabench/testdata/all.golden" >&2
	rm -rf "$repro"
	exit 1
fi
rm -rf "$repro"

echo "== arm64 fusion gate (no fused multiply-add in this module's code)"
# The Go spec lets a compiler fuse x*y + z into one FMA instruction, which
# skips the product's rounding: arm64 does, amd64 does not. Each such site in
# the rendering path is written float32(x*y) + z, so pixels, coverage and
# therefore virtual time come out the same on both. Cross-compile for arm64
# (offline) and fail on any fused instruction in a cycada/ symbol; the
# standard library's own (math.Sin, the runtime) are out of reach and
# allowed.
fusion=$(mktemp -d)
GOARCH=arm64 go build -o "$fusion/cycadabench" ./cmd/cycadabench
fused=$(go tool objdump "$fusion/cycadabench" | awk '
	/^TEXT / { sym = $2 }
	/\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD]? / && sym ~ /^cycada\// { n[sym]++ }
	END { for (s in n) print n[s], s }')
rm -rf "$fusion"
if [ -n "$fused" ]; then
	echo "fusion gate failed: fused multiply-add instructions (count, symbol):" >&2
	echo "$fused" >&2
	exit 1
fi

echo "== replay golden traces (serial)"
go run ./cmd/cycadareplay verify internal/replay/testdata/*.cytr

echo "== replay golden traces (batched encoder, caps 1/16/64/256)"
# Byte-identity is the batched encoder's correctness contract: the same
# checksums and final frame must come out no matter how calls are grouped
# into impersonation windows.
for cap in 1 16 64 256; do
	go run ./cmd/cycadareplay verify -batch "$cap" internal/replay/testdata/*.cytr
done

echo "== fuzz smoke (replay.Decode reads CYTR files from outside the program)"
# A short minimization budget keeps the 10 s on mutation: minimizing one
# new input re-encodes a whole trace many times.
go test ./internal/replay -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== fuzz smoke (MiniSL compile, link, bind and run: no panic, frame reuse invisible, lanes match the reference)"
# A runaway shader spends its whole step budget, so one input can cost
# milliseconds; the short minimization budget keeps the 10 s on mutation.
go test ./internal/sim/gpu/minisl -run '^$' -fuzz '^FuzzCompile$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== fuzz smoke (fault.ParseSpec and ParsePoint read -faults flags: no panic, rate in [0, 1], String round-trips)"
go test ./internal/fault -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== fuzz smoke (telemetry.ParseText reads a remote /metrics: no panic, duplicate series always rejected)"
go test ./internal/obs/telemetry -run '^$' -fuzz '^FuzzParseText$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== fuzz smoke (jsvm parses page scripts: no panic, step-bounded, JIT and interpreter print and return the same)"
go test ./internal/jsvm -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== fuzz smoke (diplomat windows: serial calls and batches under diplomat_panic and batch_flush match the serial model)"
go test ./internal/core/diplomat -run '^$' -fuzz '^FuzzDiplomatWindows$' -fuzztime 10s -fuzzminimizetime 1s -parallel 2

echo "== bench/ tests (pinned virtual times, layer accounting, BENCHMARK.json contract)"
(cd bench && go test ./...)

echo "== traced bench smoke (each workload, 2 s with -trace 1, must complete with correct=true)"
# The benchmark exits non-zero when a set-up or warm-up session fails or a
# run reports correct=false: a session that does not verify, retries that
# differ from the injected faults, layer self times that miss the wall or
# virtual time, or a span that crosses its parent or is dropped. bench/ab.sh
# runs only -trace 0, so the traced runs are checked here.
for w in replay-2d replay-3d replay-tiles farm-mix; do
	bash bench/run.sh -workload "$w" -seed 1 -seconds 2 -trace 1 >/dev/null
done

echo "== batched chaos smoke (faults injected mid-batch via cycadareplay)"
go run ./cmd/cycadareplay replay -i internal/replay/testdata/passmark-3d.cytr \
	-batch 16 -n 4 -faults seed=7,rate=0.05 >/dev/null

echo "== farm smoke (2 devices x 8 sessions, per-session checksums vs recordings)"
go run ./cmd/cycadafarm -devices 2 -sessions 8 -trace internal/replay/testdata/passmark-2d.cytr -verify

echo "== bench smoke (diplomat hot path)"
go test -run='^$' -bench='BenchmarkDiplomatCall' -benchtime=100x .

echo "== bench smoke (tiled rasterizer, 1..8 workers)"
go test -run='^$' -bench='BenchmarkRasterTiles' -benchtime=1x ./internal/sim/gpu

echo "== bench smoke (MiniSL span shading)"
go test -run='^$' -bench='BenchmarkShadeSpan' -benchtime=1x ./internal/sim/gpu/minisl

echo "== bench smoke (320x200 present blit through MiniSL)"
go test -run='^$' -bench='BenchmarkDrawBlit' -benchtime=1x ./internal/sim/gpu/minisl

echo "== bench smoke (PassMark's 3D quad field through the rasterizer and complexFS)"
go test -run='^$' -bench='BenchmarkDrawComplex3D' -benchtime=1x ./internal/sim/gpu/minisl

echo "== obs overhead gate (fully-disabled observability within 3% of baseline)"
# The always-compiled-in observability layer (tracer + flight recorder +
# frame-health histograms) must cost nothing when off: the fully-disabled
# diplomat call may be at most 3% slower than the hot-path baseline. Three
# attempts absorb scheduler noise; any passing attempt is a pass.
obs_gate_ok=0
for attempt in 1 2 3; do
	base=$(go test -run='^$' -bench='^BenchmarkDiplomatCall$' -benchtime=200000x . |
		awk '$NF == "ns/op" { print $(NF-1) }')
	off=$(go test -run='^$' -bench='^BenchmarkObsOverhead$/^flight-hist-disabled$' -benchtime=200000x . |
		awk '$NF == "ns/op" { print $(NF-1) }')
	echo "   attempt $attempt: baseline ${base} ns/op, fully disabled ${off} ns/op"
	if [ -n "$base" ] && [ -n "$off" ] &&
		awk -v b="$base" -v o="$off" 'BEGIN { exit !(o <= b * 1.03) }'; then
		obs_gate_ok=1
		break
	fi
done
if [ "$obs_gate_ok" != 1 ]; then
	echo "obs overhead gate failed: fully-disabled path more than 3% over baseline" >&2
	exit 1
fi

echo "== telemetry smoke (farm with -listen: /metrics, /healthz, /snapshot)"
# Boot a two-device farm with an embedded telemetry server on an ephemeral
# port, scrape /metrics while it replays and validate the exposition with the
# Prometheus-text parser (the farm's device-state gauges included), then pipe
# the JSON endpoints through jsoncheck. The farm is given far more sessions
# than it can run during the scrapes, so its server is up for all of them;
# SIGTERM then stops admission, and the farm drains, reports the sessions it
# submitted and exits 0. Until then, any exit of this script kills the farm.
tmpdir=$(mktemp -d)
go build -o "$tmpdir/promcheck" ./scripts/promcheck
go build -o "$tmpdir/jsoncheck" ./scripts/jsoncheck.go
go build -o "$tmpdir/cycadafarm" ./cmd/cycadafarm
"$tmpdir/cycadafarm" -devices 2 -sessions 1000000 -trace internal/replay/testdata/passmark-2d.cytr \
	-listen 127.0.0.1:0 >"$tmpdir/farm.log" 2>&1 &
farmpid=$!
trap 'kill "$farmpid" 2>/dev/null || true' EXIT
url=""
for i in $(seq 1 60); do
	url=$(awk '/^telemetry: listening on / { print $4; exit }' "$tmpdir/farm.log")
	[ -n "$url" ] && break
	sleep 0.25
done
if [ -z "$url" ]; then
	echo "telemetry smoke failed: server address never printed" >&2
	cat "$tmpdir/farm.log" >&2
	exit 1
fi
if ! "$tmpdir/promcheck" -print "$url/metrics" | grep -q '^cycada_farm_device_state{'; then
	echo "telemetry smoke failed: /metrics has no cycada_farm_device_state" >&2
	exit 1
fi
"$tmpdir/promcheck" -raw "$url/healthz" | "$tmpdir/jsoncheck"
"$tmpdir/promcheck" -raw "$url/snapshot" | "$tmpdir/jsoncheck"
kill -TERM "$farmpid"
if ! wait "$farmpid"; then
	echo "telemetry smoke failed: farm exited non-zero" >&2
	cat "$tmpdir/farm.log" >&2
	exit 1
fi
trap - EXIT
if ! grep -q "sessions/sec" "$tmpdir/farm.log"; then
	echo "telemetry smoke failed: farm summary missing" >&2
	cat "$tmpdir/farm.log" >&2
	exit 1
fi
rm -rf "$tmpdir"

echo "== cycadatop smoke (live introspection snapshot)"
top=$(go run ./cmd/cycadatop)
for section in "== impersonation/tracedemo" "== egl/tracedemo" "== dlr/tracedemo" \
	"== histograms" "== flight-recorder" "== tracer"; do
	if ! printf '%s\n' "$top" | grep -q "^$section"; then
		echo "cycadatop smoke failed: missing section \"$section\"" >&2
		printf '%s\n' "$top" >&2
		exit 1
	fi
done
go run ./cmd/cycadatop -json | go run ./scripts/jsoncheck.go

echo "== cycadatop -farm smoke (scheduler snapshot section)"
farmtop=$(go run ./cmd/cycadatop -farm -devices 2 -sessions 2)
for key in "== farm" "queue-depth" "state=" "device\[0\]" "device\[1\]"; do
	if ! printf '%s\n' "$farmtop" | grep -q "$key"; then
		echo "cycadatop -farm smoke failed: missing \"$key\"" >&2
		printf '%s\n' "$farmtop" >&2
		exit 1
	fi
done

echo "tier-1 checks passed"
