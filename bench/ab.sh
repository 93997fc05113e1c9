#!/usr/bin/env bash
# Same-host A/B of two revisions, measured with this checkout's benchmark:
#
#   bash bench/ab.sh <rev-a> <rev-b>
#
# Each revision is exported with git archive into a temporary tree under
# .bench_build, this checkout's bench/ directory is copied over it, and the
# benchmark is built against each. Then, for each of 10 pairs and every
# workload, both sides run once with seed i for pair i and the default run
# length (run_seconds in BENCHMARK.json), A first when i is odd and B first
# when i is even. The compare step prints each side's median and quartiles
# per workload and metric, how many pairs B won, and the verdict: a gain
# needs B to win at least 9 of 10 pairs with medians further apart than A's
# interquartile range. The temporary trees are removed on exit.
set -euo pipefail
if [ $# -ne 2 ]; then
  echo "usage: $0 <rev-a> <rev-b>" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs=10
workloads="replay-2d replay-3d replay-tiles farm-mix"

mkdir -p "$root/.bench_build"
tmp="$(mktemp -d "$root/.bench_build/ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

for side in a b; do
  rev="$1"
  [ "$side" = b ] && rev="$2"
  mkdir -p "$tmp/$side"
  git -C "$root" archive "$rev" | tar -x -C "$tmp/$side"
  rm -rf "$tmp/$side/bench"
  cp -R "$root/bench" "$tmp/$side/bench"
  (cd "$tmp/$side/bench" && go build -o "$tmp/$side/cycada-bench" .)
  echo "side $side: $rev ($(git -C "$root" rev-parse --short "$rev"))"
done

for i in $(seq 1 "$pairs"); do
  order="a b"
  [ $((i % 2)) -eq 0 ] && order="b a"
  for w in $workloads; do
    for side in $order; do
      log="$tmp/$side-$w-$i.log"
      if ! (cd "$tmp/$side" && ./cycada-bench -workload "$w" -seed "$i" -trace 0 \
        -out "$tmp/$side/results") >"$log"; then
        echo "pair $i $w side $side: run failed or did not verify:" >&2
        tail -n 5 "$log" >&2
      fi
      grep '^detail ' "$log" >>"$tmp/$side.jsonl" || true
    done
    echo "pair $i/$pairs $w done"
  done
done

"$tmp/b/cycada-bench" compare "$tmp/a.jsonl" "$tmp/b.jsonl"
