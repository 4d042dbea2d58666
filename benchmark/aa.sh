#!/usr/bin/env bash
# A/A check: the whole suite twice on one build, the two sides alternating
# run by run so that both see the same spells of a shared host. Fails unless
# `compare` calls every (workload, end-to-end metric) pair `ok` — every timing
# within its bound, every exact metric identical to the bit.
#
#   benchmark/aa.sh            # full runs, REPEATS (default 3) per workload and side
#   benchmark/aa.sh --quick    # seconds: the same paths on tiny worlds
set -euo pipefail
cd "$(dirname "$0")/.."
repeats="${REPEATS:-3}"
bench() { cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

rm -f benchmark/out/aa-A.json benchmark/out/aa-B.json
for ((r = 1; r <= repeats; r++)); do
    for workload in experiment_cold serve_mixed mesh_round solve_scale; do
        for side in A B; do
            bench run --workload "$workload" --trace --append --out "benchmark/out/aa-$side.json" "$@" >/dev/null
        done
    done
done
verdicts=$(bench compare benchmark/out/aa-A.json benchmark/out/aa-B.json) || { echo "$verdicts"; exit 1; }
echo "$verdicts"
if grep -Eq ' (improved|regressed|unresolved)$' <<<"$verdicts"; then
    echo "aa.sh: two runs of the same build disagree" >&2
    exit 1
fi
