#!/usr/bin/env bash
# Determinism self-check for perfbench: two short runs of one seed must
# report identical exact counts (fixpoint atoms, answer counts, snapshot
# bytes, trigger firings), and the validation seed must pass every output
# check. Run from anywhere: bash perfbench/selfcheck.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

VALIDATION_SEED=7919

run() {
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload lubm-build --seed "$1" --seconds 1 --trace 0
}

exact() {
    sed -n 's/.*"exact": \({[^}]*}\).*/\1/p'
}

first=$(run 42 | exact)
second=$(run 42 | exact)
if [ -z "$first" ] || [ "$first" != "$second" ]; then
    echo "selfcheck: exact counts differ between two runs of seed 42:" >&2
    echo "  $first" >&2
    echo "  $second" >&2
    exit 1
fi

if ! run "$VALIDATION_SEED" | tail -n 1 | grep -q '"correct": true'; then
    echo "selfcheck: validation seed $VALIDATION_SEED failed an output check" >&2
    exit 1
fi
echo "selfcheck: seed 42 counts repeat exactly: $first"
echo "selfcheck: validation seed $VALIDATION_SEED passes every output check"
