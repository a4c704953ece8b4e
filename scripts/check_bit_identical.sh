#!/usr/bin/env bash
# Checks that two checkouts of hmn write the same bits, by README's
# "Checking a bit-identical change" recipe:
#
#   scripts/check_bit_identical.sh PARENT CHANGE
#
# In each checkout, with its own src on PYTHONPATH, it trains
# configs/synth_smoke.json and configs/synth_desk.json, runs
# `hmn gradcheck --t 0,1,2`, builds perfbench's eval_frozen and analyze_t3
# checkpoints and, at 2 and at 1 BLAS threads, runs every reader of the
# analyze_t3 one: the hit-rate analysis (both branches, pooled and every
# token, batch sizes 64 and 7), the weight-profile and consistency
# analyses of each branch, and `hmn eval`, whose JSON line holds the test
# accuracy. All outputs go to a fresh directory under ${TMPDIR:-/tmp},
# outside both checkouts. Then it compares every file but the wall-clock
# timings.csv, names each one that differs or exists on one side only, and
# exits 1 if there is any; on success it removes the outputs.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
work=$(mktemp -d)
echo "outputs in $work"

run() {  # run TREE OUT: every output of one checkout into OUT
    local tree=$1 out=$2
    export PYTHONPATH="$tree/src"
    for config in synth_smoke synth_desk; do
        python3 -m hmn.cli train --config "$tree/configs/$config.json" \
            --out "$out/$config" > /dev/null
    done
    python3 -m hmn.cli gradcheck --t 0,1,2 > "$out/gradcheck.json"
    echo "$tree gradcheck: $(cat "$out/gradcheck.json")"
    mkdir -p "$out/b" "$out/a"
    python3 "$tree/perfbench/worker.py" build --workload eval_frozen --seed 300 --tmp "$out/b"
    python3 "$tree/perfbench/worker.py" build --workload analyze_t3 --seed 300 --tmp "$out/a"
    for threads in 2 1; do
        export OPENBLAS_NUM_THREADS=$threads
        for bs in 64 7; do
            for tok in "" --all-tokens; do
                python3 -m hmn.cli analyze hit-rate \
                    --ckpt "$out/a/desk.ckpt" --branch both $tok --batch-size $bs \
                    --out "$out/hit_t$threads/bs$bs$tok" > /dev/null
            done
        done
        for branch in local global; do
            for what in weights consistency; do
                python3 -m hmn.cli analyze $what --ckpt "$out/a/desk.ckpt" \
                    --branch $branch --out "$out/${what}_t$threads/$branch" > /dev/null
            done
        done
        python3 -m hmn.cli eval --ckpt "$out/a/desk.ckpt" \
            | sed "s|$out|OUT|g" > "$out/eval_t$threads.json"
    done
    unset OPENBLAS_NUM_THREADS
}

run "$parent" "$work/parent"
run "$change" "$work/change"

listing() {
    (cd "$1" && find . -type f ! -name timings.csv | sort)
}
status=0
while read -r file; do
    if [ ! -f "$work/parent/$file" ] || [ ! -f "$work/change/$file" ]; then
        echo "only on one side: $file"
        status=1
    elif ! cmp -s "$work/parent/$file" "$work/change/$file"; then
        echo "differs: $file"
        status=1
    fi
done < <(sort -u <(listing "$work/parent") <(listing "$work/change"))

if [ $status -eq 0 ]; then
    echo "bit-identical: $(listing "$work/parent" | wc -l) files"
    rm -rf "$work"
fi
exit $status
