#!/bin/sh
# Paired A/B runs of campaign-bench: N pairs of untraced runs of a parent
# tree (A) and a changed tree (B) on the same seed, alternating which side
# runs first, then `campaign-bench compare` over them and, per workload and
# end-to-end metric, the number of pairs in which the change did better.
#
# Usage:
#
#     scripts/ab.sh A_TREE B_TREE N SEED WORKLOAD[,WORKLOAD...] [BENCH_ARGS...]
#
# Each tree must hold a built benchmark:
#
#     cargo build --release --offline --manifest-path campaign-bench/Cargo.toml
#
# Runs happen in the current directory: every run's output is appended to
# `A.jsonl` or `B.jsonl` there, and the benchmark keeps its scratch files in
# `.campaign-bench/`.  BENCH_ARGS go to every run, for example
# `--programs sha --faults 8` for a quick check.  Win counts cover this
# invocation's pairs only; `compare` reads every run in the two files.
# A failed run stops the script; a regression `compare` reports does not,
# so read its verdicts.  Needs jq.
set -eu

if [ $# -lt 5 ]; then
    sed -n '2,20p' "$0" >&2
    exit 2
fi
a_tree=$1 b_tree=$2 pairs=$3 seed=$4 workloads=$5
shift 5

bench() {
    bin=$1/campaign-bench/target/release/campaign-bench
    if [ ! -x "$bin" ]; then
        echo "ab.sh: $bin is not built" >&2
        exit 2
    fi
    echo "$bin"
}
a_bin=$(bench "$a_tree")
b_bin=$(bench "$b_tree")

wins=$(mktemp)
trap 'rm -f "$wins" "$wins".A "$wins".B "$wins".a "$wins".b' EXIT

# The end-to-end metric values of the record line in run output $1, one
# `name value` line each.
values() {
    grep '^{' "$1" | jq -r 'select(has("workload")) | .metrics
        | to_entries[] | "\(.key) \(.value.value)"' | sort
}

# One run of side $1 (A or B) on workload $2, with BENCH_ARGS: its output
# is appended to `$1.jsonl` and kept in `$wins.$1` for the pairing.
run() {
    side=$1 workload=$2
    shift 2
    if [ "$side" = A ]; then bin=$a_bin; else bin=$b_bin; fi
    "$bin" --workload "$workload" --seed "$seed" --trace 0 "$@" >"$wins.$side"
    cat "$wins.$side" >>"$side.jsonl"
}

i=1
while [ "$i" -le "$pairs" ]; do
    for w in $(echo "$workloads" | tr , ' '); do
        if [ $((i % 2)) -eq 1 ]; then first=A second=B; else first=B second=A; fi
        echo "pair $i/$pairs $w: $first then $second" >&2
        run "$first" "$w" "$@"
        run "$second" "$w" "$@"
        values "$wins.A" >"$wins.a"
        values "$wins.B" >"$wins.b"
        join "$wins.a" "$wins.b" | sed "s/^/$w /" >>"$wins"
    done
    i=$((i + 1))
done

"$b_bin" compare A.jsonl B.jsonl || true

# Per workload and end-to-end metric: pairs in which B beat A, in the
# direction BENCHMARK.json gives.
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$b_tree/BENCHMARK.json" |
    awk -v pairs="$pairs" '
        NR == FNR { better[$1] = $2; next }
        ($2 in better) && $3 != "null" && $4 != "null" {
            key = $1 " " $2
            if (!(key in n)) order[++keys] = key
            n[key]++
            if ((better[$2] == "higher" && $4 > $3) || (better[$2] == "lower" && $4 < $3))
                k[key]++
        }
        END {
            for (j = 1; j <= keys; j++) {
                split(order[j], f, " ")
                printf "%s %s: change better in %d of %d pairs\n", f[1], f[2], k[order[j]], n[order[j]]
            }
        }
    ' - "$wins"
