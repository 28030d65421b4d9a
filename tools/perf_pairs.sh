#!/usr/bin/env bash
# A/B pairs of the repository benchmark (perfbench): a parent checkout
# against a change checkout, alternating which side runs first.
#
#   tools/perf_pairs.sh PARENT CHANGE WORKLOAD PAIRS SEED [PERFBENCH ARGS...]
#
#   tools/perf_pairs.sh ../parent . class_e_ckpt 10 1
#   tools/perf_pairs.sh ../parent . class_e_ckpt 1 1 --seconds 0 --trace 1
#
# PERFBENCH ARGS default to `--seconds 20 --trace 0`. Each side's working
# tree (without `.git/`, `target/`, `perfbench/target/` and
# `perfbench/.work/`) is copied into a sibling directory `src-parent/` or
# `src-change/` under `$PERF_PAIRS_OUT` (default: a fresh temporary
# directory; reuse one to skip rebuilds, as the copies keep their
# modification times). Each side is built there, into `target-parent/`
# or `target-change/`, and runs from there, so both sides write their
# class-E snapshot (`perfbench/.work/`, found through the crate's
# manifest directory) on the same filesystem; the header names it for
# each side. Each call keeps its runs' output in a new subdirectory.
# Nothing is written inside either checkout.
#
# Each run's host line (the first JSON line perfbench prints) is kept
# beside its result, and both sides' `units` and `wait_samples` per run
# are printed first: the work a run finished and the latency samples it
# stored, which memory metrics such as `peak_rss_mb` track.
#
# For every metric the runs report, prints the first quartile, median
# and third quartile of each side, the median change, and the number of
# pairs the change won (and tied). A metric that `BENCHMARK.json` (read
# from the change checkout) lists as end-to-end is flagged `OVER BOUND`
# when its median moved the wrong way by more than its bound.

set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,9p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=$5
shift 5
args=("$@")
if [ "${#args[@]}" -eq 0 ]; then
    args=(--seconds 20 --trace 0)
fi
out=${PERF_PAIRS_OUT:-$(mktemp -d -t perf_pairs.XXXXXX)}
mkdir -p "$out"
runs=$(mktemp -d "$out/$workload-seed$seed.XXXXXX")

stage() { # side checkout: copy the working tree to $out/src-side, build it there
    local src="$out/src-$1"
    rm -rf "$src"
    mkdir -p "$src"
    tar -C "$2" --exclude=./.git --exclude=./target --exclude=./perfbench/target \
        --exclude=./perfbench/.work -cf - . | tar -C "$src" -xf -
    CARGO_TARGET_DIR="$out/target-$1" cargo build --quiet --release --offline \
        --manifest-path "$src/perfbench/Cargo.toml"
    echo "$1 work dir $src/perfbench/.work on $(df -P "$src" | awk 'NR == 2 {print $1 " at " $6}')" \
        >>"$runs/header.txt"
}
run() { # side pair
    local log="$runs/$1-$2.txt"
    (cd "$out/src-$1" && "$out/target-$1/release/easybo-perfbench" \
        --workload "$workload" --seed "$seed" "${args[@]}") >"$log"
    tail -n 1 "$log" >>"$runs/$1.jsonl"
    grep -m 1 '"wait_samples"' "$log" >>"$runs/$1.host.jsonl"
}

stage parent "$parent"
stage change "$change"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$i"
        run change "$i"
    else
        run change "$i"
        run parent "$i"
    fi
    echo "pair $i/$pairs done" >&2
done
cat "$runs/header.txt"

python3 - "$runs" "$change/BENCHMARK.json" "$workload" "$seed" "${args[*]}" <<'EOF'
import json, sys

out, bench_path, workload, seed, args = sys.argv[1:]
bench = json.load(open(bench_path))
bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
better = dict((m["name"], m["better"]) for m in bench.get("per_layer", []))
better.update({k: v[0] for k, v in bounds.items()})


def load(side):
    return [json.loads(line) for line in open(f"{out}/{side}.jsonl")]


def quartiles(xs):
    xs = sorted(xs)

    def at(q):  # linear interpolation between closest ranks
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


par, chg = load("parent"), load("change")
print(f"workload {workload}  seed {seed}  args {args}  pairs {len(par)}  runs in {out}")
for side in ("parent", "change"):
    hosts = [json.loads(line) for line in open(f"{out}/{side}.host.jsonl")]
    units = " ".join(str(h["units"]) for h in hosts)
    waits = " ".join(str(h["wait_samples"]) for h in hosts)
    print(f"{side}: units per run {units}; wait samples per run {waits}")
for side, runs in (("parent", par), ("change", chg)):
    bad = [i + 1 for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
    if bad:
        print(f"{side}: runs {bad} report incorrect or failed operations")
names = [n for n in par[0]["metrics"] if all(n in r["metrics"] for r in par + chg)]
print(f"{'metric':<28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'change':>8} {'wins':>6}")
for name in names:
    p = [r["metrics"][name]["value"] for r in par]
    c = [r["metrics"][name]["value"] for r in chg]
    pq, cq = quartiles(p), quartiles(c)
    rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
    sense = better.get(name, "lower")
    wins = sum((b < a) if sense == "lower" else (b > a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    flag = ""
    if name in bounds:
        worse = rel if sense == "lower" else -rel
        if worse > bounds[name][1]:
            flag = f"  OVER BOUND {bounds[name][1]}"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    tied = f" ({ties} tied)" if ties else ""
    print(f"{name:<28} {fmt(pq):>32} {fmt(cq):>32} {rel:>+8.1%} {wins:>3}/{len(p)}{tied}{flag}")
EOF
