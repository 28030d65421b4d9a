#!/usr/bin/env bash
# Paired quality verdict: per-seed best FOM of a parent checkout against
# a change checkout, from the `quality_pairs` bench of `easybo-bench`.
#
#   tools/quality_pairs.sh PARENT CHANGE
#
#   tools/quality_pairs.sh ../parent .
#   EASYBO_REPS=5 tools/quality_pairs.sh ../parent .
#
# Each side's working tree (without `.git/`, `target/` and `perfbench/`)
# is copied into `src-parent/` or `src-change/` under
# `$QUALITY_PAIRS_OUT` (default: a fresh temporary directory; reuse one to
# skip rebuilds) and built there, into `target-parent/` or
# `target-change/`. A parent without the bench gets the change's copy of
# it. `EASYBO_REPS` sets the seeds per cell (default 20). Both sides run
# the same cells on the same seeds, so every line pairs up.
#
# For every cell (circuit × algorithm at B = 15) prints both sides' mean
# best FOM, the mean paired difference (change − parent) and its 95%
# bootstrap interval (10 000 resamples of the seeds), and whether the
# interval favours the change, the parent, or contains zero. Nothing is
# written inside either checkout.

set -euo pipefail

if [ "$#" -ne 2 ]; then
    sed -n '2,8p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=${QUALITY_PAIRS_OUT:-$(mktemp -d -t quality_pairs.XXXXXX)}
mkdir -p "$out"
runs=$(mktemp -d "$out/runs.XXXXXX")
bench=crates/bench/benches/quality_pairs.rs

stage() { # side checkout: copy the working tree to $out/src-side
    local src="$out/src-$1"
    rm -rf "$src"
    mkdir -p "$src"
    tar -C "$2" --exclude=./.git --exclude=./target --exclude=./perfbench \
        -cf - . | tar -C "$src" -xf -
    if [ ! -f "$src/$bench" ]; then
        cp "$change/$bench" "$src/$bench"
        printf '\n[[bench]]\nname = "quality_pairs"\nharness = false\n' \
            >>"$src/crates/bench/Cargo.toml"
    fi
}
run() { # side
    local started=$SECONDS
    CARGO_TARGET_DIR="$out/target-$1" cargo bench --quiet --offline \
        --manifest-path "$out/src-$1/Cargo.toml" -p easybo-bench --bench quality_pairs \
        >"$runs/$1.tsv" 2>"$runs/$1.log"
    echo "$1: $(wc -l <"$runs/$1.tsv") runs in $((SECONDS - started)) s (build included)" \
        | tee -a "$runs/header.txt"
}

stage parent "$parent"
stage change "$change"
run parent
run change

python3 - "$runs" <<'EOF'
import random, statistics, sys

runs = sys.argv[1]


def load(side):
    rows = {}
    for line in open(f"{runs}/{side}.tsv"):
        cell, seed, best = line.rstrip("\n").split("\t")
        rows.setdefault(cell, {})[int(seed)] = float(best)
    return rows


par, chg = load("parent"), load("change")
rng = random.Random(2020)
print(f"runs in {runs}")
print(f"{'cell':<24} {'seeds':>5} {'parent mean':>12} {'change mean':>12} "
      f"{'mean diff':>10} {'95% interval':>22}  verdict")
for cell in sorted(set(par) & set(chg)):
    seeds = sorted(set(par[cell]) & set(chg[cell]))
    diffs = [chg[cell][s] - par[cell][s] for s in seeds]
    boot = sorted(
        statistics.fmean(rng.choices(diffs, k=len(diffs))) for _ in range(10_000)
    )
    lo, hi = boot[249], boot[9_749]
    verdict = "favours change" if lo > 0 else "favours parent" if hi < 0 else "contains zero"
    print(f"{cell:<24} {len(seeds):>5} {statistics.fmean(par[cell][s] for s in seeds):>12.4g} "
          f"{statistics.fmean(chg[cell][s] for s in seeds):>12.4g} {statistics.fmean(diffs):>+10.4g} "
          f"{f'[{lo:+.4g}, {hi:+.4g}]':>22}  {verdict}")
EOF
