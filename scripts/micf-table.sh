#!/usr/bin/env bash
# Train the five quality runs with the sources of one checkout and print
# their test MicF as a Markdown table, one row per run:
#
#   scripts/micf-table.sh [--seeds N] CHECKOUT
#
# Each cell reads full / no_sem / no_dis, the test MicF of `cosd eval` in
# that mode, to three decimals (a perfect score prints as 1.0); one
# `cosd eval --mode full no_sem no_dis` call per run writes all three
# reports, so CHECKOUT's eval must take several modes. The runs:
#   - the base run at data seeds D = 13, 5 and 3: `cosd synth --seed D`,
#     then `cosd train --dataset synthetic --h 3 --epochs 10 --trials 1
#     --lda-sweeps 300 --seed 17`;
#   - the six-target run: bench/multi_target.build(out, 1) of this
#     checkout, then `cosd train --dataset semeval --h 3 --epochs 3
#     --trials 1 --seed 1`;
#   - the base run at D = 13 with `cosd synth --noise 3.0`.
# With --seeds N, each row runs N times over paired data and training
# seeds: run k = 0 .. N-1 adds 100 k to both of the row's seeds, so run 0
# is the one-seed row. Each mode then reads as the mean of the N runs'
# MicF, then their min–max in parentheses. Without --seeds, N is 1 and
# the table is the one-seed table.
# cosd runs as `python3 -m cosd.cli` with PYTHONPATH set to CHECKOUT/src, so
# running it on two checkouts compares their sources on the same commands.
# Every run is seeded, so two runs print the same bytes. The corpora and
# run directories go to a temporary directory, removed on exit. One seed
# set takes about 6 s on a 2-core host. It exits non-zero at the first
# command that does; a usage error exits 2.
set -euo pipefail

usage() {
  echo "usage: $0 [--seeds N] CHECKOUT" >&2
  exit 2
}
seeds=1
if [ $# -ge 1 ] && [ "$1" = "--seeds" ]; then
  [ $# -ge 2 ] || usage
  seeds=$2
  shift 2
  [[ $seeds =~ ^[1-9][0-9]*$ ]] || usage
fi
[ $# -eq 1 ] || usage
here=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$(cd "$1" && pwd)/src:$here"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cosd() {
  python3 -m cosd.cli "$@" > /dev/null
}

# $1 = row name, then one run directory per seed set: evaluates each run's
# test split in every mode with one call and prints the row
row() {
  local name=$1 run
  shift
  for run in "$@"; do
    cosd eval --run "$run" --split test --mode full no_sem no_dis
  done
  python3 - "$name" "$@" <<'EOF'
import csv, sys
from pathlib import Path


def cell(value):
    text = f"{value:.3f}"
    return "1.0" if text == "1.000" else text


name, *runs = sys.argv[1:]
cells = []
for mode in ("full", "no_sem", "no_dis"):
    micf = []
    for run in runs:
        with open(Path(run) / f"report-test-{mode}.csv",
                  encoding="utf-8") as fh:
            (mean,) = [r for r in csv.DictReader(fh) if r["run"] == "mean"]
        micf.append(float(mean["MicF"]))
    cells.append(cell(micf[0]) if len(micf) == 1 else
                 f"{cell(sum(micf) / len(micf))} "
                 f"({cell(min(micf))}–{cell(max(micf))})")
print(f"| {name} | {' / '.join(cells)} |")
EOF
}

# $1 = row name, $2 = data seed, then extra `cosd synth` arguments
base_run() {
  local name=$1 seed=$2 k dir runs=()
  shift 2
  for ((k = 0; k < seeds; k++)); do
    dir=$(mktemp -d "$work/base-XXXX")
    cosd synth --seed $((seed + 100 * k)) --out "$dir/data" "$@"
    cosd train --dataset synthetic --data "$dir/data" \
      --embeddings "$dir/data/synth.emb1" --out-dir "$dir/run" --h 3 \
      --epochs 10 --trials 1 --lda-sweeps 300 --seed $((17 + 100 * k))
    runs+=("$dir/run")
  done
  row "$name" "${runs[@]}"
}

six_target_run() {
  local k dir runs=()
  for ((k = 0; k < seeds; k++)); do
    dir="$work/six-$k"
    python3 -c 'import sys; from pathlib import Path
from bench import multi_target
multi_target.build(Path(sys.argv[1]), int(sys.argv[2]))' "$dir/data" \
      $((1 + 100 * k))
    cosd train --dataset semeval --data "$dir/data" \
      --embeddings "$dir/data/multi.emb1" --out-dir "$dir/run" --h 3 \
      --epochs 3 --trials 1 --seed $((1 + 100 * k))
    runs+=("$dir/run")
  done
  row "six-target run" "${runs[@]}"
}

if [ "$seeds" -eq 1 ]; then
  echo "| run | test MicF: full / \`no_sem\` / \`no_dis\` |"
else
  echo "| run | test MicF over $seeds seed sets, mean (min–max):" \
    "full / \`no_sem\` / \`no_dis\` |"
fi
echo "| --- | --- |"
base_run "base run, D = 13" 13
base_run "base run, D = 5" 5
base_run "base run, D = 3" 3
six_target_run
base_run "base run, D = 13, \`--noise 3.0\`" 13 --noise 3.0
