#!/usr/bin/env bash
# Train the five quality runs with the sources of one checkout and print
# their test MicF as a Markdown table, one row per run:
#
#   scripts/micf-table.sh CHECKOUT
#
# Each cell reads full / no_sem / no_dis, the test MicF of `cosd eval` in
# that mode, to three decimals (a perfect score prints as 1.0). The runs:
#   - the base run at data seeds D = 13, 5 and 3: `cosd synth --seed D`,
#     then `cosd train --dataset synthetic --h 3 --epochs 10 --trials 1
#     --lda-sweeps 300 --seed 17`;
#   - the six-target run: bench/multi_target.build(out, 1) of this
#     checkout, then `cosd train --dataset semeval --h 3 --epochs 3
#     --trials 1 --seed 1`;
#   - the base run at D = 13 with `cosd synth --noise 3.0`.
# cosd runs as `python3 -m cosd.cli` with PYTHONPATH set to CHECKOUT/src, so
# running it on two checkouts compares their sources on the same commands.
# Every run is seeded, so two runs print the same bytes. The corpora and
# run directories go to a temporary directory, removed on exit. It takes
# about 35 s on a 2-core host. It exits non-zero at the first
# command that does; a usage error exits 2.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 CHECKOUT" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$(cd "$1" && pwd)/src:$here"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cosd() {
  python3 -m cosd.cli "$@" > /dev/null
}

# $1 = row name, $2 = run directory: evaluates the test split in each mode
# and prints the row
row() {
  for mode in full no_sem no_dis; do
    cosd eval --run "$2" --split test --mode "$mode"
  done
  python3 - "$@" <<'EOF'
import csv, sys
from pathlib import Path

name, run = sys.argv[1:]
cells = []
for mode in ("full", "no_sem", "no_dis"):
    with open(Path(run) / f"report-test-{mode}.csv", encoding="utf-8") as fh:
        (mean,) = [r for r in csv.DictReader(fh) if r["run"] == "mean"]
    cell = f"{float(mean['MicF']):.3f}"
    cells.append("1.0" if cell == "1.000" else cell)
print(f"| {name} | {' / '.join(cells)} |")
EOF
}

# $1 = row name, $2 = data seed, then extra `cosd synth` arguments
base_run() {
  local name=$1 seed=$2 dir
  shift 2
  dir=$(mktemp -d "$work/base-XXXX")
  cosd synth --seed "$seed" --out "$dir/data" "$@"
  cosd train --dataset synthetic --data "$dir/data" \
    --embeddings "$dir/data/synth.emb1" --out-dir "$dir/run" --h 3 \
    --epochs 10 --trials 1 --lda-sweeps 300 --seed 17
  row "$name" "$dir/run"
}

echo "| run | test MicF: full / \`no_sem\` / \`no_dis\` |"
echo "| --- | --- |"
base_run "base run, D = 13" 13
base_run "base run, D = 5" 5
base_run "base run, D = 3" 3
python3 -c 'import sys; from pathlib import Path
from bench import multi_target
multi_target.build(Path(sys.argv[1]), 1)' "$work/six/data"
cosd train --dataset semeval --data "$work/six/data" \
  --embeddings "$work/six/data/multi.emb1" --out-dir "$work/six/run" --h 3 \
  --epochs 3 --trials 1 --seed 1
row "six-target run" "$work/six/run"
base_run "base run, D = 13, \`--noise 3.0\`" 13 --noise 3.0
