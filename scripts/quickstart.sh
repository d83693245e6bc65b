#!/usr/bin/env bash
# Run every command of the README quickstart on a small generated corpus
# and write all of its outputs under OUT_DIR:
#
#   PYTHONPATH=src scripts/quickstart.sh OUT_DIR
#
# cosd runs as `python3 -m cosd.cli`, so PYTHONPATH picks the sources;
# its relative entries are taken from the directory the script starts in.
# OUT_DIR receives the corpus (data/), the topics CSV and stdout (topics/),
# the run directory (run/) with the eval reports of the train, val and
# test splits in each mode, the predict TSV of each mode (preds/), and the
# inspect dumps, retrieval stdout and attention CSV (inspect/). Paths are relative to OUT_DIR, so two runs
# in the same OUT_DIR record the same paths in run.json. It exits non-zero
# at the first command that does, and names that command on stderr.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
# after the cd below, Python would resolve a relative entry against OUT_DIR
if [ -n "${PYTHONPATH:-}" ]; then
  IFS=: read -ra entries <<< "$PYTHONPATH"
  absolute=()
  for entry in "${entries[@]}"; do
    [[ $entry = /* ]] || entry=$PWD/$entry
    absolute+=("$entry")
  done
  PYTHONPATH=$(IFS=:; echo "${absolute[*]}")
  export PYTHONPATH
fi
mkdir -p "$1"
cd "$1"
mkdir -p topics preds inspect
cosd() {
  python3 -m cosd.cli "$@" || {
    local status=$?
    echo "quickstart: \`cosd $*\` exited $status" >&2
    return "$status"
  }
}

cosd synth --out data --seed 13 --n-train 90 --n-val 30 --n-test 30
cosd topics --dataset synthetic --data data --h-range 2:3 --lda-sweeps 50 \
  --out topics/topic-sweep.csv > topics/stdout.txt
cosd train --dataset synthetic --data data --embeddings data/synth.emb1 \
  --out-dir run --h 3 --epochs 2 --trials 2 --lda-sweeps 100 --seed 17
for mode in full no_dis no_sem; do
  for split in train val test; do
    cosd eval --run run --split "$split" --mode "$mode"
  done
  cosd predict --run run --in data/test.tsv --mode "$mode" \
    --out "preds/$mode.tsv"
done
id=$(cut -f1 data/train.tsv | sed -n 2p)
cosd inspect --run run --dump-graph inspect/lap.txt
cosd inspect --run run --dump-final-reps inspect/reps.txt
cosd inspect --run run --similar-to "$id" --k 5 > inspect/similar.txt
cosd inspect --run run --export-attention "$id" \
  --attention-out inspect/attention.csv
