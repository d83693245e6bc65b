#!/usr/bin/env bash
# Run the quickstart on a small generated corpus with the sources of two
# checkouts, then report which outputs differ between them.
#
#   scripts/compare-outputs.sh BASE_CHECKOUT HEAD_CHECKOUT WORK_DIR
#
# Each side writes the corpus, the run directory (with the eval reports of
# every mode, with and without --score-norm), the predict TSVs of the same
# six settings and the inspect dumps. Both sides run in WORK_DIR/side, so
# run.json records the same absolute paths, and are then moved to
# WORK_DIR/base and WORK_DIR/head. The report on stdout is
# Markdown: each side's failed commands, then `diff -rq` of the two trees,
# leaving out timings.json (wall times). It always exits 0: it reports, and
# never judges.
set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT WORK_DIR" >&2
  exit 0
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)

# one side: $1 = checkout, $2 = output directory; prints each failed command
run_side() {
  local src=$1/src out=$2
  rm -rf "$out" && mkdir -p "$out/preds" && cd "$out" || return
  cosd() {
    PYTHONPATH="$src" python3 -m cosd.cli "$@" > /dev/null 2>&1 \
      || echo "- \`cosd $*\` exited $?"
  }
  cosd synth --out data --seed 13 --n-train 90 --n-val 30 --n-test 30
  cosd train --dataset synthetic --data data --embeddings data/synth.emb1 \
    --out-dir run --h 3 --epochs 2 --trials 2 --lda-sweeps 100 --seed 17
  for mode in full no_dis no_sem; do
    for norm in "" --score-norm; do
      cosd eval --run run --split test --mode "$mode" $norm
      cosd predict --run run --in data/test.tsv --mode "$mode" $norm \
        --out "preds/$mode${norm:+-zscore}.tsv"
    done
  done
  cosd inspect --run run --dump-graph preds/lap.txt
  cosd inspect --run run --dump-final-reps preds/reps.txt
}

echo "## Quickstart outputs: base against head"
echo
for side in base head; do
  checkout=$base
  [ "$side" = head ] && checkout=$head
  failed=$(run_side "$checkout" "$work/side")
  rm -rf "${work:?}/$side" && mv "$work/side" "$work/$side"
  echo "**$side** (\`$checkout\`): ${failed:-every command exited 0}"
  echo
done
differ=$(diff -rq --exclude=timings.json "$work/base" "$work/head" \
  | sed "s|$work/||g")
files=$(find "$work/head" -type f ! -name timings.json | wc -l)
if [ -z "$differ" ]; then
  echo "All $files output files are byte-identical."
else
  echo "Of $files output files, these differ or exist on one side only:"
  echo
  echo '```'
  echo "$differ"
  echo '```'
fi
exit 0
