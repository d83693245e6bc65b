#!/usr/bin/env bash
# Run the quickstart on a small generated corpus with the sources of two
# checkouts, then report which outputs differ between them.
#
#   scripts/compare-outputs.sh BASE_CHECKOUT HEAD_CHECKOUT WORK_DIR
#
# Each side runs this checkout's scripts/quickstart.sh once, with PYTHONPATH
# set to the side's sources, so both sides run the same commands (see that
# script for the outputs). Both sides run in WORK_DIR/side, so run.json
# records the same absolute paths, and are then moved to WORK_DIR/base and
# WORK_DIR/head. The report on stdout is Markdown: how each side's
# quickstart ended, then `diff -rq` of the two trees, leaving out
# timings.json (wall times). The quickstart stops at its first failing
# command, which the report names with its last error line; every output
# of the commands after it then shows as on the other side only. It
# exits 0 after every comparison it completes: it reports, and never
# judges. A usage error exits 2.
set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT WORK_DIR" >&2
  exit 2
fi
quickstart=$(cd "$(dirname "$0")" && pwd)/quickstart.sh
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)

# one side: $1 = checkout, $2 = output directory; prints a line if the
# quickstart failed, with the last two lines it wrote to stderr: the
# command's error and the quickstart's line naming that command
run_side() {
  rm -rf "$2"
  PYTHONPATH="$1/src" "$quickstart" "$2" > /dev/null 2> "$work/stderr.txt" \
    || echo "\`scripts/quickstart.sh\` exited $?:" \
      "$(tail -n 2 "$work/stderr.txt" | paste -sd ' ' -)"
  rm -f "$work/stderr.txt"
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
