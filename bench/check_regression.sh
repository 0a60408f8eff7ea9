#!/bin/sh
# Paired performance gate: time the change against a BASE commit built
# side by side with it, rather than against a figure recorded on another
# day on another machine state.
#
#   bench/check_regression.sh [BASE]
#
# BASE is any git commit-ish; the default is `git merge-base HEAD main`.
# It is checked out into a temporary git worktree (under $TMPDIR) and
# built there; the change is this working tree as it stands.  Each
# timing phase of bench/main.exe (micro, service, load, sweep) then runs
# in 10 pairs, the side that runs first alternating from pair to pair,
# every run on one domain (ICOST_JOBS=1).  Run i of a side writes its
# rows to _bench/<phase>/{base,change}-<i>.json and its output beside
# them in a .log file.  `bench/main.exe -- compare _bench` judges every
# row with icost_bench's rule (Icost_bench_lib.Compare.judge, bound 25%;
# rows named ...-qps are better higher, the rest lower; soak/ rows are
# printed, never judged).  The rule sees each pair divided by its
# geometric mean, so drift of the host between pairs cancels:
#   improved    at least 9 of 10 pairs won, and the medians differ by
#               more than BASE's interquartile range;
#   unresolved  BASE's IQR exceeds 25% of its median and not every pair
#               was won (listed, not failing);
#   regressed   the change's median is worse than BASE's by more than
#               25%, i.e. the median pair slowed by more than 25%;
#   no worse    otherwise.
#
# Functional gates stay absolute inside their phases, on every run:
# service (warm >= 10x cold, snapshot >= 5x, bit-identical replies), load
# (bit-identical replies, 2-shard >= 2x 1-shard qps at no worse p99; the
# chaos soak's zero failed and zero diverged requests, >= 1 kill,
# >= 2 respawns and bounded worst-case latency) and sweep (bit-identical,
# >= 2x on >= 4 cores).  A change run that fails one fails the script; a
# BASE run that fails one is reported and not counted.  `-- stream`'s
# gates (bit-identical to the monolithic graph, bounded heap) run once,
# on the change side only; the phase times nothing.
#
# Exit status 1: a regressed row, a row BASE measured and the change
# lost, or a failed functional gate on the change side.
#
# On a 2-core x86 machine the 10 pairs take ~8 min, plus ~2 min for the
# stream gates and the two builds.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
base=$(git rev-parse --verify "${1:-$(git merge-base HEAD main)}^{commit}")
pairs=10
ICOST_JOBS=1
export ICOST_JOBS
out=$root/_bench
rm -rf "$out"
mkdir -p "$out"
scratch=$(mktemp -d)
trap 'git worktree remove --force "$scratch/base" >/dev/null 2>&1 || true; rm -rf "$scratch"' EXIT
trap 'exit 130' INT TERM
git worktree add --quiet --detach "$scratch/base" "$base"

echo "building BASE $(git rev-parse --short "$base") and the change"
(cd "$scratch/base" && dune build --root . bench/main.exe)
dune build bench/main.exe

# run SIDE PHASE I: one timed run, recorded under _bench/PHASE/
run() {
  if [ "$1" = base ]; then tree=$scratch/base; else tree=$root; fi
  if (cd "$tree" && ./_build/default/bench/main.exe "$2" --json "$out/$2/$1-$3.json") \
    >"$out/$2/$1-$3.log" 2>&1; then
    echo "  $2 $1 $3: ok"
  else
    echo "  $2 $1 $3: functional gate FAILED (_bench/$2/$1-$3.log)"
    echo "$2 $1" >>"$scratch/failed"
  fi
}

status=0
: >"$scratch/failed"
for phase in micro service load sweep; do
  echo "$phase: $pairs pairs"
  mkdir -p "$out/$phase"
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run base "$phase" "$i"
      run change "$phase" "$i"
    else
      run change "$phase" "$i"
      run base "$phase" "$i"
    fi
    i=$((i + 1))
  done
done

echo "stream: functional gates, change side only"
./_build/default/bench/main.exe stream || status=1

echo
./_build/default/bench/main.exe compare "$out" || status=1

for phase in micro service load sweep; do
  nc=$(grep -c "^$phase change$" "$scratch/failed" || true)
  nb=$(grep -c "^$phase base$" "$scratch/failed" || true)
  if [ "$nc" -gt 0 ]; then
    status=1
    if [ "$nb" -gt 0 ]; then
      echo "FAIL: $phase functional gate failed in $nc change run(s); fails at BASE too ($nb run(s))"
    else
      echo "FAIL: $phase functional gate failed in $nc change run(s)"
    fi
  elif [ "$nb" -gt 0 ]; then
    echo "note: $phase functional gate fails at BASE ($nb run(s)); the change passes"
  fi
done
exit "$status"
