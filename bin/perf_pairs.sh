#!/bin/sh
# Alternating parent/change pairs for perf/'s claim protocol.
#
#   bin/perf_pairs.sh REV WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS] [SEED]
#
# Unpacks revision REV with git archive into _pairs/parent, builds
# perf/main.exe there and in this checkout (working tree included) once,
# then for each workload in the comma-separated list runs PAIRS pairs
# (default 10) of
#
#   perf/main.exe --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# (SECONDS default 10, SEED default 1), the parent first in odd pairs and
# the change first in even ones.  For each end-to-end metric it prints
# both sides' quartiles, the gap between the medians, the parent's IQR
# as a share of its median, the pairs the change won and a verdict
# against the metric's bound in BENCHMARK.json (perf/README.md's claim
# protocol):
#
#   gain        at least 9 in 10 pairs won and a median gap wider than
#               the parent's IQR
#   worse       the change's median is worse than the parent's by more
#               than the bound
#   unresolved  the parent's IQR is wider than the bound, and not every
#               change run reads better than every parent run
#   within      everything else
#
# then whether every run ended with the same digest.  Raw logs stay in
# _pairs/WORKLOAD/.  Nothing under perf/ is touched.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 REV WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS] [SEED]" >&2
  exit 2
fi
rev=$1 wls=$2 pairs=${3:-10} seconds=${4:-10} seed=${5:-1}

cd "$(git rev-parse --show-toplevel)"
dir=_pairs
rm -rf "$dir"
mkdir -p "$dir/parent"
git archive "$rev" | tar -x -C "$dir/parent"
for tree in "$dir/parent" .; do
  (cd "$tree" && dune build --root . --cache=disabled perf/main.exe)
done

# "name better bound" for each end-to-end metric of BENCHMARK.json.
awk '
  /"end_to_end"/ { on = 1 }
  /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
  on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' BENCHMARK.json > "$dir/bounds"

# One run: appends "side pair metric value" lines, and "side pair digest
# HEX", to $out/runs.
run() {
  side=$1 tree=$2 i=$3
  log=$out/$side.$i.log
  if ! (cd "$tree" && ./_build/default/perf/main.exe --workload "$wl" \
          --seed "$seed" --seconds "$seconds" --trace 0) > "$log" 2>&1; then
    echo "$side run $i of $wl failed; see $log" >&2
    exit 1
  fi
  tail -n 1 "$log" | grep -o '"[a-z_0-9]*": {"value": [^,}]*' |
    sed "s/^\"\([a-z_0-9]*\)\": {\"value\": \(.*\)$/$side $i \1 \2/" >> "$out/runs"
  awk -v s="$side" -v i="$i" '$1 == "digest" { print s, i, "digest", $2 }' \
    "$log" >> "$out/runs"
}

# The table for workload $wl, from $out/runs.
report() {
  awk -v wl="$wl" -v rev="$rev" -v seed="$seed" -v secs="$seconds" -v np="$pairs" '
# Quartiles as Python statistics.quantiles(n=4) computes them, which is
# what perf/main.exe reports for its five or more reps.
function quart(a, n, k,   m, j, d) {
  if (n == 1) return a[1]
  m = n + 1; j = int(k * m / 4)
  if (j < 1) j = 1
  if (j > n - 1) j = n - 1
  d = k * m - 4 * j
  return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
function sorted(side, name, out,   n, i, j, x) {
  n = 0
  for (i = 1; i <= np; i++)
    if ((side, i, name) in v) out[++n] = v[side, i, name]
  for (i = 2; i <= n; i++) {
    x = out[i]
    for (j = i - 1; j >= 1 && out[j] > x; j--) out[j + 1] = out[j]
    out[j + 1] = x
  }
  return n
}
NR == FNR { better[$1] = $2; bound[$1] = $3; next }
$3 == "digest" { dg[$1, $2] = $4; next }
{ v[$1, $2, $3] = $4 + 0; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
END {
  printf "%s  seed %s  --seconds %s  %d pairs  parent %s\n", wl, seed, secs, np, rev
  printf "%-22s %34s %34s %8s %7s %6s  %s\n", "metric", "parent q1 / median / q3",
    "change q1 / median / q3", "gap", "IQR", "won", "verdict"
  for (k = 1; k <= nm; k++) {
    name = order[k]
    n = sorted("parent", name, p); nc = sorted("change", name, c)
    pm = quart(p, n, 2); cm = quart(c, n, 2)
    p1 = quart(p, n, 1); p3 = quart(p, n, 3)
    higher = (better[name] == "higher")
    won = 0
    for (i = 1; i <= np; i++) {
      a = v["parent", i, name]; b = v["change", i, name]
      if ((higher && b > a) || (!higher && b < a)) won++
    }
    gap = pm == 0 ? 0 : (cm - pm) / pm
    iqr = pm == 0 ? 0 : (p3 - p1) / pm
    loss = higher ? -gap : gap
    d = cm - pm; if (d < 0) d = -d
    apart = higher ? c[1] > p[n] : c[nc] < p[1]
    if (!(name in bound)) verdict = "-"
    else if (10 * won >= 9 * np && loss < 0 && d > p3 - p1) verdict = "gain"
    else if (loss > bound[name]) verdict = "worse"
    else if (iqr > bound[name] && !apart) verdict = "unresolved"
    else verdict = "within"
    printf "%-22s %10.6g / %10.6g / %10.6g %10.6g / %10.6g / %10.6g %+7.2f%% %6.2f%% %3d/%d  %s\n",
      name, p1, pm, p3, quart(c, n, 1), cm, quart(c, n, 3),
      100 * gap, 100 * iqr, won, np, verdict
  }
  same = 1; first = dg["parent", 1]
  for (i = 1; i <= np; i++)
    if (dg["parent", i] != first || dg["change", i] != first) same = 0
  if (same) printf "digests: all %d runs end with %s\n", 2 * np, first
  else {
    printf "digests: DIFFER\n"
    for (i = 1; i <= np; i++) printf "  pair %d: parent %s change %s\n", i, dg["parent", i], dg["change", i]
  }
}' "$dir/bounds" "$out/runs"
}

for wl in $(echo "$wls" | tr ',' ' '); do
  out=$dir/$wl
  mkdir -p "$out"
  : > "$out/runs"
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$dir/parent" "$i"; run change . "$i"
    else
      run change . "$i"; run parent "$dir/parent" "$i"
    fi
    echo "$wl: pair $i/$pairs done" >&2
    i=$((i + 1))
  done
  report
done
