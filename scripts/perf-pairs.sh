#!/usr/bin/env bash
# Paired parent/change benchmark runs: the protocol every speed claim in
# this repo is judged by (ROADMAP.md "Open items"; crates/perf/README.md
# for what the metrics mean).
#
# Usage: scripts/perf-pairs.sh <parent-checkout> <workload> [pairs=10]
#   <parent-checkout>  a second checkout of this repository at the parent
#                      commit (git clone or git archive, not a worktree
#                      sharing this target/)
#   <workload>         darknet | flows | full-serial | full-parallel | ...
#
# Builds ah-perf in both checkouts, then for pair i = 1..pairs runs
#   target/release/ah-perf --workload W --seed i --seconds 30 --trace 0
# once per side — exactly what the benchmark driver runs — alternating
# which side goes first so host drift lands on both alike. Before each
# pair, one `ah-perf child W --seed 6i` per side (the pair's first
# scenario), in the same alternating order, must print the same output
# fingerprint; its unscaled `run_s` and `cpu_s` are kept, since they
# carry none of the host-speed probe's bias. Exits 1 on a failed
# operation or a fingerprint mismatch. Prints every pair, then per
# metric: medians, quartiles, the parent's interquartile spread, wins
# (ties count for neither side) and whether the claim rule holds — the
# change ahead in >= 9/10 of the pairs run AND the medians further apart
# than the parent's own spread; then the unscaled times as median
# change/parent ratios with wins.
set -euo pipefail

[ $# -ge 2 ] && [ $# -le 3 ] || { awk 'NR >= 2 && NR <= 25' "$0"; exit 2; }
change="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
[ "$parent" != "$change" ] || { echo "error: the parent checkout is this checkout"; exit 2; }

for side in "$parent" "$change"; do
  echo "==> build ah-perf in $side" >&2
  (cd "$side" && cargo build --release -q -p ah-perf)
done

rows="$(mktemp)"
children="$(mktemp)"
trap 'rm -f "$rows" "$children"' EXIT

# field <contract line> <name>: the number after `"name": ` or
# `"name": {"value": `.
field() {
  printf '%s\n' "$1" | awk -v name="$2" '{
    if (!match($0, "\"" name "\": (\\{\"value\": )?[-+.eE0-9]+")) exit 1
    s = substr($0, RSTART, RLENGTH); sub(/.*[ ]/, "", s); print s
  }'
}

run_side() { # <checkout> <label> <seed>
  local line failed
  line="$(cd "$1" && target/release/ah-perf --workload "$workload" --seed "$3" --seconds 30 --trace 0 2>/dev/null)"
  failed="$(field "$line" failed)"
  if [ "$failed" != 0 ]; then
    echo "error: $2 had $failed failed operation(s) at seed $3: $line"
    exit 1
  fi
  for m in packets_per_s cpu_ns_per_packet rss_bytes_per_event setup_s; do
    echo "$3 $2 $m $(field "$line" "$m")" >>"$rows"
  done
}

child() { # <checkout> <label> <pair>: the pair's unscaled run
  (cd "$1" && target/release/ah-perf child "$workload" --seed $((6 * $3))) |
    awk -v i="$3" -v side="$2" '$1 == "fingerprint" || $1 == "run_s" || $1 == "cpu_s" { print i, side, $1, $2 }' >>"$children"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    child "$parent" parent "$i"; child "$change" change "$i"
  else
    child "$change" change "$i"; child "$parent" parent "$i"
  fi
  fp_parent="$(awk -v i="$i" '$1 == i && $2 == "parent" && $3 == "fingerprint" { print $4 }' "$children")"
  fp_change="$(awk -v i="$i" '$1 == i && $2 == "change" && $3 == "fingerprint" { print $4 }' "$children")"
  if [ -z "$fp_parent" ] || [ "$fp_parent" != "$fp_change" ]; then
    echo "error: output fingerprints differ at scenario seed $((6 * i)): parent ${fp_parent:-<none>}, change ${fp_change:-<none>}"
    exit 1
  fi
  if [ $((i % 2)) -eq 1 ]; then
    run_side "$parent" parent "$i"; run_side "$change" change "$i"
  else
    run_side "$change" change "$i"; run_side "$parent" parent "$i"
  fi
  cat "$rows" "$children" | awk -v i="$i" -v fp="$fp_parent" '$1 == i { v[$2 " " $3] = $4 } END {
    printf "pair %2d  fingerprint %s  packets_per_s %.0f -> %.0f  cpu_ns_per_packet %.1f -> %.1f  rss_bytes_per_event %.1f -> %.1f  setup_s %.3f -> %.3f  unscaled run_s %.3f -> %.3f  cpu_s %.3f -> %.3f\n", i, fp,
      v["parent packets_per_s"], v["change packets_per_s"], v["parent cpu_ns_per_packet"], v["change cpu_ns_per_packet"],
      v["parent rss_bytes_per_event"], v["change rss_bytes_per_event"], v["parent setup_s"], v["change setup_s"],
      v["parent run_s"], v["change run_s"], v["parent cpu_s"], v["change cpu_s"]
  }'
done

# Sorting and quartiles for both summaries below.
stats='
function sorted(src, n, dst,   i, j, t) {
  for (i = 1; i <= n; i++) dst[i] = src[i]
  for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
# Quartiles as crates/perf reports them (exclusive method: position (n+1)p).
function quantile(a, n, p,   pos, lo) {
  pos = (n + 1) * p; if (pos < 1) pos = 1; if (pos > n) pos = n
  lo = int(pos); return lo < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[n]
}
'

echo
echo "workload $workload, $pairs pairs, parent -> change (q1 median q3)"
awk "$stats"'
{ n[$2 " " $3]++; val[$2 " " $3, n[$2 " " $3]] = $4 + 0 }
END {
  split("packets_per_s cpu_ns_per_packet rss_bytes_per_event setup_s", metrics, " ")
  for (k = 1; k <= 4; k++) {
    m = metrics[k]; higher = (m == "packets_per_s"); pairs = n["parent " m]; wins = 0; losses = 0
    for (i = 1; i <= pairs; i++) {
      p[i] = val["parent " m, i]; c[i] = val["change " m, i]
      if (c[i] != p[i]) { if ((c[i] > p[i]) == higher) wins++; else losses++ }
    }
    sorted(p, pairs, ps); sorted(c, pairs, cs)
    pm = quantile(ps, pairs, 0.5); cm = quantile(cs, pairs, 0.5)
    iqr = quantile(ps, pairs, 0.75) - quantile(ps, pairs, 0.25)
    gain = higher ? cm - pm : pm - cm
    verdict = pairs < 10 ? "too few pairs" : (wins * 10 >= pairs * 9 && gain > iqr) ? "gain" : (losses * 10 >= pairs * 9 && -gain > iqr) ? "LOSS" : "unresolved"
    printf "%-20s %12.4g %12.4g %12.4g -> %12.4g %12.4g %12.4g  %+6.1f%%  parent iqr %.4g  wins %d losses %d of %d  %s\n", m,
      quantile(ps, pairs, 0.25), pm, quantile(ps, pairs, 0.75), quantile(cs, pairs, 0.25), cm, quantile(cs, pairs, 0.75),
      100 * (cm - pm) / pm, iqr, wins, losses, pairs, verdict
  }
}' "$rows"

echo
echo "unscaled ah-perf child $workload --seed 6i, change/parent (q1 median q3)"
awk "$stats"'
$3 != "fingerprint" { v[$1, $2, $3] = $4 + 0; if ($1 > pairs) pairs = $1 }
END {
  split("run_s cpu_s", metrics, " ")
  for (k = 1; k <= 2; k++) {
    m = metrics[k]; wins = 0; losses = 0
    for (i = 1; i <= pairs; i++) {
      r[i] = v[i, "change", m] / v[i, "parent", m]
      if (r[i] < 1) wins++; else if (r[i] > 1) losses++
    }
    sorted(r, pairs, rs)
    printf "%-6s %.3f %.3f %.3f  wins %d losses %d of %d\n", m, quantile(rs, pairs, 0.25), quantile(rs, pairs, 0.5), quantile(rs, pairs, 0.75), wins, losses, pairs
  }
}' "$children"
