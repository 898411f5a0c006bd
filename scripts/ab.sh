#!/usr/bin/env bash
# Wall-clock A/B of this tree against a parent commit, around
# benchmark/run.sh — the protocol the perf PRs each rebuilt by hand.
#
#   scripts/ab.sh PARENT_REF [WORKLOAD...]
#
# Change side: the working tree's tracked files (HEAD when it is clean).
# Both sides are exported with `git archive` into fresh directories under
# $TMPDIR and build their own benchmark/target there, so neither build
# sees the other's artefacts or this checkout's. With no WORKLOAD, every
# workload of BENCHMARK.json.
#
# Protocol (the host has a slow state that back-to-back runs fall into,
# see ROADMAP "Grounding note"):
#   * PAIRS parent/change pairs of `benchmark/run.sh --workload W --trace 0`
#     per workload, pair k of every workload before pair k+1 of any, the
#     side that runs first alternating from pair to pair;
#   * IDLE seconds of sleep after every run;
#   * a pair starts only when a 1-second parent `lj_small_2k` probe reads
#     `serial_atom_steps_per_s` within 5 % of the best probe of this
#     session so far (retried PROBE_TRIES times, then the pair runs anyway
#     and is marked);
#   * output per workload and end-to-end metric: median [q1, q3] of both
#     sides, the signed change of the median toward "worse" in units of
#     the metric's BENCHMARK.json bound, and wins/pairs for the change.
#     "unresolved" = the parent's own quartile spread exceeds the bound
#     and the change's runs do not all beat the parent's;
#   * then every run, one line per `workload pair side metric value`,
#     sorted by workload, metric and pair, so each pair can be quoted.
set -euo pipefail

PAIRS=10
IDLE=3
PROBE_TRIES=12

[ $# -ge 1 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
cd "$root"
parent_ref="$(git rev-parse --verify "$1^{commit}")"
shift
change_ref="$(git stash create)"
change_ref="${change_ref:-$(git rev-parse HEAD)}"
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)
fi

unset CARGO_TARGET_DIR
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for side in parent change; do
  ref="${side}_ref"
  mkdir "$work/$side"
  git archive "${!ref}" | tar -x -C "$work/$side"
  echo "ab: building $side (${!ref})" >&2
  cargo build --release --offline --manifest-path "$work/$side/benchmark/Cargo.toml" 2>&1 |
    tail -n 1 >&2
done

# run SIDE WORKLOAD SECONDS -> "metric value" lines of the end-to-end metrics
run() {
  bash "$work/$1/benchmark/run.sh" --workload "$2" --trace 0 --seconds "$3" 2>/dev/null |
    awk -v w="$2" '$1 == "metric" && $2 == w { print $3, $4 }'
}

best=0
quiet() { # wait for the quiet state; status 1 if it never came
  local try reading
  for try in $(seq "$PROBE_TRIES"); do
    reading="$(run parent lj_small_2k 1 | awk '$1 == "serial_atom_steps_per_s" { print $2 }')"
    best="$(awk -v a="$best" -v b="$reading" 'BEGIN { print (b > a) ? b : a }')"
    if awk -v r="$reading" -v b="$best" 'BEGIN { exit !(r >= 0.95 * b) }'; then
      return 0
    fi
    echo "ab: probe $reading < 95 % of $best, waiting" >&2
    sleep "$((2 * IDLE))"
  done
  return 1
}

runs="$work/runs.txt" # workload pair side metric value
: > "$runs"
for pair in $(seq "$PAIRS"); do
  for w in "${workloads[@]}"; do
    quiet || echo "ab: $w pair $pair starts outside the quiet state" >&2
    if [ $((pair % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$w" 10 | sed "s/^/$w $pair $side /" >> "$runs"
      sleep "$IDLE"
    done
    echo "ab: $w pair $pair/$PAIRS done" >&2
  done
done

# name better bound, one end-to-end metric per line
sed -n '/"end_to_end"/,/\]/s/.*"name": "\([a-z_0-9]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p' \
  BENCHMARK.json > "$work/metrics.txt"

awk -v pairs="$PAIRS" '
function sorted(src, dst, n,    i, j, v) { # insertion sort of src[1..n] into dst
  for (i = 1; i <= n; i++) {
    v = src[i]
    for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
    dst[j + 1] = v
  }
}
function quantile(s, n, q,    pos, lo) { # linear interpolation on sorted s[1..n]
  pos = 1 + q * (n - 1); lo = int(pos)
  return (lo >= n) ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
{ value[$1, $4, $3, $2] = $5; if (!($1 in seen)) { seen[$1]; wl[++nw] = $1 } }
END {
  printf "%-14s %-24s %34s %34s %8s %6s  %s\n", "workload", "metric",
    "parent median [q1, q3]", "change median [q1, q3]", "worse/b", "wins", "verdict"
  for (a = 1; a <= nw; a++) for (b = 1; b <= nm; b++) {
    w = wl[a]; m = order[b]; n = 0; wins = 0; ties = 0
    sign = (better[m] == "lower") ? 1 : -1
    for (k = 1; k <= pairs; k++) {
      if (!((w, m, "parent", k) in value) || !((w, m, "change", k) in value)) continue
      n++; p[n] = value[w, m, "parent", k]; c[n] = value[w, m, "change", k]
      if (sign * (c[n] - p[n]) < 0) wins++; else if (c[n] == p[n]) ties++
    }
    if (n == 0) continue
    sorted(p, ps, n); sorted(c, cs, n)
    pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
    pq1 = quantile(ps, n, 0.25); pq3 = quantile(ps, n, 0.75)
    worse = (pm != 0) ? sign * (cm - pm) / (pm < 0 ? -pm : pm) : 0
    spread = (pm != 0) ? (pq3 - pq1) / (pm < 0 ? -pm : pm) : 0
    # every run of the change better than every run of the parent?
    clear = (sign > 0) ? (cs[n] < ps[1]) : (cs[1] > ps[n])
    verdict = "ok"
    if (worse > bound[m]) verdict = "REGRESSION"
    else if (spread > bound[m] && !clear) verdict = "unresolved"
    printf "%-14s %-24s %34s %34s %+8.2f %3d/%-2d  %s\n", w, m,
      sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3),
      sprintf("%.6g [%.6g, %.6g]", cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75)),
      worse / bound[m], wins, n - ties, verdict
  }
}' "$work/metrics.txt" "$runs"

echo
echo "# workload pair side metric value"
sort -k1,1 -k4,4 -k2,2n -k3,3 "$runs"
