#!/bin/sh
# Full verification: build, unit + property tests, a smoke table run,
# and a fault-injection smoke run (README "Robustness & fallback
# semantics"). Exits nonzero on the first failure.
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest

echo "== smoke: table 2, clean =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10

echo "== smoke: table 2, 20% fault injection =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --fault-rate 0.2 --log-level error

echo "== smoke: table 2, 2 worker domains =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2

echo "== smoke: table 2, 2 worker domains + 5% fault injection =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --jobs 2 --fault-rate 0.05 --log-level error

echo "== smoke: --jobs 2 table output matches sequential =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  > "$tmpdir/seq.out" 2>/dev/null
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  > "$tmpdir/jobs2.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/jobs2.out"

echo "== smoke: --jobs 2 budget ladder and wire sizing match sequential =="
# Under the pool, which losing candidates a search cuts short depends
# on the schedule; what it prints must not.
for ext in budget wsorg; do
  dune exec bin/tables.exe -- --ext "$ext" --trials 2 \
    > "$tmpdir/$ext.seq.out" 2>/dev/null
  dune exec bin/tables.exe -- --ext "$ext" --trials 2 --jobs 2 \
    > "$tmpdir/$ext.jobs2.out" 2>/dev/null
  diff -u "$tmpdir/$ext.seq.out" "$tmpdir/$ext.jobs2.out"
done

echo "== budget ladder memo traffic is pinned =="
# Later budgets re-read the edit entries, exact or refined bounds, that
# earlier ones stored; a change to what an edit entry holds must not
# move a hit, a miss or an entry.
dune exec bin/tables.exe -- --ext budget --trials 2 --jobs 1 \
  2> "$tmpdir/budget.err" > /dev/null
cache_line=$(grep "^oracle cache:" "$tmpdir/budget.err")
echo "$cache_line"
[ "$cache_line" = \
  "oracle cache: 131 hits, 250 misses (34.4% hit rate), 250 entries" ]

echo "== wire-sizing memo traffic is pinned =="
# Wire sizing's edit entries are resizes, keyed by the new width's
# bits: the other edit shape, pinned the same way.
dune exec bin/tables.exe -- --ext wsorg --trials 2 --jobs 1 \
  2> "$tmpdir/wsorg.err" > /dev/null
cache_line=$(grep "^oracle cache:" "$tmpdir/wsorg.err")
echo "$cache_line"
[ "$cache_line" = \
  "oracle cache: 4 hits, 413 misses (1.0% hit rate), 413 entries" ]

echo "== tables rejects a --fault-rate outside [0, 1] =="
# One diagnostic line and exit 124 before any table runs; nan and a
# negative rate would otherwise run silently with no faults.
for rate in 1.5 inf nan -0.5; do
  status=0
  _build/default/bin/tables.exe --table 2 --trials 2 --sizes 5 \
    --fault-rate="$rate" > "$tmpdir/rate.out" 2> "$tmpdir/rate.err" \
    || status=$?
  cat "$tmpdir/rate.err"
  [ "$status" -eq 124 ] && [ ! -s "$tmpdir/rate.out" ]
  [ "$(wc -l < "$tmpdir/rate.err")" -eq 1 ]
done

echo "== smoke: --jobs above the core count is clamped, output unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 64 \
  > "$tmpdir/jobs64.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/jobs64.out"

echo "== dense LU never runs in a routing run =="
# The key is absent when nothing links the dense kernel.
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --metrics-json "$tmpdir/m.json" > /dev/null 2>&1
sparse_f=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m.json")
lu_f=$(sed -n 's/.*"lu.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m.json")
echo "lu.factorizations=${lu_f:-absent}, sparse.factorizations=$sparse_f"
[ -n "$sparse_f" ] && [ "$sparse_f" -gt 0 ] && [ "${lu_f:-0}" -eq 0 ]

echo "== candidates refactor on their round's plan, none declines =="
refactors=$(sed -n 's/.*"sparse.refactors": \([0-9]*\).*/\1/p' "$tmpdir/m.json")
declines=$(sed -n 's/.*"sparse.refactor_fallbacks": \([0-9]*\).*/\1/p' "$tmpdir/m.json")
echo "sparse.refactors=$refactors, sparse.refactor_fallbacks=$declines"
[ -n "$refactors" ] && [ "$refactors" -gt 0 ] && [ "$declines" = 0 ]

echo "== committed bench baseline has a valid nontree-bench-v1 schema =="
dune exec bin/obs_check.exe -- BENCH_nontree.json

echo "== bench_diff: the committed baseline against itself =="
dune exec bin/bench_diff.exe -- BENCH_nontree.json BENCH_nontree.json

echo "== bench_diff gates a paper section's wall time, not bechamel's =="
# Bechamel's wall time is its per-kernel time quota times the number of
# kernels, so tripling it must pass; tripling section 3 must fail.
for section in bechamel 3; do
  python3 - "$section" BENCH_nontree.json "$tmpdir/slow_$section.json" <<'PY'
import json, sys
name, src, dst = sys.argv[1:]
with open(src) as f:
    run = json.load(f)
for s in run["sections"]:
    if s["name"] == name:
        s["wall_s"] *= 3
with open(dst, "w") as f:
    json.dump(run, f)
PY
done
dune exec bin/bench_diff.exe -- BENCH_nontree.json \
  "$tmpdir/slow_bechamel.json" > "$tmpdir/slow_bechamel.out"
grep "^bechamel" "$tmpdir/slow_bechamel.out"
status=0
dune exec bin/bench_diff.exe -- BENCH_nontree.json "$tmpdir/slow_3.json" \
  > "$tmpdir/slow_3.out" || status=$?
grep "REGRESSED" "$tmpdir/slow_3.out"
[ "$status" -eq 1 ]

echo "== bench prints every artefact as tables.exe does =="
# Both drivers render from one list (Harness.Runs.artefacts); the bench
# prints each section's artefacts a blank line apart after a four-line
# header.
small="--trials 2 --sizes 5,10 --svg-dir $tmpdir/svg"
dune exec bench/main.exe -- --only 1,2,3,4,5,6,7,figures,ext $small \
  2>/dev/null | tail -n +5 > "$tmpdir/bench.out"
# The artefacts are the goldens, test/golden/{table,figure}N.expected and
# ext_NAME.expected, in the order test/golden/dune runs them (the
# bench's); every golden must have its rule there.
ls test/golden | sed -n -e 's/^\(table\|figure\)\([0-9]*\)\.expected$/--\1 \2/p' \
  -e 's/^ext_\(.*\)\.expected$/--ext \1/p' | sort > "$tmpdir/goldens"
sed -n 's/.*tables\.exe} \(--[a-z]* [a-z0-9]*\) .*/\1/p' test/golden/dune \
  > "$tmpdir/flags"
sort "$tmpdir/flags" | diff - "$tmpdir/goldens"
: > "$tmpdir/artefacts.out"
while read -r flag; do
  _build/default/bin/tables.exe $flag $small \
    >> "$tmpdir/artefacts.out" 2>/dev/null
  echo >> "$tmpdir/artefacts.out"
done < "$tmpdir/flags"
diff -u "$tmpdir/artefacts.out" "$tmpdir/bench.out"

echo "== full scale: the bench's artefacts at 5-30 pins match the golden =="
# The paper-scale counterpart of test/golden (50 trials, sizes
# 5,10,20,30), kept out of dune runtest for its ~20 s. The jobs line
# and the SVG directory are normalised as test/golden/run.sh does.
dune exec bench/main.exe -- --jobs 2 --only 1,2,3,4,5,6,7,figures,ext \
  --svg-dir "$tmpdir/full_svg" > "$tmpdir/full.raw" 2>/dev/null
sed -e 's/^jobs [0-9]*$/jobs N/' -e "s|$tmpdir/full_svg|SVG|" \
  "$tmpdir/full.raw" > "$tmpdir/full.out"
diff -u test/full_scale.expected "$tmpdir/full.out"

echo "== a bench run without --bench-json writes no baseline =="
mkdir "$tmpdir/nobaseline"
bench="$PWD/_build/default/bench/main.exe"
(cd "$tmpdir/nobaseline" && "$bench" --only 1 > /dev/null 2>&1)
[ ! -e "$tmpdir/nobaseline/BENCH_nontree.json" ]

echo "== bench rejects an unknown --only section and a bad --sizes =="
# A usage error exits 2 before anything runs, so no baseline is written.
for bad in "--only foo" "--sizes 5,x"; do
  status=0
  dune exec bench/main.exe -- $bad --bench-json "$tmpdir/bad.json" \
    > /dev/null 2> "$tmpdir/bad.err" || status=$?
  head -n 1 "$tmpdir/bad.err"
  [ "$status" -eq 2 ] && [ ! -e "$tmpdir/bad.json" ]
done

echo "== compare rejects an unknown --model =="
dune exec bin/netgen.exe -- --pins 5 --seed 3 -o "$tmpdir/net5.txt"
status=0
dune exec bin/compare.exe -- "$tmpdir/net5.txt" --model bogus \
  > /dev/null 2>&1 || status=$?
[ "$status" -eq 124 ]

echo "== an unusable --svg-dir is a typed error =="
# A file where the SVG directory should be: tables and bench alike
# print one line and exit 124 before any artefact runs, and the bench
# writes no baseline.
touch "$tmpdir/not-a-dir"
status=0
_build/default/bin/tables.exe --figure 1 --trials 2 --sizes 5 \
  --svg-dir "$tmpdir/not-a-dir" > /dev/null 2> "$tmpdir/svg.err" || status=$?
grep "cannot write SVG" "$tmpdir/svg.err"
[ "$status" -eq 124 ]
status=0
dune exec bench/main.exe -- --only 2,figures --trials 2 --sizes 5 \
  --svg-dir "$tmpdir/not-a-dir" --bench-json "$tmpdir/svg.json" \
  > /dev/null 2> "$tmpdir/svg.err" || status=$?
grep "cannot write SVG" "$tmpdir/svg.err"
if grep "section 2:" "$tmpdir/svg.err"; then exit 1; fi
[ "$status" -eq 124 ] && [ ! -e "$tmpdir/svg.json" ]

echo "== smoke: observability manifest is valid, stdout unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --metrics-json "$tmpdir/obs.json" > "$tmpdir/obs.out" 2>/dev/null
dune exec bin/obs_check.exe -- "$tmpdir/obs.json"
diff -u "$tmpdir/seq.out" "$tmpdir/obs.out"

echo "== smoke: spice_run on a singular deck is a typed error =="
root=$PWD
spice_run="$root/_build/default/bin/spice_run.exe"
# A resistor pair floating free of the driven net: G is singular.
cat > "$tmpdir/floating.cir" <<'DECK'
* floating resistor pair
V1 in 0 DC 1
R1 in out 1k
C1 out 0 1p
R2 a b 1k
.probe out
.end
DECK
status=0
"$spice_run" "$tmpdir/floating.cir" --delay > /dev/null \
  2> "$tmpdir/floating.err" || status=$?
cat "$tmpdir/floating.err"
grep -q "simulation failed: singular matrix in spice.dc" "$tmpdir/floating.err"
# Typed failures exit 124 (cmdliner's code for a term error); an
# uncaught exception would exit 125.
[ "$status" -eq 124 ]

echo "== smoke: route --deck, then spice_run --delay on the exported deck =="
# The oracles no longer build netlists; decks are where one is still
# written. An 8-pin net has 7 sinks, each must report one delay.
dune exec bin/netgen.exe -- --pins 8 --seed 3 -o "$tmpdir/net8.txt"
dune exec bin/route.exe -- "$tmpdir/net8.txt" --deck "$tmpdir/net8.cir" \
  > /dev/null
"$spice_run" "$tmpdir/net8.cir" --delay > "$tmpdir/deck.out"
sink_delays=$(grep -c "50% delay" "$tmpdir/deck.out")
echo "sink delays reported: $sink_delays"
[ "$sink_delays" -eq 7 ]

echo "== smoke: a single-RAMP deck measures delays from its grid 50% crossing =="
cat > "$tmpdir/ramp.cir" <<'DECK'
* rc ramp
V1 in 0 RAMP(0.2n 0.3n 0 1)
R1 in out 1k
C1 out 0 1p
.probe out
.tran 0.01n 10n
.end
DECK
"$spice_run" "$tmpdir/ramp.cir" --delay > "$tmpdir/ramp.out"
cat "$tmpdir/ramp.out"
grep -q "delay origin: input 50% crossing at .* ns (grid-adjusted)" \
  "$tmpdir/ramp.out"

echo "== perfbench smoke: evaluation paths reconcile, outputs check =="
# ldrg-spice and wire-size score added and resized wires through the
# transient's stamp assembly, under the outputs check.
for workload in budget-sweep ldrg-moment ldrg-spice wire-size; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    --trace 0 > /dev/null
done

echo "all checks passed"
