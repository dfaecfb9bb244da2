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

echo "== smoke: table 2, incremental scoring disabled =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --no-incremental

echo "== smoke: --jobs 2 table output matches sequential =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  > "$tmpdir/seq.out" 2>/dev/null
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  > "$tmpdir/jobs2.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/jobs2.out"

echo "== smoke: --jobs above the core count is clamped, output unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 64 \
  > "$tmpdir/jobs64.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/jobs64.out"

echo "== smoke: --no-incremental output matches incremental, jobs 1 and 2 =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --no-incremental > "$tmpdir/noinc.out" 2>/dev/null
diff -u "$tmpdir/seq.out" "$tmpdir/noinc.out"
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --no-incremental > "$tmpdir/noinc2.out" 2>/dev/null
diff -u "$tmpdir/jobs2.out" "$tmpdir/noinc2.out"

echo "== incremental scoring cuts full factorizations at least 2x =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --metrics-json "$tmpdir/m_on.json" > /dev/null 2>&1
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 \
  --no-incremental --metrics-json "$tmpdir/m_off.json" > /dev/null 2>&1
f_on=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
f_off=$(sed -n 's/.*"sparse.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_off.json")
echo "sparse.factorizations: incremental=$f_on, plain=$f_off"
[ -n "$f_on" ] && [ -n "$f_off" ] && [ "$f_off" -ge $((2 * f_on)) ]

echo "== dense LU stays a fallback: <=10% of sparse factorizations =="
lu_f=$(sed -n 's/.*"lu.factorizations": \([0-9]*\).*/\1/p' "$tmpdir/m_on.json")
echo "lu.factorizations=$lu_f, sparse.factorizations=$f_on"
[ -n "$lu_f" ] && [ -n "$f_on" ] && [ $((10 * lu_f)) -le "$f_on" ]

echo "== committed bench baseline has a valid nontree-bench-v1 schema =="
dune exec bin/obs_check.exe -- BENCH_nontree.json

echo "== smoke: observability manifest is valid, stdout unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --metrics-json "$tmpdir/obs.json" > "$tmpdir/obs.out" 2>/dev/null
dune exec bin/obs_check.exe -- "$tmpdir/obs.json"
diff -u "$tmpdir/seq.out" "$tmpdir/obs.out"

echo "all checks passed"
