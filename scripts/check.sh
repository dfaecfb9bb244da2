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

echo "== committed bench baseline has a valid nontree-bench-v1 schema =="
dune exec bin/obs_check.exe -- BENCH_nontree.json

echo "== bench_diff: the committed baseline against itself =="
dune exec bin/bench_diff.exe -- BENCH_nontree.json BENCH_nontree.json

echo "== smoke: observability manifest is valid, stdout unchanged =="
dune exec bin/tables.exe -- --table 2 --trials 2 --sizes 5,10 --jobs 2 \
  --metrics-json "$tmpdir/obs.json" > "$tmpdir/obs.out" 2>/dev/null
dune exec bin/obs_check.exe -- "$tmpdir/obs.json"
diff -u "$tmpdir/seq.out" "$tmpdir/obs.out"

echo "== perfbench smoke: evaluation paths reconcile, outputs check =="
# ldrg-spice and wire-size score added and resized wires through the
# transient's stamp assembly, under the outputs check.
for workload in budget-sweep ldrg-moment ldrg-spice wire-size; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
    --trace 0 > /dev/null
done

echo "all checks passed"
