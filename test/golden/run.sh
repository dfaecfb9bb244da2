#!/bin/sh
# Run one tables.exe artefact for the golden-output tests.
#
#   sh run.sh TABLES_EXE ARGS...
#
# Figures write their SVGs into a throwaway directory; its path is
# printed as "SVG" so the output is the same on every machine. stderr
# (cache and robustness summaries) is dropped; the exit status is
# tables.exe's.
exe=$1
shift
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$exe" "$@" --svg-dir "$dir/svg" > "$dir/stdout" 2> /dev/null
status=$?
sed "s|$dir/svg|SVG|" "$dir/stdout"
exit $status
