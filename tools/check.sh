#!/bin/sh
# Run the checks every change must pass: the tier-1 suite, the benchmark's
# reference tests and the three demos.  Given the src/ directory of a parent
# tree, also write the files of tools/report_bytes.py from both trees into a
# temporary directory and require `diff -r` to find no difference.
#
# Usage: tools/check.sh [PARENT_SRC]
#
# Exits non-zero at the first check that fails.
set -eu
if [ $# -gt 1 ]; then
    echo "usage: tools/check.sh [PARENT_SRC]" >&2
    exit 2
fi
parent=""
if [ $# -eq 1 ]; then
    parent=$(cd "$1" && pwd)
fi
cd "$(dirname "$0")/.."
src="$(pwd)/src"

PYTHONPATH="$src" python3 -m pytest -q --continue-on-collection-errors
PYTHONPATH="$src" python3 -m pytest -q bench/test_reference.py
for demo in demos/*.py; do
    PYTHONPATH="$src" python3 "$demo" > /dev/null
    echo "$demo: exit 0"
done

if [ -n "$parent" ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    PYTHONPATH="$parent" python3 tools/report_bytes.py "$out/parent"
    PYTHONPATH="$src" python3 tools/report_bytes.py "$out/change"
    diff -r "$out/parent" "$out/change"
    echo "report bytes: $(ls "$out/change" | wc -l) files identical"
fi
