#!/bin/sh
# Run the checks every change must pass, in four steps:
#  1. the tier-1 suite, printing its ten slowest tests (its
#     tests/test_report_bytes.py runs tools/report_bytes.py, and with it the
#     demos and the commands that must fail);
#  2. the benchmark's reference tests, bench/test_reference.py;
#  3. a benchmark smoke run: every workload for 2 seconds untraced and traced,
#     which must report "correct": true and no failed op (a traced run fails
#     when a function its per-layer metrics name is gone);
#  4. given the src/ directory of a parent tree, tools/report_bytes.py under
#     each tree, and `diff -r` of the two, which must find no difference in the
#     report files, bad/, stdout.txt and failing.txt.
# In the suite and the harness runs a numpy RuntimeWarning is an error.
# Then prints the line count of src/ and then of each src/specsep/*.py, after
# the parent's (`src/ lines: 1771 -> 1750`, `  criteria.py: 194 -> 185`) when
# a parent is given (a module missing from one tree counts 0 lines there), and
# last the total wall time (`check.sh: 52 s wall`).
#
# Usage: tools/check.sh [PARENT_SRC]
#
# Exits non-zero at the first check that fails.
set -eu
start=$(date +%s)
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
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

PYTHONPATH="$src" python3 -m pytest -q --continue-on-collection-errors -W error::RuntimeWarning \
    --durations=10
PYTHONPATH="$src" python3 -m pytest -q bench/test_reference.py

for workload in orbit_search seesaw cli_session; do
    for trace in 0 1; do
        if ! python3 bench/run.py --workload "$workload" --seed 1 --seconds 2 \
                --trace "$trace" > "$out/bench.out" 2> "$out/bench.err" \
            || ! tail -n 1 "$out/bench.out" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)'; then
            cat "$out/bench.out" "$out/bench.err" >&2
            echo "benchmark smoke: $workload --trace $trace failed" >&2
            exit 1
        fi
        echo "benchmark smoke: $workload --trace $trace correct, 0 failed"
    done
done

if [ -n "$parent" ]; then
    PYTHONPATH="$parent" python3 -W error::RuntimeWarning tools/report_bytes.py "$out/parent"
    PYTHONPATH="$src" python3 -W error::RuntimeWarning tools/report_bytes.py "$out/change"
    diff -r "$out/parent" "$out/change"
    echo "report harness: $(ls "$out/change" | grep -c 'json$') report files, bad/," \
         "stdout.txt and failing.txt ($(cat "$out"/change/*.txt | wc -l) lines) identical"
    echo "src/ lines: $(cat "$parent"/specsep/*.py | wc -l) -> $(cat "$src"/specsep/*.py | wc -l)"
    for module in $( (cd "$parent/specsep" && ls *.py; cd "$src/specsep" && ls *.py) | sort -u); do
        echo "  $module: $(cat "$parent/specsep/$module" 2>/dev/null | wc -l)" \
             "-> $(cat "$src/specsep/$module" 2>/dev/null | wc -l)"
    done
else
    echo "src/ lines: $(cat "$src"/specsep/*.py | wc -l)"
    for module in "$src"/specsep/*.py; do
        echo "  $(basename "$module"): $(wc -l < "$module")"
    done
fi
echo "check.sh: $(($(date +%s) - start)) s wall"
