#!/bin/sh
# Run the checks every change must pass: the tier-1 suite (printing its ten
# slowest tests), the benchmark's reference tests, the three demos and a
# benchmark smoke run: every workload for 2 seconds untraced and traced, which
# must report "correct": true and no failed op (a traced run fails when a
# function its per-layer metrics name is gone).  Given the src/ directory of a
# parent tree, also write the files of tools/report_bytes.py from both trees
# into a temporary directory and require `diff -r` to find no difference; then,
# under each tree, run the three demos and `classify --compare-criteria` on
# rt.json, werner.json and mm3.json of those files, and require `diff` to find
# the two trees' stdout identical.  Last, under each tree, run the failing
# commands in FAILING (bad state files written from literal text, an
# infeasible transform, operands of other dims, refused options, an
# unwritable --output) and require each to exit non-zero
# with the same exit code and stderr under both trees.  In the tier-1 suite,
# the demos and the report runs a numpy RuntimeWarning (overflow, invalid
# value) is an error.
# Ends by printing the line count of src/ and then of each src/specsep/*.py,
# after the parent's (`src/ lines: 1771 -> 1750`, `  criteria.py: 194 -> 185`)
# when a parent is given; a module missing from one tree counts 0 lines there.
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
# argvs run from a tree's report directory; ../bad holds the literal files below
FAILING="classify ../bad/unparsable.json
classify ../bad/not_psd.json
classify ../bad/bad_trace.json
classify ../bad/not_hermitian.json
classify ../bad/wrong_shape.json
transform mm2.json werner.json
transform rt.json ../bad/mm32.json
construct werner --d-a 3
falsify mm2.json --seed -1
witness ppt --d-a 32 --d-b 33
witness ppt --d-a 2 --d-b 3 --evaluate mm2.json
bounds
bounds --copies 3 --output ../bad/missing/b.json"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

PYTHONPATH="$src" python3 -m pytest -q --continue-on-collection-errors -W error::RuntimeWarning \
    --durations=10
PYTHONPATH="$src" python3 -m pytest -q bench/test_reference.py
for demo in demos/*.py; do
    PYTHONPATH="$src" python3 -W error::RuntimeWarning "$demo" > /dev/null
    echo "$demo: exit 0"
done

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
    echo "report bytes: $(ls "$out/change" | wc -l) files identical"
    for tree in parent change; do
        if [ "$tree" = parent ]; then path="$parent"; else path="$src"; fi
        for demo in demos/*.py; do
            PYTHONPATH="$path" python3 -W error::RuntimeWarning "$demo"
        done > "$out/$tree.stdout"
        # relative names, as classify prints the path it is given
        for f in rt.json werner.json mm3.json; do
            (cd "$out/$tree" && PYTHONPATH="$path" python3 -W error::RuntimeWarning \
                -m specsep.cli classify "$f" --compare-criteria)
        done >> "$out/$tree.stdout"
    done
    diff "$out/parent.stdout" "$out/change.stdout"
    echo "stdout: demos and classify --compare-criteria identical" \
         "($(wc -l < "$out/change.stdout") lines)"
    mkdir "$out/bad"
    printf '{"dims":{"locals":[2,2]},"spectrum":[0.25,' > "$out/bad/unparsable.json"
    echo '{"dims":{"locals":[2,2]},"spectrum":[0.6,0.5,0.0,-0.1]}' > "$out/bad/not_psd.json"
    echo '{"dims":{"locals":[2,2]},"spectrum":[0.5,0.5,0.5,0.5]}' > "$out/bad/bad_trace.json"
    echo '{"dims":{"locals":[2]},"matrix":[[[0.5,0],[0.5,0]],[[0,0],[0.5,0]]]}' \
        > "$out/bad/not_hermitian.json"
    echo '{"dims":{"locals":[2,2]},"matrix":[[[1,0]]]}' > "$out/bad/wrong_shape.json"
    # the maximally mixed state of dims 3x2, which no 2x3 state is carried to
    printf '%s' '{"dims":{"locals":[3,2]},"matrix":[' \
        '[[0.16666666666666666,0],[0,0],[0,0],[0,0],[0,0],[0,0]],' \
        '[[0,0],[0.16666666666666666,0],[0,0],[0,0],[0,0],[0,0]],' \
        '[[0,0],[0,0],[0.16666666666666666,0],[0,0],[0,0],[0,0]],' \
        '[[0,0],[0,0],[0,0],[0.16666666666666666,0],[0,0],[0,0]],' \
        '[[0,0],[0,0],[0,0],[0,0],[0.16666666666666666,0],[0,0]],' \
        '[[0,0],[0,0],[0,0],[0,0],[0,0],[0.16666666666666666,0]]]}' > "$out/bad/mm32.json"
    for tree in parent change; do
        if [ "$tree" = parent ]; then path="$parent"; else path="$src"; fi
        echo "$FAILING" | while read -r argv; do
            code=0
            # word splitting of $argv is intended: no argument holds a space
            (cd "$out/$tree" && PYTHONPATH="$path" python3 -W error::RuntimeWarning \
                -m specsep.cli $argv > /dev/null 2>> "$out/$tree.failing") || code=$?
            echo "$argv: exit $code" >> "$out/$tree.failing"
        done
    done
    if grep ": exit 0$" "$out/change.failing"; then
        echo "failing commands: the commands above exited 0" >&2
        exit 1
    fi
    diff "$out/parent.failing" "$out/change.failing"
    echo "failing commands: $(echo "$FAILING" | wc -l) exit codes and stderr identical"
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
