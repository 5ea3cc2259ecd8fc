"""Benchmark of specsep: one closed-loop caller per workload.

    python3 bench/run.py --workload orbit_search --seed 1 --seconds 30 --trace 0

A single caller issues the next op only after the last one returns.  Ops
run round-robin in whole rounds until ``--seconds`` of wall time have
passed; each op is timed on its own, and every output is checked against
``reference.py`` after the loop.  The last line on stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Without ``src/specsep`` next to this
directory the command exits with code 2 and prints no result.

The speed of the machine drifts by 10-25 % over seconds to minutes, which
moves every timing with it.  So a fixed yardstick kernel that does not use
specsep runs after every round, and each op's latency is scaled to the
reference speed at which the yardstick takes YARDSTICK_REF_S: by
YARDSTICK_REF_S over the median yardstick time within YARDSTICK_WINDOW_S
of its round.  Set-up times are scaled the same way.  The unscaled
figures go to stderr.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
WORKLOADS = ("orbit_search", "seesaw", "cli_session")
CLI_COMMANDS = ("classify", "construct", "transform", "witness", "bounds", "falsify")
SETUP_REPEATS = 7
YARDSTICK_REF_S = 0.002
YARDSTICK_WINDOW_S = 2.0


class Yardstick:
    """Fixed work of the kinds specsep does, without specsep: a seeded
    complex Gaussian draw, a phase-fixed QR, a rotation, a reshape partial
    transpose and eigvalsh on 9 x 9, eigvalsh and QR on 6 x 6, a
    ``json.dumps`` and Python arithmetic, eight times over.  Calling it
    returns its duration in seconds.  It holds its own references to the
    numpy functions, so a traced run does not count its calls."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._eigvalsh = np.linalg.eigvalsh
        self._qr = np.linalg.qr
        a = np.arange(36.0).reshape(6, 6)
        g = a % 7 + 1j * (a.T % 5)
        self._matrix = g @ g.conj().T + np.eye(6)
        self._weights = np.arange(1.0, 10.0)
        self._payload = {"values": [0.125 * i for i in range(30)], "name": "yardstick"}

    def __call__(self):
        np = self._np
        t0 = time.perf_counter()
        for i in range(8):
            rng = np.random.default_rng(i)
            z = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
            q, r = self._qr(z)
            d = np.diag(r)
            q = q * (d / np.abs(d))
            m = (q * self._weights) @ q.conj().T
            self._eigvalsh(m.reshape(3, 3, 3, 3).transpose(0, 3, 2, 1).reshape(9, 9))
            self._eigvalsh(self._matrix)
            self._qr(self._matrix)
            json.dumps(self._payload)
            sum(k * k for k in range(50))
        return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one specsep workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import specsep, make the inputs and run one round; returns the ops
    and the duration of each step in seconds."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import specsep  # noqa: F401  (imported first so that its numpy import counts here)
    import workloads
    t1 = time.perf_counter()
    ops = workloads.WORKLOADS[workload](seed, workdir)
    t2 = time.perf_counter()
    for op in ops:
        op.record(op.run(0))
    t3 = time.perf_counter()
    return ops, {"import": t1 - t0, "inputs": t2 - t1, "warmup": t3 - t2}


def setup_times(args):
    """Scaled set-up time of SETUP_REPEATS fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_loop(ops, seconds, yardstick):
    """Whole rounds, each followed by the yardstick, until ``seconds`` have
    passed.  Returns per-op latencies (s, in op order), the distinct records
    of each op with their counts, the (end time, duration) of each
    yardstick, and the wall time of the loop."""
    clock = time.perf_counter
    latencies = []
    seen = [Counter() for _ in ops]
    yards = []
    round_no = 0
    start = clock()
    while True:
        round_no += 1
        for op, counts in zip(ops, seen):
            t0 = clock()
            result = op.run(round_no)
            latencies.append(clock() - t0)
            counts[op.record(result)] += 1
        duration = yardstick()
        yards.append((clock(), duration))
        if clock() - start >= seconds:
            return latencies, seen, yards, clock() - start


def scaled_latencies(latencies, yards):
    """Each latency times YARDSTICK_REF_S over the median yardstick duration
    within YARDSTICK_WINDOW_S of its round's yardstick."""
    ends = [t for t, _ in yards]
    n_ops = len(latencies) // len(yards)
    scaled = []
    for r, (t, _) in enumerate(yards):
        lo = bisect.bisect_left(ends, t - YARDSTICK_WINDOW_S)
        hi = bisect.bisect_right(ends, t + YARDSTICK_WINDOW_S)
        scale = YARDSTICK_REF_S / statistics.median(d for _, d in yards[lo:hi])
        scaled.extend(lat * scale for lat in latencies[r * n_ops:(r + 1) * n_ops])
    return scaled


def check_all(ops, seen):
    """Check every distinct record; returns (failed op count, error list)."""
    import workloads

    failed, errors = 0, []
    for op, counts in zip(ops, seen):
        for rec, n in counts.items():
            status = op.check(rec)
            if status == workloads.FAILED:
                failed += n
            elif status != workloads.OK:
                errors.append(status)
    return failed, errors


def end_to_end(latencies, setups, rss_mib):
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_mib,
    }


def per_layer(tracer, ops, latencies, setup_spans):
    """Per-layer metrics from the traced loop.  Times are self times except
    the inclusive ``as_falsify_search.us_per_sample`` and the per-command
    ``cli.<command>.p50_ms``; a function the workload never calls reads 0."""
    import tracing

    n_ops = len(latencies)
    values = {}
    for name, span in tracer.spans.items():
        values[name + ".us_per_call"] = span.self_s / span.calls * 1e6 if span.calls else 0.0
        values[name + ".ms_per_call"] = values[name + ".us_per_call"] / 1e3
        values[name + ".calls_per_op"] = span.calls / n_ops
    search = tracer.spans["oracles.as_falsify_search"]
    values["oracles.as_falsify_search.us_per_sample"] = (
        search.total_s / search.units * 1e6 if search.units else 0.0)
    seesaw = tracer.spans["witnesses.seesaw_minimize"]
    values["witnesses.seesaw_minimize.iters_per_call"] = (
        seesaw.units / seesaw.calls if seesaw.calls else 0.0)
    for layer in tracing.LAYERS + ("linalg",):
        busy = sum(s.self_s for name, s in tracer.spans.items() if name.startswith(layer + "."))
        values[layer + ".ms_per_op"] = busy / n_ops * 1e3
    by_kind = {}
    for i, lat in enumerate(latencies):
        by_kind.setdefault(ops[i % len(ops)].kind, []).append(lat)
    for command in CLI_COMMANDS:
        lats = by_kind.get(command)
        values["cli.%s.p50_ms" % command] = statistics.median(lats) * 1e3 if lats else 0.0
    for step, seconds in setup_spans.items():
        values["setup.%s_ms" % step] = seconds * 1e3
    return values


def run(args, workdir):
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops, setup_spans = set_up(args.workload, args.seed, workdir)
    yardstick = Yardstick()
    yardstick()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(units={
            "oracles.as_falsify_search": lambda res: res.samples_used,
            "witnesses.seesaw_minimize": lambda res: len(res[1]),
        })
        tracer.install(sys.modules["specsep"])
    else:
        setups = setup_times(args)
    try:
        latencies, seen, yards, wall = timed_loop(ops, args.seconds, yardstick)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, errors = check_all(ops, seen)
    for err in errors[:10]:
        print("check failed: %s" % err, file=sys.stderr)
    scaled = scaled_latencies(latencies, yards)
    if tracer is None:
        values = end_to_end(scaled, setups, rss_mib)
        declared = spec["end_to_end"]
    else:
        values = per_layer(tracer, ops, latencies, setup_spans)
        values["trace.throughput_ops_s"] = len(scaled) / sum(scaled)
        declared = spec["per_layer"]
    print("%s seed %d: %d ops in %d rounds, %d failed, %d wrong; unscaled: %.2f s timed of "
          "%.2f s wall, %.6g ops/s, p50 %.6g ms; median yardstick %.4g ms"
          % (args.workload, args.seed, len(latencies), len(yards), failed, len(errors),
             sum(latencies), wall, len(latencies) / sum(latencies),
             statistics.median(latencies) * 1e3,
             statistics.median(d for _, d in yards) * 1e3), file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def scaled_setup(workload, seed, workdir):
    """Set-up time of this process, scaled by the yardstick run right after."""
    _, spans = set_up(workload, seed, workdir)
    yardstick = Yardstick()
    ref = statistics.median(yardstick() for _ in range(5))
    return sum(spans.values()) * YARDSTICK_REF_S / ref


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "specsep" / "__init__.py").is_file():
        print("error: %s/specsep not found; run from a specsep checkout" % SRC, file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORKDIR)
    try:
        if args.setup_only:
            print(scaled_setup(args.workload, args.seed, workdir))
        else:
            print(json.dumps(run(args, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
