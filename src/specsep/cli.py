"""Command-line front end.

Subcommands: classify, construct, transform, witness, bounds, falsify.
Exit codes: 0 = ran (verdicts carry the science), 2 = invalid input (the
library raises ValueError), 3 = an infeasible transformation (it raises
``channels.RatioTooSmall``, a ValueError).  Each command returns its
report, which ``main`` writes to ``--output``; construct writes its state
file itself and returns None.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, channels, criteria, fileio, oracles, states, witnesses

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_PRECONDITION = 3

# Largest D = d_a * d_b that construct, witness, transform, falsify and classify
# --compare-criteria take: one D x D complex matrix takes 16 D^2 bytes and its
# JSON file about 40 D^2 bytes, transform writes four such matrices, and falsify
# builds a D x D rotation per sample.
MAX_TOTAL_DIM = 1024

# The named states that classify --compare-criteria tabulates, where make_named_state
# builds them at the file's dims.  phi_plus is left out: its spectrum (1, 0, ..., 0)
# is also a product state's, so no spectral criterion detects it and its row would
# read "(none)" at every dims.  omega_t is left out: it needs a t the table has none of.
COMPARED_STATES = ("maximally_mixed", "seed_state", "werner", "rho_tilde")


def build_parser():
    return _build_parsers()[0]


def _build_parsers():
    """The top-level parser and the map from each command name to its parser."""
    parser = argparse.ArgumentParser(prog="specsep",
                                     description="Spectral separability toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--output", help="write the machine-readable result here")

    p = sub.add_parser("classify", parents=[parent],
                       help="run every spectral criterion on a state file")
    p.add_argument("state")
    p.add_argument("--compare-criteria", action="store_true",
                   help="also tabulate the named reference states at these dims")

    p = sub.add_parser("construct", parents=[parent], help="build a named state")
    p.add_argument("name", choices=states.NAMED_STATES)
    p.add_argument("--d-a", type=int, default=2)
    p.add_argument("--d-b", type=int, default=2)
    p.add_argument("--t", type=float, default=None)

    p = sub.add_parser("transform", parents=[parent],
                       help="synthesize a stochastic unital map rho -> sigma")
    p.add_argument("rho")
    p.add_argument("sigma")

    p = sub.add_parser("witness", parents=[parent], help="build or evaluate a witness")
    p.add_argument("kind", choices=["ppt", "separating"])
    p.add_argument("--d-a", type=int, default=2)
    p.add_argument("--d-b", type=int, default=2)
    p.add_argument("--evaluate", help="state file to evaluate the witness on")

    p = sub.add_parser("bounds", parents=[parent], help="closed-form bounds")
    p.add_argument("--copies", type=float, default=None, metavar="R",
                   help="copy bound for a state of spectral ratio R")
    p.add_argument("--h-norm", type=float, default=None, help="Hamiltonian sup norm")
    p.add_argument("--l", type=int, default=None, help="side-dimension cutoff")
    p.add_argument("--k-b", type=float, default=None, help="Boltzmann constant (default 1)")

    p = sub.add_parser("falsify", parents=[parent],
                       help="Haar-search for an entangling unitary")
    p.add_argument("state")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="seed of the Haar search")

    return parser, sub.choices


def _check_total_dim(total, label="--d-a x --d-b"):
    if total > MAX_TOTAL_DIM:
        raise ValueError("%s is %d, above the limit D <= %d"
                                % (label, total, MAX_TOTAL_DIM))


def _load_spectrum(path):
    state = fileio.load_state(path)
    return state if isinstance(state, states.Spectrum) else states.spectrum(state)


def _verdict_payload(v):
    return {"name": v.name, "status": v.status,
            "computed": v.computed,
            "reason": v.reason}


def _print_verdicts(spec, verdicts, label):
    print("criteria report for %s (dims %s):" % (label, "x".join(map(str, spec.dims.locals))))
    for v in verdicts:
        extra = " ".join("%s=%.6g" % (k, x) for k, x in sorted(v.computed.items()))
        print("  %-20s %-13s %s" % (v.name, v.status, extra))


def cmd_classify(args):
    spec = _load_spectrum(args.state)
    if args.compare_criteria:
        _check_total_dim(spec.dims.total, "the state's D")
    verdicts = criteria.run_all(spec)
    _print_verdicts(spec, verdicts, args.state)
    if args.compare_criteria:
        _print_comparison(spec)
    return {
        "command": "classify",
        "input_digest": fileio.digest(fileio.state_to_payload(spec)),
        "dims": list(spec.dims.locals),
        "spectrum": spec.values,
        "verdicts": [_verdict_payload(v) for v in verdicts],
    }


def _print_comparison(spec):
    print("named-state comparison at dims %s:" % ("x".join(map(str, spec.dims.locals))))
    d_a, d_b = spec.dims.bipartite()
    for name in COMPARED_STATES:
        try:
            rho = states.make_named_state(name, d_a, d_b)
        except ValueError:  # not defined at these dims
            continue
        verdicts = criteria.run_all(states.spectrum(rho))
        detected = [v.name for v in verdicts if v.detected]
        print("  %-16s detected-by: %s" % (name, ", ".join(detected) or "(none)"))


def cmd_construct(args):
    _check_total_dim(args.d_a * args.d_b)
    rho = states.make_named_state(args.name, d_a=args.d_a, d_b=args.d_b, t=args.t)
    out = args.output or ("%s.state.json" % args.name)
    fileio.save_state(out, rho)
    spec = states.spectrum(rho)
    print("wrote %s; spectrum: %s" % (out, " ".join(format(v, ".12g") for v in spec.values)))


def cmd_transform(args):
    rho = fileio.load_state(args.rho)
    _check_total_dim(rho.dims.total, "the state's D")
    sigma = fileio.load_state(args.sigma)
    if not (isinstance(rho, states.DensityMatrix) and isinstance(sigma, states.DensityMatrix)):
        raise ValueError("transform needs explicit matrix state files")
    instrument = channels.construct_transformation(rho, sigma)
    out, prob = channels.apply_map(instrument, rho)
    q = instrument.unitality_factor
    image = channels.apply_to_operator(instrument, np.eye(rho.dims.total, dtype=complex))
    unitality_residual = float(np.abs(image - q * np.eye(rho.dims.total)).max())
    output_residual = float(np.abs(out / prob - sigma.matrix).max())
    monotone = oracles.verify_ratio_monotone(instrument, rho)
    print("success probability: %.12g" % prob)
    print("unitality residual: %.3e   output residual: %.3e   ratio monotone: %s"
          % (unitality_residual, output_residual, monotone))
    return {
        "command": "transform",
        "branches": [
            {"effect": fileio.matrix_to_payload(effect),
             "output": fileio.state_to_payload(output)}
            for effect, output in instrument.branches
        ],
        "unitality_factor": q,
        "success_probability": prob,
        "verification": {"unitality_residual": unitality_residual,
                         "output_residual": output_residual,
                         "ratio_monotone": monotone},
    }


def cmd_witness(args):
    _check_total_dim(args.d_a * args.d_b)
    dims = states.bipartite_dims(args.d_a, args.d_b)
    if args.kind == "ppt":
        w = witnesses.make_ppt_witness(dims)
    else:
        w = witnesses.make_separating_witness(args.d_a, args.d_b)
    norm = witnesses.trace_norm(w)
    print("%s witness on %dx%d: trace=%.12g trace_norm=%.12g"
          % (args.kind, args.d_a, args.d_b, w.matrix.trace().real, norm))
    report = {
        "command": "witness",
        "kind": args.kind,
        "dims": list(dims.locals),
        "matrix": fileio.matrix_to_payload(w.matrix),
        "trace_norm": norm,
    }
    if args.evaluate:
        rho = fileio.load_state(args.evaluate)
        if not isinstance(rho, states.DensityMatrix):
            raise ValueError("witness evaluation needs a matrix state file")
        value = report["expectation"] = witnesses.evaluate(w, rho)
        # only the ppt witness is block positive, so only its negative value means entangled
        if args.kind == "ppt":
            verdict = "entangled (NPT)" if value < oracles.NPT_THRESHOLD else "no detection"
        else:
            verdict = "outside the regions W separates" if value < 0 else "no detection"
        print("Tr(W rho) = %.12g  (%s)" % (value, verdict))
    return report


def cmd_bounds(args):
    if args.h_norm is None and (args.l is not None or args.k_b is not None):
        raise ValueError("bounds: --l and --k-b apply only with --h-norm")
    results = {}
    if args.copies is not None:
        n = criteria.copy_bound(args.copies)
        results["copy_bound"] = {"ratio": args.copies, "n": n}
        print("copy bound for R = %.12g: n = %d" % (args.copies, n))
    if args.h_norm is not None:
        if args.l is None:
            raise ValueError("--h-norm requires --l")
        k_b = 1.0 if args.k_b is None else args.k_b
        t_star = criteria.gibbs_threshold(args.h_norm, args.l, k_b=k_b)
        results["gibbs_threshold"] = {"h_norm": args.h_norm, "l": args.l,
                                      "k_b": k_b, "temperature": t_star}
        print("entanglement-free above T* = %.12g" % t_star)
    if not results:
        raise ValueError("bounds: nothing requested (use --copies or --h-norm)")
    return results


def cmd_falsify(args):
    if args.seed < 0:
        raise ValueError("--seed must be a non-negative integer, got %d" % args.seed)
    spec = _load_spectrum(args.state)
    _check_total_dim(spec.dims.total, "the state's D")
    result = oracles.as_falsify_search(spec, spec.dims, args.samples, args.seed)
    if result.found:
        print("found: NPT after %d samples (unitary seed %d, index %d, min PT eigenvalue %.12g)"
              % (result.samples_used, result.unitary_seed, result.unitary_index,
                 result.min_pt_eigenvalue))
    else:
        print("not found after %d samples (min PT eigenvalue seen %.12g); inconclusive"
              % (result.samples_used, result.min_pt_eigenvalue))
    return {
        "command": "falsify",
        "input_digest": fileio.digest(fileio.state_to_payload(spec)),
        "seed": args.seed,
        "found": result.found,
        "unitary_seed": result.unitary_seed,
        "unitary_index": result.unitary_index,
        "min_pt_eigenvalue": result.min_pt_eigenvalue,
        "samples_used": result.samples_used,
        "samples_requested": args.samples,
    }


_COMMANDS = {
    "classify": cmd_classify,
    "construct": cmd_construct,
    "transform": cmd_transform,
    "witness": cmd_witness,
    "bounds": cmd_bounds,
    "falsify": cmd_falsify,
}


_PARSER, _SUBPARSERS = _build_parsers()


def _parse(argv):
    """``_PARSER.parse_args(argv)`` in one pass: a leading command's own parser
    reads the rest, and the top-level parser refuses what it leaves over.  Argv
    with no leading command, or with a token ambiguous among the top-level
    options (``--=x``), takes the top-level parse."""
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None or any(a.startswith("--=") for a in argv):
        return _PARSER.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        _PARSER.error("unrecognized arguments: %s" % " ".join(extra))
    args.command = argv[0]
    return args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        report = _COMMANDS[args.command](args)
        if report is not None and args.output:
            fileio.save_report(args.output, report)
        return EXIT_OK
    except channels.RatioTooSmall as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
