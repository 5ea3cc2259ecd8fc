"""Write the files of 24 fixed CLI commands into OUTDIR, for byte-identity checks.

Usage: PYTHONPATH=<src> python3 tools/report_bytes.py OUTDIR

Runs, in-process through ``specsep.cli.main`` of whichever ``specsep`` is
importable, 8 ``construct`` commands (state files) and 16 commands that write
reports: ``classify`` x3, ``transform`` x4 (one onto a singular target, whose
beta is infinite), ``witness`` x3 (one on 4 x 9, a 36 x 36 matrix), ``bounds``
and ``falsify`` x5 (two misses, a hit on the first sample, a hit at index 16,
the last rotation of the second batch and of its second screen slice, and a
hit at index 131, deep in a batch whose earlier slices the orbit search
screens out).  ``construct`` writes only matrix files, so the spectrum files
that one ``classify`` and three ``falsify`` read are written first from the
literal text in SPECTRUM_FILES (unsorted, so loading sorts them).  To compare
two source trees, run it once against each and ``diff -r`` the two output
directories.  Exits 1 if a command does not exit 0.
"""

import contextlib
import io
import os
import sys

from specsep.cli import main as specsep_main

SPECTRUM_FILES = {
    "spec23.json": '{"dims":{"locals":[2,3]},"spectrum":[0.125,0.25,0.125,0.25,0.125,0.125]}\n',
    # lambda_1 = 0.4 > lambda_3 + 2 sqrt(lambda_2 lambda_4) = 0.3: NPT rotations exist
    "late22.json": '{"dims":{"locals":[2,2]},"spectrum":[0.3,0.4,0,0.3]}\n',
}

# (output file, argv without --output); later commands read earlier files
COMMANDS = [
    ("rt.json", ["construct", "rho_tilde", "--d-a", "2", "--d-b", "3"]),
    ("om.json", ["construct", "omega_t", "--t", "1.2"]),
    ("seed.json", ["construct", "seed_state"]),
    ("werner.json", ["construct", "werner"]),
    ("phi.json", ["construct", "phi_plus", "--d-a", "2", "--d-b", "3"]),
    ("phi22.json", ["construct", "phi_plus"]),
    ("mm3.json", ["construct", "maximally_mixed", "--d-a", "3", "--d-b", "3"]),
    ("mm2.json", ["construct", "maximally_mixed"]),
    ("c_rt.json", ["classify", "rt.json"]),
    ("c_phi.json", ["classify", "phi.json"]),
    ("c_spec.json", ["classify", "spec23.json"]),
    ("t_seed_werner.json", ["transform", "seed.json", "werner.json"]),
    ("t_seed_phi.json", ["transform", "seed.json", "phi22.json"]),
    ("t_werner_om.json", ["transform", "werner.json", "om.json"]),
    ("t_om_mm.json", ["transform", "om.json", "mm2.json"]),
    ("w_sep.json", ["witness", "separating", "--d-a", "2", "--d-b", "3",
                    "--evaluate", "rt.json"]),
    ("w_ppt.json", ["witness", "ppt"]),
    ("w_sep49.json", ["witness", "separating", "--d-a", "4", "--d-b", "9"]),
    ("bounds.json", ["bounds", "--copies", "3", "--h-norm", "1.5", "--l", "2",
                     "--k-b", "0.5"]),
    ("f_phi.json", ["falsify", "phi.json", "--samples", "50", "--seed", "11"]),
    ("f_mm.json", ["falsify", "mm3.json", "--samples", "300"]),
    ("f_spec.json", ["falsify", "spec23.json", "--samples", "200", "--seed", "7"]),
    ("f_late.json", ["falsify", "late22.json", "--samples", "500", "--seed", "2"]),
    ("f_late16.json", ["falsify", "late22.json", "--samples", "500", "--seed", "17"]),
]


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)

    def path(name):
        return os.path.join(outdir, name) if name.endswith(".json") else name

    for name, text in SPECTRUM_FILES.items():
        with open(path(name), "w") as fh:
            fh.write(text)
    for out, command in COMMANDS:
        args = [path(a) for a in command] + ["--output", path(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = specsep_main(args)
        if code != 0:
            print("%s exited %d" % (" ".join(command), code), file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
