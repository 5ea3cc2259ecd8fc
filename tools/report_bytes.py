"""Write the files of 30 fixed CLI commands into OUTDIR, for byte-identity checks.

Usage: PYTHONPATH=<src> python3 tools/report_bytes.py OUTDIR

Runs, in-process through ``specsep.cli.main`` of whichever ``specsep`` is
importable, 9 ``construct`` commands (state files) and 21 commands that write
reports: ``classify`` x3, ``transform`` x5 (one onto a singular target, and
one onto a target within 1.5e-6 of I/4, where a map that divides by a small
number would amplify the target's rounding), ``witness`` x5 (one on 4 x 9, a
36 x 36 matrix, and three that evaluate the witness on a state), ``bounds``
and ``falsify`` x7 (three misses, a hit on the
first sample, a hit at index 16, the last rotation of the second batch, a
hit at index 131, deep in a batch most of whose rotations the orbit search
screens out, and two long misses: 1000 samples on 3 x 4, six batches mostly
screened out, and 300 samples of rho_tilde on 8 x 9, where the 2^20-entry cap
cuts the third batch to 202 rotations).  The files ``construct`` cannot write
are written first from the literal text in STATE_FILES: the spectrum files
that one ``classify`` and four ``falsify`` read (unsorted, so loading sorts
them) and that near-I/4 matrix.  So OUTDIR ends up holding 34 files.  To
compare two source trees, run it once against each and ``diff -r`` the two
output directories.  Then loads each ``construct`` file with ``load_state``
and saves it again with ``save_state`` (into a temporary directory), checking
save -> load -> save on real output; the literal STATE_FILES are left out, as
specsep did not write them.  Exits 1 if a command does not exit 0 or a
saved-again file's bytes differ.
"""

import contextlib
import filecmp
import io
import os
import sys
import tempfile

from specsep.cli import main as specsep_main
from specsep.fileio import load_state, save_state

STATE_FILES = {
    "spec23.json": '{"dims":{"locals":[2,3]},"spectrum":[0.125,0.25,0.125,0.25,0.125,0.125]}\n',
    # lambda_1 = 0.4 > lambda_3 + 2 sqrt(lambda_2 lambda_4) = 0.3: NPT rotations exist
    "late22.json": '{"dims":{"locals":[2,2]},"spectrum":[0.3,0.4,0,0.3]}\n',
    # ratio 0.1 / 0.06 < 2 = (d+1)/(d-1) at d = 3: every rotation is PPT
    "spec34.json": '{"dims":{"locals":[3,4]},"spectrum":[0.08,0.1,0.06,0.095,0.065,0.1,'
                   '0.07,0.085,0.1,0.075,0.09,0.08]}\n',
    # diag(1/4 + 1e-6 (1.5, -.5, -.5, -.5))
    "near_mm.json": '{"dims":{"locals":[2,2]},"matrix":[[[0.2500015,0],[0,0],[0,0],[0,0]],'
                    '[[0,0],[0.2499995,0],[0,0],[0,0]],[[0,0],[0,0],[0.2499995,0],[0,0]],'
                    '[[0,0],[0,0],[0,0],[0.2499995,0]]]}\n',
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
    ("rt89.json", ["construct", "rho_tilde", "--d-a", "8", "--d-b", "9"]),
    ("c_rt.json", ["classify", "rt.json"]),
    ("c_phi.json", ["classify", "phi.json"]),
    ("c_spec.json", ["classify", "spec23.json"]),
    ("t_seed_werner.json", ["transform", "seed.json", "werner.json"]),
    ("t_seed_phi.json", ["transform", "seed.json", "phi22.json"]),
    ("t_werner_om.json", ["transform", "werner.json", "om.json"]),
    ("t_om_mm.json", ["transform", "om.json", "mm2.json"]),
    ("t_werner_near.json", ["transform", "werner.json", "near_mm.json"]),
    ("w_sep.json", ["witness", "separating", "--d-a", "2", "--d-b", "3",
                    "--evaluate", "rt.json"]),
    ("w_ppt.json", ["witness", "ppt"]),
    ("w_sep49.json", ["witness", "separating", "--d-a", "4", "--d-b", "9"]),
    ("w_ppt_phi.json", ["witness", "ppt", "--d-a", "2", "--d-b", "3", "--evaluate", "phi.json"]),
    ("w_ppt_mm3.json", ["witness", "ppt", "--d-a", "3", "--d-b", "3", "--evaluate", "mm3.json"]),
    ("bounds.json", ["bounds", "--copies", "3", "--h-norm", "1.5", "--l", "2",
                     "--k-b", "0.5"]),
    ("f_phi.json", ["falsify", "phi.json", "--samples", "50", "--seed", "11"]),
    ("f_mm.json", ["falsify", "mm3.json", "--samples", "300"]),
    ("f_spec.json", ["falsify", "spec23.json", "--samples", "200", "--seed", "7"]),
    ("f_late.json", ["falsify", "late22.json", "--samples", "500", "--seed", "2"]),
    ("f_late16.json", ["falsify", "late22.json", "--samples", "500", "--seed", "17"]),
    ("f_spec34.json", ["falsify", "spec34.json", "--samples", "1000", "--seed", "5"]),
    ("f_rt89.json", ["falsify", "rt89.json", "--samples", "300"]),
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

    for name, text in STATE_FILES.items():
        with open(path(name), "w") as fh:
            fh.write(text)
    for out, command in COMMANDS:
        args = [path(a) for a in command] + ["--output", path(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = specsep_main(args)
        if code != 0:
            print("%s exited %d" % (" ".join(command), code), file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        again = os.path.join(tmp, "again.json")
        for out, command in COMMANDS:
            if command[0] == "construct":
                save_state(again, load_state(path(out)))
                if not filecmp.cmp(path(out), again, shallow=False):
                    print("%s changed on save -> load -> save" % out, file=sys.stderr)
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
