"""Record what the CLI writes, prints and refuses, to compare two source trees.

Usage: PYTHONPATH=<src> python3 tools/report_bytes.py OUTDIR

Runs each command in-process through ``specsep.cli.main`` of whichever
``specsep`` is importable, in OUTDIR with relative file names, so printed paths
do not depend on OUTDIR; a numpy RuntimeWarning is an error.  Writes into
OUTDIR the LITERAL_FILES (six under ``bad/``, for FAILING), the files of the 30
``--output`` COMMANDS (34 report files with the other four), ``stdout.txt``
(each of the 33 COMMANDS and of the demos, then its stdout) and ``failing.txt``
(each of the 13 FAILING commands, then its stderr and exit code, argparse's
SystemExit code included).  Exits 1 if one of COMMANDS exits non-zero, one of
FAILING exits 0, or save -> load -> save changes a ``construct`` file.  To
compare two source trees, run it under each and ``diff -r`` the two OUTDIRs.
"""

import contextlib
import filecmp
import io
import os
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

from specsep.cli import main as specsep_main
from specsep.fileio import load_state, save_state

DEMOS = Path(__file__).resolve().parents[1] / "demos"

LITERAL_FILES = {
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
    "bad/unparsable.json": '{"dims":{"locals":[2,2]},"spectrum":[0.25,',
    "bad/not_psd.json": '{"dims":{"locals":[2,2]},"spectrum":[0.6,0.5,0.0,-0.1]}\n',
    "bad/bad_trace.json": '{"dims":{"locals":[2,2]},"spectrum":[0.5,0.5,0.5,0.5]}\n',
    "bad/not_hermitian.json": '{"dims":{"locals":[2]},"matrix":[[[0.5,0],[0.5,0]],'
                              '[[0,0],[0.5,0]]]}\n',
    "bad/wrong_shape.json": '{"dims":{"locals":[2,2]},"matrix":[[[1,0]]]}\n',
    # the maximally mixed state of dims 3x2, which no 2x3 state is carried to
    "bad/mm32.json": '{"dims":{"locals":[3,2]},"matrix":[%s]}' % ",".join(
        "[%s]" % ",".join("[0.16666666666666666,0]" if i == j else "[0,0]" for j in range(6))
        for i in range(6)),
}

# argvs that must exit 0, in order: later commands read earlier files.  transform
# onto phi22.json hits a singular target, onto near_mm.json one within 1.5e-6 of I/4
# (a map that divided by a small number would amplify its rounding).  falsify: hits at
# index 0, 16 and 131 (deep in a batch mostly screened out), and three misses, two long:
# six batches on 3 x 4, and on 8 x 9 a third batch the 2^20-entry cap cuts to 202.
COMMANDS = [
    "construct rho_tilde --d-a 2 --d-b 3 --output rt.json",
    "construct omega_t --t 1.2 --output om.json",
    "construct seed_state --output seed.json",
    "construct werner --output werner.json",
    "construct phi_plus --d-a 2 --d-b 3 --output phi.json",
    "construct phi_plus --output phi22.json",
    "construct maximally_mixed --d-a 3 --d-b 3 --output mm3.json",
    "construct maximally_mixed --output mm2.json",
    "construct rho_tilde --d-a 8 --d-b 9 --output rt89.json",
    "classify rt.json --output c_rt.json",
    "classify phi.json --output c_phi.json",
    "classify spec23.json --output c_spec.json",
    "transform seed.json werner.json --output t_seed_werner.json",
    "transform seed.json phi22.json --output t_seed_phi.json",
    "transform werner.json om.json --output t_werner_om.json",
    "transform om.json mm2.json --output t_om_mm.json",
    "transform werner.json near_mm.json --output t_werner_near.json",
    "witness separating --d-a 2 --d-b 3 --evaluate rt.json --output w_sep.json",
    "witness ppt --output w_ppt.json",
    "witness separating --d-a 4 --d-b 9 --output w_sep49.json",
    "witness ppt --d-a 2 --d-b 3 --evaluate phi.json --output w_ppt_phi.json",
    "witness ppt --d-a 3 --d-b 3 --evaluate mm3.json --output w_ppt_mm3.json",
    "bounds --copies 3 --h-norm 1.5 --l 2 --k-b 0.5 --output bounds.json",
    "falsify phi.json --samples 50 --seed 11 --output f_phi.json",
    "falsify mm3.json --samples 300 --output f_mm.json",
    "falsify spec23.json --samples 200 --seed 7 --output f_spec.json",
    "falsify late22.json --samples 500 --seed 2 --output f_late.json",
    "falsify late22.json --samples 500 --seed 17 --output f_late16.json",
    "falsify spec34.json --samples 1000 --seed 5 --output f_spec34.json",
    "falsify rt89.json --samples 300 --output f_rt89.json",
    "classify rt.json --compare-criteria",
    "classify werner.json --compare-criteria",
    "classify mm3.json --compare-criteria",
]

# argvs that must exit non-zero: bad state files, an infeasible transform,
# operands of other dims, refused options and an unwritable --output
FAILING = [
    "classify bad/unparsable.json",
    "classify bad/not_psd.json",
    "classify bad/bad_trace.json",
    "classify bad/not_hermitian.json",
    "classify bad/wrong_shape.json",
    "transform mm2.json werner.json",
    "transform rt.json bad/mm32.json",
    "construct werner --d-a 3",
    "falsify mm2.json --seed -1",
    "witness ppt --d-a 32 --d-b 33",
    "witness ppt --d-a 2 --d-b 3 --evaluate mm2.json",
    "bounds",
    "bounds --copies 3 --output bad/missing/b.json",
]


def output_of(argv):
    """The file that argv names after --output, or None."""
    words = argv.split()
    return words[words.index("--output") + 1] if "--output" in words else None


def run(argv):
    """Run specsep on the words of argv: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = specsep_main(argv.split())
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(tmp):
    """Write every file into the working directory; exit 1 when a check fails."""
    os.makedirs("bad", exist_ok=True)
    for name, text in LITERAL_FILES.items():
        with open(name, "w") as fh:
            fh.write(text)
    stdout, failing, again = [], [], os.path.join(tmp, "again.json")
    for argv in COMMANDS:
        code, out, err = run(argv)
        if code != 0:
            sys.exit("%s exited %s: %s" % (argv, code, err.strip()))
        stdout.append("$ specsep %s\n%s" % (argv, out))
        if argv.startswith("construct "):
            name = output_of(argv)
            save_state(again, load_state(name))
            if not filecmp.cmp(name, again, shallow=False):
                sys.exit("%s changed on save -> load -> save" % name)
    for demo in sorted(DEMOS.glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        stdout.append("$ python3 demos/%s\n%s" % (demo.name, out.getvalue()))
    for argv in FAILING:
        code, _, err = run(argv)
        if code == 0:
            sys.exit("%s exited 0" % argv)
        failing.append("$ specsep %s\n%sexit %s\n" % (argv, err, code))
    for name, lines in (("stdout.txt", stdout), ("failing.txt", failing)):
        with open(name, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    cwd = os.getcwd()
    os.chdir(argv[0])
    try:  # not contextlib.chdir, which needs Python 3.11
        with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
            warnings.simplefilter("error", RuntimeWarning)
            record(tmp)
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
