"""The benchmark's workloads: inputs made from a seed, the ops of one round,
and the check of each op's output.

A workload is a fixed list of ops, run round-robin in whole rounds.  An op
has a ``kind`` and three methods: ``run(round_no)`` is the timed call into
specsep; ``record(result)`` turns its result into a hashable record,
outside the timed region; ``check(record)`` compares a record with the
computations in ``reference.py`` after the timed loop and returns ``OK``,
``FAILED`` for the one known fault the benchmark keeps, or a message that
says what is wrong.

Inputs come from the benchmark's own generator; specsep sees them through
its public constructors and its state-file format.  Every op does the same
work in every round, so the share of failed ops is the same in every run
and per-op counts in a traced run do not depend on how many rounds ran.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import reference
from specsep import cli, oracles, states, witnesses

OK = "ok"
FAILED = "failed"

ORBIT_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]
ORBIT_SAMPLES = 100
REF_ROTATIONS = 64

SEESAW_DIMS = [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
SEESAW_RESTARTS = 32
SEESAW_ITERS = 100

FALSIFY_SAMPLES = 20


# --- inputs ---------------------------------------------------------------

def _haar(rng, dim):
    """Input generator only; checks draw from reference.haar_unitaries."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _threshold(d_a, d_b):
    d = min(d_a, d_b)
    return (d + 1) / (d - 1)


def _values_with_ratio(rng, n, ratio):
    """n eigenvalues spanning exactly [l, ratio * l], summing to 1."""
    x = np.concatenate([[0.0, 1.0], rng.uniform(size=n - 2)])
    v = 1.0 + (ratio - 1.0) * x
    return v / v.sum()


def _unit_trace(m):
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def _rotated(rng, values):
    u = _haar(rng, len(values))
    return _unit_trace((u * values) @ u.conj().T)


def _ginibre_state(rng, dim, rank):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return _unit_trace(g @ g.conj().T)


def _seed(rng):
    return int(rng.integers(2**31))


def _write_state(path, dims, matrix=None, spectrum=None):
    """A state file in specsep's format, written without specsep."""
    payload = {"dims": {"locals": list(dims)}}
    if matrix is not None:
        payload["matrix"] = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    else:
        payload["spectrum"] = [float(v) for v in spectrum]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _reject_constant(name):
    raise ValueError("non-finite constant %s" % name)


def strict_json(text):
    """json.loads that refuses NaN and Infinity as well as bare inf."""
    return json.loads(text, parse_constant=_reject_constant)


def _complex_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _dist(a, b):
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


# --- orbit_search ---------------------------------------------------------

class OrbitOp:
    """One Haar orbit search of a spectrum at or below the CAS threshold.

    By the threshold theorem no rotation is NPT, so every call draws all
    ORBIT_SAMPLES unitaries.  The search seed moves on each round; the work
    does not.
    """

    def __init__(self, values, dims, seed):
        self.kind = "D%d" % (dims[0] * dims[1])
        self.values = values
        self.dims = dims
        self.seed = seed
        self.spec = states.spectrum_from_values(values, dims)
        self._ref_median = None

    def run(self, round_no):
        return oracles.as_falsify_search(self.spec, self.spec.dims, ORBIT_SAMPLES,
                                         self.seed + round_no * ORBIT_SAMPLES)

    def record(self, res):
        return res.found, res.unitary_seed, res.min_pt_eigenvalue, res.samples_used

    def check(self, rec):
        found, unitary_seed, min_eig, used = rec
        if found or unitary_seed is not None or used != ORBIT_SAMPLES:
            return "NPT hit or early stop below the CAS threshold: %r" % (rec,)
        if self._ref_median is None:
            self._ref_median = reference.median_rotated_pt_min(
                self.values, *self.dims, REF_ROTATIONS, self.seed)
        if not -1e-9 <= min_eig <= self._ref_median:
            return "min PT eigenvalue %.6g outside [-1e-9, %.6g]" % (min_eig, self._ref_median)
        return OK


def orbit_search(seed, workdir):
    rng = np.random.default_rng([seed, 1])
    ops = []
    for d_a, d_b in ORBIT_DIMS:
        thr = _threshold(d_a, d_b)
        for _ in range(2):
            values = _values_with_ratio(rng, d_a * d_b, rng.uniform(1.05, thr))
            ops.append(OrbitOp(values, (d_a, d_b), _seed(rng)))
        if d_a < d_b:
            ops.append(OrbitOp(reference.rho_tilde_values(d_a, d_b), (d_a, d_b), _seed(rng)))
    return ops


# --- seesaw ---------------------------------------------------------------

class SeesawOp:
    """See-saw minimum of one witness over product vectors.

    ``kind`` says how the minimum is known: ``rank_one`` (c 1 - |psi><psi|,
    minimum c - s_max^2), ``separating`` (closed form), ``ppt`` (minimum 0)
    or ``decomposable`` (block positive, minimum >= 0).
    """

    def __init__(self, kind, witness, seed, psi=None, c=None):
        self.kind = kind
        self.witness = witness
        self.seed = seed
        self.psi = psi
        self.c = c

    def run(self, round_no):
        return witnesses.min_product_expectation(self.witness, restarts=SEESAW_RESTARTS,
                                                 iters=SEESAW_ITERS, seed=self.seed)

    def record(self, value):
        return value

    def check(self, value):
        d_a, d_b = self.witness.dims.locals
        if self.kind == "rank_one":
            exact = self.c - reference.schmidt_weights(self.psi, d_a, d_b)[0]
        elif self.kind == "separating":
            exact = reference.separating_product_min(d_a, d_b)
        else:
            upper = 1e-8 if self.kind == "ppt" else math.inf
            if -1e-9 <= value <= upper:
                return OK
            return "%s witness: see-saw minimum %.12g outside [-1e-9, %g]" % (
                self.kind, value, upper)
        if abs(value - exact) > 1e-8:
            return "%s witness: see-saw minimum %.12g, exact %.12g" % (self.kind, value, exact)
        return OK


def seesaw(seed, workdir):
    # The see-saw's iteration count depends on a witness only up to local
    # unitaries, and those are all the seed changes: the Schmidt weights
    # (ratios 1 : 1/2 : 1/4 ...) and the state under each decomposable
    # witness are fixed per dims, so an op costs about the same on every seed.
    rng = np.random.default_rng([seed, 2])
    ops = []
    for d_a, d_b in SEESAW_DIMS:
        dims = states.bipartite_dims(d_a, d_b)
        big_d = d_a * d_b
        local = np.kron(_haar(rng, d_a), _haar(rng, d_b))
        weights = 0.5 ** np.arange(min(d_a, d_b))
        weights /= weights.sum()
        psi = local @ sum(math.sqrt(w) * np.kron(np.eye(d_a)[i], np.eye(d_b)[i])
                          for i, w in enumerate(weights))
        c = rng.uniform(0.5, 1.0)
        w = witnesses.make_witness(c * np.eye(big_d) - np.outer(psi, psi.conj()), dims)
        ops.append(SeesawOp("rank_one", w, _seed(rng), psi=psi, c=c))
        ops.append(SeesawOp("ppt", witnesses.make_ppt_witness(dims), _seed(rng)))
        fixed = _ginibre_state(np.random.default_rng([d_a, d_b]), big_d, big_d)
        sigma = states.density_matrix(_unit_trace(local @ fixed @ local.conj().T), dims)
        ops.append(SeesawOp("decomposable", witnesses.make_decomposable_witness(sigma),
                            _seed(rng)))
        if d_a < d_b:
            ops.append(SeesawOp("separating", witnesses.make_separating_witness(d_a, d_b),
                                _seed(rng)))
    return ops


# --- cli_session ----------------------------------------------------------

class CliOp:
    """One in-process ``specsep`` command that writes its report with --output.

    ``expect(report)`` checks the parsed report.  ``keeps_fault`` marks the
    commands whose report holds a bare ``inf`` (singular inputs to
    ``classify`` and ``transform``): such a report counts as FAILED, any
    other unparsable report as wrong.
    """

    def __init__(self, kind, argv, expect, keeps_fault=False):
        self.kind = kind
        self.argv = argv
        self.output = argv[argv.index("--output") + 1]
        self.expect = expect
        self.keeps_fault = keeps_fault

    def run(self, round_no):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def record(self, code):
        try:
            with open(self.output) as fh:
                text = fh.read()
            os.remove(self.output)
        except FileNotFoundError:
            text = None
        return code, text

    def check(self, rec):
        code, text = rec
        if code != 0:
            return "%s exited with %r" % (self.kind, code)
        if text is None:
            return "%s wrote no report" % self.kind
        try:
            report = strict_json(text)
        except ValueError as exc:
            if self.keeps_fault and ":inf" in text:
                return FAILED
            return "%s report is not strict JSON: %s" % (self.kind, exc)
        return self.expect(report) or OK


def _expect_state(matrix, dims):
    def expect(report):
        if report["dims"]["locals"] != list(dims):
            return "construct: dims %r" % (report["dims"],)
        err = _dist(_complex_matrix(report["matrix"]), matrix)
        return "construct: matrix off by %.3g" % err if err > 1e-12 else None
    return expect


def _expect_classify(spec, dims):
    """Spectrum, ratio and purity verdicts against the benchmark's eigvalsh."""
    big_d = len(spec)
    thr = _threshold(*dims)
    pur = float(np.dot(spec, spec))

    def expect(report):
        if report["dims"] != list(dims):
            return "classify: dims %r" % (report["dims"],)
        err = _dist(report["spectrum"], spec)
        if err > 1e-10:
            return "classify: spectrum off by %.3g" % err
        verdicts = {v["name"]: v for v in report["verdicts"]}
        ratio_cas = verdicts["ratio_cas"]
        if spec[-1] <= 1e-12:
            if ratio_cas["status"] != "not-detected":
                return "classify: singular spectrum detected as CAS"
        else:
            r = reference.ratio(spec)
            if abs(ratio_cas["computed"]["ratio"] - r) > 1e-8 * r:
                return "classify: ratio %r, expected %r" % (ratio_cas["computed"]["ratio"], r)
            if abs(r - thr) > 1e-9 * thr and (ratio_cas["status"] == "detected") != (r <= thr):
                return "classify: ratio verdict %s at R = %r" % (ratio_cas["status"], r)
        ball = verdicts["purity_ball"]
        if abs(ball["computed"]["purity"] - pur) > 1e-12:
            return "classify: purity %r, expected %r" % (ball["computed"]["purity"], pur)
        bound = 1.0 / (big_d - 1)
        if abs(pur - bound) > 1e-12 and (ball["status"] == "detected") != (pur <= bound):
            return "classify: purity verdict %s at purity %r" % (ball["status"], pur)
        return None
    return expect


def _expect_transform(rho, sigma):
    def expect(report):
        effects = [_complex_matrix(b["effect"]) for b in report["branches"]]
        outputs = [_complex_matrix(b["output"]["matrix"]) for b in report["branches"]]
        res = reference.instrument_residuals(effects, outputs, rho, sigma)
        limits = {"effect_negativity": 1e-10, "output_negativity": 1e-10, "output_trace": 1e-10,
                  "subpovm_excess": 1e-10, "unitality": 1e-9, "target": 1e-8}
        bad = ["%s %.3g" % (k, res[k]) for k in limits if not res[k] <= limits[k]]
        prob = sum(np.trace(e @ rho).real for e in effects)
        if abs(report["success_probability"] - prob) > 1e-10:
            bad.append("success probability %r vs %r" % (report["success_probability"], prob))
        return "transform: " + ", ".join(bad) if bad else None
    return expect


def _expect_witness(w_ref, rho, literal=None):
    expectation = float(np.trace(w_ref @ rho).real)
    trace_norm = float(np.abs(np.linalg.eigvalsh(w_ref)).sum())

    def expect(report):
        err = _dist(_complex_matrix(report["matrix"]), w_ref)
        if err > 1e-12:
            return "witness: matrix off by %.3g" % err
        if abs(report["trace_norm"] - trace_norm) > 1e-10:
            return "witness: trace norm %r, expected %r" % (report["trace_norm"], trace_norm)
        value = report["expectation"]
        if abs(value - expectation) > 1e-10:
            return "witness: Tr(W rho) = %r, expected %r" % (value, expectation)
        if literal is not None and abs(value - literal) > 5e-5:
            return "witness: Tr(W rho) = %r, expected about %r" % (value, literal)
        return None
    return expect


def _expect_copies(r):
    def expect(report):
        got = report["copy_bound"]
        n = reference.copy_bound(r)
        if got["ratio"] != r or got["n"] != n:
            return "bounds: copy bound %r, expected n = %d at R = %r" % (got, n, r)
        return None
    return expect


def _expect_gibbs(h, l, k_b):
    def expect(report):
        t = report["gibbs_threshold"]["temperature"]
        t_ref = reference.gibbs_threshold(h, l, k_b)
        if abs(t - t_ref) > 1e-12 * t_ref:
            return "bounds: T* = %r, expected %r" % (t, t_ref)
        return None
    return expect


def _expect_falsify_hit(seed):
    def expect(report):
        ok = (report["found"] is True and report["samples_used"] == 1
              and report["unitary_seed"] == seed
              and -0.5 <= report["min_pt_eigenvalue"] <= -1e-9)
        return None if ok else "falsify on a pure state: %r" % (report,)
    return expect


def _expect_falsify_miss(values, dims, seed):
    median = []

    def expect(report):
        if not median:
            median.append(reference.median_rotated_pt_min(values, *dims, REF_ROTATIONS, seed))
        ok = (report["found"] is False and report["unitary_seed"] is None
              and report["samples_used"] == FALSIFY_SAMPLES
              and -1e-9 <= report["min_pt_eigenvalue"] <= median[0])
        return None if ok else "falsify below the threshold: %r (median %r)" % (report, median[0])
    return expect


def cli_session(seed, workdir):
    rng = np.random.default_rng([seed, 3])

    def path(name):
        return os.path.join(workdir, name)

    ops = []

    def add(kind, argv, expect, keeps_fault=False):
        out = path("out%d.json" % len(ops))
        ops.append(CliOp(kind, argv + ["--output", out], expect, keeps_fault))

    # Inputs that depend on the seed.
    t = rng.uniform(0.2, 1.8)
    full = _ginibre_state(rng, 9, 9)
    spec22 = np.sort(rng.dirichlet(np.ones(4)))[::-1]
    rho = _rotated(rng, _values_with_ratio(rng, 6, rng.uniform(4.0, 8.0)))
    sigma = _rotated(rng, _values_with_ratio(rng, 6, rng.uniform(1.2, 2.0)))
    low_rank = _ginibre_state(rng, 6, 3)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    pure = _unit_trace(np.outer(psi, psi.conj()))
    cas_values = _values_with_ratio(rng, 9, rng.uniform(1.05, 2.0))
    copies_r = rng.uniform(1.1, 10.0)
    h, l, k_b = rng.uniform(0.1, 5.0), int(rng.integers(2, 7)), rng.uniform(0.5, 2.0)
    hit_seed, miss_seed = _seed(rng), _seed(rng)
    # Inputs that do not: the two singular states whose reports hold a bare
    # inf, and the threshold state the separating witness detects.
    phi_plus = reference.max_entangled_projector(2, 2)
    seed_state = np.diag([1 / 3, 1 / 3, 1 / 3, 0.0]).astype(complex)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    werner = 0.5 * np.outer(singlet, singlet) + np.eye(4) / 8
    rho_tilde = np.diag(reference.rho_tilde_values(2, 3)).astype(complex)

    add("construct", ["construct", "omega_t", "--d-a", "2", "--d-b", "3", "--t", repr(t)],
        _expect_state(reference.omega_t(2, 3, t), (2, 3)))
    add("classify", ["classify", _write_state(path("full.json"), (3, 3), matrix=full)],
        _expect_classify(reference.spectrum(full), (3, 3)))
    add("classify", ["classify", _write_state(path("spec.json"), (2, 2), spectrum=spec22),
                     "--compare-criteria"],
        _expect_classify(spec22, (2, 2)))
    add("classify", ["classify", _write_state(path("phi.json"), (2, 2), matrix=phi_plus)],
        _expect_classify(reference.spectrum(phi_plus), (2, 2)), keeps_fault=True)
    add("transform", ["transform", _write_state(path("rho.json"), (2, 3), matrix=rho),
                      _write_state(path("sigma.json"), (2, 3), matrix=sigma)],
        _expect_transform(rho, sigma))
    add("transform", ["transform", _write_state(path("seed.json"), (2, 2), matrix=seed_state),
                      _write_state(path("werner.json"), (2, 2), matrix=werner)],
        _expect_transform(seed_state, werner), keeps_fault=True)
    add("witness", ["witness", "ppt", "--d-a", "2", "--d-b", "3", "--evaluate",
                    _write_state(path("low.json"), (2, 3), matrix=low_rank)],
        _expect_witness(reference.ppt_witness(2, 3), low_rank))
    add("witness", ["witness", "separating", "--d-a", "2", "--d-b", "3", "--evaluate",
                    _write_state(path("tilde.json"), (2, 3), matrix=rho_tilde)],
        _expect_witness(reference.separating_witness(2, 3), rho_tilde, literal=-0.0197))
    add("bounds", ["bounds", "--copies", repr(copies_r)], _expect_copies(copies_r))
    add("bounds", ["bounds", "--h-norm", repr(h), "--l", str(l), "--k-b", repr(k_b)],
        _expect_gibbs(h, l, k_b))
    add("falsify", ["falsify", _write_state(path("pure.json"), (2, 3), matrix=pure),
                    "--samples", "1000", "--seed", str(hit_seed)],
        _expect_falsify_hit(hit_seed))
    add("falsify", ["falsify", _write_state(path("cas.json"), (3, 3), spectrum=cas_values),
                    "--samples", str(FALSIFY_SAMPLES), "--seed", str(miss_seed)],
        _expect_falsify_miss(cas_values, (3, 3), miss_seed))
    return ops


WORKLOADS = {"orbit_search": orbit_search, "seesaw": seesaw, "cli_session": cli_session}
