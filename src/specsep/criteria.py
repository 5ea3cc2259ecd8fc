"""Spectral separability criteria and closed-form bounds.

Every criterion consumes a ``Spectrum`` (never a matrix) and produces a
``CriterionVerdict``: its name, whether it detected, and the computed
quantities behind that bool.
Boundary comparisons get a 1e-12 tolerance on the Detected side: the sets
involved are closed, so boundary states must be detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .states import purity, spectral_ratio

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    detected: bool
    computed: dict
    reason: str = ""

    @property
    def status(self):
        """The report word: ``"detected"`` or ``"not-detected"``."""
        return "detected" if self.detected else "not-detected"


def ratio_criterion(s):
    """Eigenvalue-ratio test R <= (d+1)/(d-1), d the smaller local dimension.

    Detected means completely absolutely separable (the condition is iff),
    hence separable.  Singular spectra are never CAS: CAS states are full
    rank.
    """
    d = min(s.dims.bipartite())
    threshold = (d + 1) / (d - 1)
    ratio = spectral_ratio(s)  # +inf, never detected, for a singular spectrum
    singular = "singular spectrum: CAS states are full rank" if math.isinf(ratio) else ""
    return CriterionVerdict("ratio_cas", ratio <= threshold + BOUNDARY_TOL,
                            {"ratio": ratio, "threshold": threshold}, singular)


def purity_ball(s):
    """Largest separable ball: Tr(rho^2) <= 1/(D-1) certifies (absolute)
    separability.  It is region B of the convex-hull criterion conv(A u B)."""
    big_d = s.dims.total
    p = purity(s)
    bound = 1.0 / (big_d - 1)
    return CriterionVerdict("purity_ball", p <= bound + BOUNDARY_TOL,
                            {"purity": p, "bound": bound})


def region_a(s):
    """Region A of the convex-hull criterion conv(A u B): lambda_min >= 1/(D+2).

    Region B is ``purity_ball``.  Full membership in the convex hull is not
    decided here; non-membership can be certified with a separating witness.
    """
    lam_min = float(s.values[-1])
    bound = 1.0 / (s.dims.total + 2)
    return CriterionVerdict("region_a", lam_min >= bound - BOUNDARY_TOL,
                            {"lambda_min": lam_min, "bound": bound})


def appt_spectral_necessary(s):
    """Necessary spectral inequality for absolutely PPT states:
    lambda_1 <= lambda_{D-1} + 2 sqrt(lambda_D lambda_{D-2}).

    NotDetected certifies the spectrum is not absolutely PPT (hence not
    absolutely separable) for any dims.
    """
    v = s.values
    big_d = len(v)
    if big_d < 3:
        raise ValueError("APPT spectral inequality needs dimension >= 3")
    lam_max = float(v[0])
    rhs = float(v[-2] + 2.0 * math.sqrt(v[-1] * v[-3]))
    return CriterionVerdict("appt_necessary", lam_max <= rhs + BOUNDARY_TOL,
                            {"lambda_max": lam_max, "bound": rhs})


def cas_purity(s):
    """Necessary for CAS: Tr(rho^2) <= (d_A/d_B)/(d_A^2 - 1), d_A <= d_B.
    NotDetected certifies the spectrum is not CAS."""
    d_a, d_b = sorted(s.dims.bipartite())
    p = purity(s)
    bound = (d_a / d_b) / (d_a**2 - 1)
    return CriterionVerdict("cas_purity", p <= bound + BOUNDARY_TOL,
                            {"purity": p, "bound": bound})


def as_purity(s):
    """Necessary for AS: Tr(rho^2) <= 2/D for D > 4, and 3/8 at D = 4.
    NotDetected certifies the spectrum is not AS."""
    big_d = math.prod(s.dims.bipartite())
    p = purity(s)
    bound = 3.0 / 8.0 if big_d == 4 else 2.0 / big_d
    return CriterionVerdict("as_purity", p <= bound + BOUNDARY_TOL,
                            {"purity": p, "bound": bound})


def filippov(s):
    """Filippov's necessary condition for AS, evaluated at k = ceil(1/purity)
    so the hypothesis 1/k <= p <= 1/(k-1) holds; the radical term vanishes in
    the pure-state window k = 1.  NotDetected certifies the spectrum is not AS."""
    big_d = math.prod(s.dims.bipartite())
    p = purity(s)
    k = math.ceil(1.0 / p - BOUNDARY_TOL)
    lhs = 1.0 + math.sqrt(max(k * p - 1.0, 0.0) / (k - 1)) if k > 1 else 1.0
    rhs = 3.0 * k * math.sqrt(p / (big_d + 8))
    return CriterionVerdict("filippov", lhs <= rhs + BOUNDARY_TOL,
                            {"purity": p, "k": k, "lhs": lhs, "rhs": rhs})


def multipartite_guarantee(s, l):
    """Bipartitions guaranteed separable by the multipartite ratio bound.

    If R <= (l+1)/(l-1), returns every bipartition of the parties in
    ``s.dims`` whose smaller side has Hilbert dimension at most l (as pairs
    of index tuples, first side containing party 0).  Otherwise returns [].
    """
    if not 2 <= l < math.inf:  # a NaN l fails too
        raise ValueError("l must be >= 2 and finite")
    locals = s.dims.locals
    if len(locals) < 2:
        raise ValueError("multipartite guarantee needs at least two parties, got dims %r"
                         % (locals,))
    if spectral_ratio(s) > (l + 1) / (l - 1) + BOUNDARY_TOL:
        return []
    n = len(locals)
    parties = tuple(range(n))
    out = []
    for r in range(1, n):
        for side in combinations(range(1, n), r - 1):
            left = (0,) + side
            right = tuple(i for i in parties if i not in left)
            dim_left = math.prod(locals[i] for i in left)
            dim_right = math.prod(locals[i] for i in right)
            if min(dim_left, dim_right) <= l:
                out.append((left, right))
    return out


def gibbs_threshold(h_inf_norm, l, k_b=1.0):
    """Temperature above which a Gibbs state is separable across every
    bipartition with smaller side dimension <= l:
    T* = 2 ||H||_inf / (k_B ln((l+1)/(l-1)))."""
    if not 2 <= l < math.inf:  # a NaN l fails too
        raise ValueError("l must be >= 2 and finite")
    if not (0 <= h_inf_norm < math.inf and 0 < k_b < math.inf):
        raise ValueError("need finite h_inf_norm >= 0 and k_b > 0, got %r and %r"
                         % (h_inf_norm, k_b))
    # ln((l+1)/(l-1)) as log1p(2/(l-1)): the quotient rounds to 1 (log 0) once
    # l passes about 1e16, and int / int rounds 2/(l-1) correctly for any int l
    denominator = k_b * math.log1p(2 / (l - 1))
    # abs turns an h_inf_norm of -0.0 into a temperature of +0.0
    t_star = 2.0 * abs(h_inf_norm) / denominator if denominator > 0 else math.inf
    if t_star == math.inf:
        raise ValueError("T* overflows a double for h_inf_norm %r, l %r, k_b %r"
                         % (h_inf_norm, l, k_b))
    return t_star


def copy_bound(ratio):
    """Smallest n with R^n > R + 2 sqrt(R): that many tensor copies are
    certified to leave the absolutely-PPT (hence AS) set."""
    if not math.isfinite(ratio) or ratio <= 1.0:
        raise ValueError(
            "copy bound needs a finite ratio > 1 (the maximally mixed state never leaves AS)"
        )
    bound = math.log(ratio + 2.0 * math.sqrt(ratio)) / math.log(ratio)
    return int(math.floor(bound)) + 1


def run_all(s):
    """Evaluate the seven criteria once, in report order; returns their verdicts."""
    return (ratio_criterion(s), purity_ball(s), region_a(s), appt_spectral_necessary(s),
            cas_purity(s), as_purity(s), filippov(s))
