"""Spectral separability criteria and closed-form bounds.

Every criterion consumes a ``Spectrum`` (never a matrix) and produces a
``CriterionVerdict`` carrying the computed quantities behind the verdict.
Boundary comparisons get a 1e-12 tolerance on the Detected side: the sets
involved are closed, so boundary states must be detected.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import combinations

from .states import is_singular, purity, spectral_ratio

BOUNDARY_TOL = 1e-12


class Status(enum.Enum):
    DETECTED = "detected"
    NOT_DETECTED = "not-detected"


class CriterionInapplicable(ValueError):
    """Criterion preconditions cannot be met for this input."""


@dataclass(frozen=True)
class CriterionVerdict:
    name: str
    status: Status
    computed: dict = field(default_factory=dict)
    reason: str = ""


def _verdict(name, detected, computed, reason=""):
    status = Status.DETECTED if detected else Status.NOT_DETECTED
    return CriterionVerdict(name=name, status=status, computed=computed, reason=reason)


def ratio_criterion(s):
    """Eigenvalue-ratio test R <= (d+1)/(d-1), d the smaller local dimension.

    Detected means completely absolutely separable (the condition is iff),
    hence separable.  Singular spectra are never CAS: CAS states are full
    rank.
    """
    d = min(s.dims.bipartite())
    if d < 2:
        raise ValueError("smaller local dimension must be >= 2")
    threshold = (d + 1) / (d - 1)
    if is_singular(s):
        return _verdict("ratio_cas", False, {"ratio": math.inf, "threshold": threshold},
                        "singular spectrum: CAS states are full rank")
    ratio = spectral_ratio(s)
    return _verdict("ratio_cas", ratio <= threshold + BOUNDARY_TOL,
                    {"ratio": ratio, "threshold": threshold})


def purity_ball(s):
    """Largest separable ball: Tr(rho^2) <= 1/(D-1) certifies (absolute)
    separability.  It is region B of the convex-hull criterion conv(A u B)."""
    big_d = s.dims.total
    p = purity(s)
    bound = 1.0 / (big_d - 1)
    return _verdict("purity_ball", p <= bound + BOUNDARY_TOL, {"purity": p, "bound": bound})


def region_a(s):
    """Region A of the convex-hull criterion conv(A u B): lambda_min >= 1/(D+2).

    Region B is ``purity_ball``.  Full membership in the convex hull is not
    decided here; non-membership can be certified with a separating witness.
    """
    lam_min = float(s.values[-1])
    bound = 1.0 / (s.dims.total + 2)
    return _verdict("region_a", lam_min >= bound - BOUNDARY_TOL,
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
    rhs = v[-2] + 2.0 * math.sqrt(v[-1] * v[-3])
    detected = v[0] <= rhs + BOUNDARY_TOL
    return _verdict(
        "appt_necessary", detected, {"lambda_max": float(v[0]), "bound": float(rhs)}
    )


def _filippov_condition(p, big_d):
    """Purity-window condition of the Filippov bound, evaluated with
    k = ceil(1/p) so the hypothesis 1/k <= p <= 1/(k-1) holds; the radical
    term vanishes in the pure-state window k = 1."""
    k = math.ceil(1.0 / p - BOUNDARY_TOL)
    lhs = 1.0 + math.sqrt(max(k * p - 1.0, 0.0) / (k - 1)) if k > 1 else 1.0
    rhs = 3.0 * k * math.sqrt(p / (big_d + 8))
    return k, lhs, rhs


def purity_bound_report(s):
    """The three purity-based necessary conditions, as a list of verdicts.

    (i)  CAS purity:  Tr(rho^2) <= (d_A/d_B)/(d_A^2 - 1)  (d_A <= d_B).
    (ii) AS purity:   Tr(rho^2) <= 2/D for D > 4; exactly 3/8 at D = 4.
    (iii) Filippov:   window condition at k = ceil(1/purity).

    Detected means "consistent with" the respective set; NotDetected
    certifies exclusion.
    """
    d_a, d_b = sorted(s.dims.bipartite())
    big_d = s.dims.total
    p = purity(s)

    cas_bound = (d_a / d_b) / (d_a**2 - 1)
    v_cas = _verdict(
        "cas_purity", p <= cas_bound + BOUNDARY_TOL, {"purity": p, "bound": cas_bound}
    )

    as_bound = 3.0 / 8.0 if big_d == 4 else 2.0 / big_d
    v_as = _verdict("as_purity", p <= as_bound + BOUNDARY_TOL, {"purity": p, "bound": as_bound})

    k, lhs, rhs = _filippov_condition(p, big_d)
    v_fil = _verdict(
        "filippov", lhs <= rhs + BOUNDARY_TOL, {"purity": p, "k": k, "lhs": lhs, "rhs": rhs}
    )
    return [v_cas, v_as, v_fil]


def multipartite_guarantee(s, l):
    """Bipartitions guaranteed separable by the multipartite ratio bound.

    If R <= (l+1)/(l-1), returns every bipartition of the parties in
    ``s.dims`` whose smaller side has Hilbert dimension at most l (as pairs
    of index tuples, first side containing party 0).  Otherwise returns [].
    """
    if l < 2:
        raise ValueError("l must be >= 2")
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
    if l < 2:
        raise ValueError("l must be >= 2")
    if not (0 <= h_inf_norm < math.inf and 0 < k_b < math.inf):
        raise ValueError("need finite h_inf_norm >= 0 and k_b > 0, got %r and %r"
                         % (h_inf_norm, k_b))
    # ln((l+1)/(l-1)) as log1p(2/(l-1)): the quotient rounds to 1 (log 0) once
    # l passes about 1e16, and int / int rounds 2/(l-1) correctly for any int l
    denominator = k_b * math.log1p(2 / (l - 1))
    t_star = 2.0 * h_inf_norm / denominator if denominator > 0 else math.inf
    if t_star == math.inf:
        raise ValueError("T* overflows a double for h_inf_norm %r, l %r, k_b %r"
                         % (h_inf_norm, l, k_b))
    return t_star


def copy_bound(ratio):
    """Smallest n with R^n > R + 2 sqrt(R): that many tensor copies are
    certified to leave the absolutely-PPT (hence AS) set."""
    if not math.isfinite(ratio) or ratio <= 1.0:
        raise CriterionInapplicable(
            "copy bound needs a finite ratio > 1 (the maximally mixed state never leaves AS)"
        )
    bound = math.log(ratio + 2.0 * math.sqrt(ratio)) / math.log(ratio)
    return int(math.floor(bound)) + 1


def run_all(s):
    """Evaluate every registered criterion once; returns the tuple of verdicts."""
    verdicts = [ratio_criterion(s), purity_ball(s), region_a(s)]
    if s.dims.total >= 3:
        verdicts.append(appt_spectral_necessary(s))
    verdicts.extend(purity_bound_report(s))
    return tuple(verdicts)
