"""Probabilistic unital channels in measure-and-prepare form.

A map here is a list of branches (effect E_i, prepared state phi_i) with
sum_i E_i below the identity and sum_i Tr(E_i) phi_i proportional to the
identity.  This file provides validation, application, the explicit
entanglement-extraction example, the general ratio-based transformation
synthesis, and deterministic completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import Status, ratio_criterion
from .states import (
    PSD_TOL,
    Dims,
    as_dims,
    density_matrix,
    hermitian_part,
    is_singular,
    make_named_state,
    make_omega_t,
    maximally_mixed,
    ratio_at_least,
    spectral_ratio,
    spectrum,
)

SUBPOVM_TOL = 1e-10
UNITALITY_TOL = 1e-9
# Least divisor of phi_1 and phi_2 when R(rho) leaves room: a divisor x near 0
# amplifies sigma's rounding by about 1/x, past what validation admits
DIVISOR_FLOOR = 1e-3


class SubPovmViolation(ValueError):
    """The branch effects do not form a sub-POVM."""


class NotUnital(ValueError):
    """The map does not send the identity to a multiple of the identity."""


class RatioTooSmall(ValueError):
    """Input spectral ratio below the target's: the transformation is
    impossible with nonzero probability."""


class InputIsCAS(ValueError):
    """Input ratio within the CAS threshold: no probabilistic unital channel
    can extract entanglement from it."""


@dataclass(frozen=True)
class MeasurePrepareMap:
    """Stochastic unital instrument: branches of (effect, prepared state)."""

    dims: Dims
    branches: tuple
    unitality_factor: float


def make_map(dims, branches):
    """Validate the branch list and wrap it with its unitality factor."""
    dims = as_dims(dims)
    big_d = dims.total
    checked = []
    for effect, output in branches:
        e = hermitian_part(effect, dims, SubPovmViolation)
        if float(np.linalg.eigvalsh(e).min()) < -PSD_TOL:
            raise SubPovmViolation("effect has a negative eigenvalue")
        if output.dims != dims:
            raise SubPovmViolation("output dims %r differ from map dims %r"
                                   % (output.dims.locals, dims.locals))
        checked.append((e, output))
    total = sum(e for e, _ in checked)
    if float(np.linalg.eigvalsh(total).max()) > 1.0 + SUBPOVM_TOL:
        raise SubPovmViolation("sum of effects exceeds the identity")
    image = sum(float(e.trace().real) * out.matrix for e, out in checked)
    q = float(image.trace().real) / big_d
    if q <= 0:
        raise NotUnital("map annihilates the identity")
    if np.abs(image - q * np.eye(big_d)).max() > UNITALITY_TOL:
        raise NotUnital("image of the identity is not proportional to the identity")
    return MeasurePrepareMap(dims=dims, branches=tuple(checked), unitality_factor=q)


def apply_to_operator(m, x):
    """Raw action sum_i Tr(E_i X) phi_i on an arbitrary operator."""
    big_d = m.dims.total
    out = np.zeros((big_d, big_d), dtype=complex)
    for effect, output in m.branches:
        out += np.trace(effect @ x) * output.matrix
    return out


def apply_map(m, rho):
    """Apply to a state: returns (unnormalized output, success probability)."""
    if m.dims != rho.dims:
        raise ValueError("map dims %r do not match state dims %r"
                         % (m.dims.locals, rho.dims.locals))
    out = apply_to_operator(m, rho.matrix)
    prob = float(out.trace().real)
    if not (-1e-10 <= prob <= 1.0 + 1e-10):
        raise ValueError("success probability %.17g outside [0, 1]" % prob)
    return out, max(prob, 0.0)


def normalized_output(m, rho):
    """Post-selected output state; success probability must be nonzero."""
    out, prob = apply_map(m, rho)
    if prob <= 1e-12:
        raise ValueError("success probability is numerically zero")
    return density_matrix(out / prob, rho.dims), prob


def make_sec_c_example():
    """The explicit two-qubit instrument extracting a Werner state from the
    rank-3 diagonal seed state, with unitality factor 5/12."""
    dims = Dims((2, 2))
    werner = make_named_state("werner")
    # Complement branch: prepares (5/2 * identity/4 - werner), normalized.
    sigma_hat = (2.0 / 3.0) * ((5.0 / 2.0) * np.eye(4) / 4.0 - werner.matrix)
    sigma_hat = density_matrix(sigma_hat, dims)
    e_sigma = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    e_w = np.diag([2 / 9, 2 / 9, 2 / 9, 0.0]).astype(complex)
    return make_map(dims, [(e_sigma, sigma_hat), (e_w, werner)])


def construct_transformation(rho, sigma):
    """Stochastic unital map carrying rho to sigma with nonzero probability.

    Feasible exactly when R(rho) >= R(sigma) (``ratio_at_least``), where a
    singular state has R = inf.  One construction covers every feasible
    pair: alpha = D lambda_max(sigma), beta = 1 / (D lambda_min(sigma)), or
    beta = inf for a singular sigma, in which case phi_1 is sigma itself.
    A singular rho takes beta = inf and alpha at least 2.  Where R(rho) leaves
    room, neither divisor alpha - 1 nor 1 - 1/beta is left below DIVISOR_FLOOR.
    A maximally mixed target yields the depolarizing channel.
    """
    if rho.dims != sigma.dims:
        raise ValueError("input dims %r and target dims %r differ"
                         % (rho.dims.locals, sigma.dims.locals))
    big_d = rho.dims.total
    eye = np.eye(big_d, dtype=complex)

    if np.abs(sigma.matrix - eye / big_d).max() <= 1e-12:
        return make_map(rho.dims, [(eye, maximally_mixed(rho.dims))])

    rho_spec, sig_spec = spectrum(rho), spectrum(sigma)
    if not ratio_at_least(rho_spec, sig_spec):
        raise RatioTooSmall("R(rho) = %.12g < R(sigma) = %.12g"
                            % (spectral_ratio(rho_spec), spectral_ratio(sig_spec)))
    rho_vals, rho_vecs = np.linalg.eigh(rho.matrix)
    lam_min_rho = float(rho_vals[0])
    lam_max_rho = float(rho_vals[-1])
    v_min, v_max = rho_vecs[:, 0], rho_vecs[:, -1]

    alpha = big_d * float(sig_spec.values[0])
    beta = math.inf if is_singular(sig_spec) else 1.0 / (big_d * float(sig_spec.values[-1]))
    if is_singular(rho_spec):
        # R(rho) = inf frees both minima, and P = lam_max(rho) / alpha for any
        # beta: beta = inf makes phi_1 = sigma, and alpha - 1 >= 1 keeps the
        # division in phi_2 from amplifying sigma's rounding near I / D
        alpha, beta = max(alpha, 2.0), math.inf
    floored = max(alpha, 1.0 + DIVISOR_FLOOR), max(beta, 1.0 / (1.0 - DIVISOR_FLOOR))
    if floored[0] * floored[1] <= spectral_ratio(rho_spec):
        alpha, beta = floored
    # sigma = (1 - 1/beta) phi_1 + (1/beta) identity / D; at beta = inf the
    # division below is exact, so phi_1 is sigma and is not validated again
    phi1 = sigma if math.isinf(beta) else density_matrix(
        (sigma.matrix - eye / (beta * big_d)) / (1.0 - 1.0 / beta), rho.dims
    )
    phi2 = density_matrix((alpha * eye / big_d - sigma.matrix) / (alpha - 1.0), rho.dims)
    k = (alpha - 1.0) / (1.0 - 1.0 / beta)
    # y = cos(theta) v_max + sin(theta) v_min with <y|rho|y> = the target
    # lam_max / (alpha beta), which R(rho) >= R(sigma) puts in [lam_min, lam_max]
    cos2 = (lam_max_rho / (alpha * beta) - lam_min_rho) / (lam_max_rho - lam_min_rho)
    cos2 = min(max(cos2, 0.0), 1.0)
    cos_t, sin_t = math.sqrt(cos2), math.sqrt(1.0 - cos2)
    y = cos_t * v_max + sin_t * v_min

    c = 1.0 / (1.0 + k)
    m1 = c * np.outer(v_max, v_max.conj())
    m2 = c * k * np.outer(y, y.conj())
    return make_map(rho.dims, [(m1, phi1), (m2, phi2)])


def entangle_from(rho):
    """Instrument extracting entanglement from a non-CAS bipartite state.

    Targets the identity-depleted family at t = d (R-1)/(R+1) (any interior
    t for singular inputs), whose partial transpose has the negative
    eigenvalue (1-t)/(D-t).  Raises InputIsCAS when the ratio is within the
    CAS threshold.
    """
    d_a, d_b = rho.dims.bipartite()
    d = min(d_a, d_b)
    cas = ratio_criterion(spectrum(rho))
    ratio = cas.computed["ratio"]
    if cas.status is Status.DETECTED:
        raise InputIsCAS("spectral ratio %.12g within CAS threshold %.12g"
                         % (ratio, cas.computed["threshold"]))
    t = d * (ratio - 1.0) / (ratio + 1.0) if math.isfinite(ratio) else (1.0 + d) / 2.0
    target = make_omega_t(d_a, d_b, t)
    return construct_transformation(rho, target), target


def complete_to_deterministic(m):
    """Append the failure branch (identity remainder -> maximally mixed).

    The completed instrument is trace preserving and unital (q = 1).
    """
    q = m.unitality_factor
    if q > 1.0 + 1e-10:
        raise NotUnital("unitality factor %.17g exceeds 1; cannot complete" % q)
    big_d = m.dims.total
    e_fail = np.eye(big_d, dtype=complex) - sum(e for e, _ in m.branches)
    # Clamp tiny negative remainders from sub-POVM slack.
    vals, vecs = np.linalg.eigh(e_fail)
    vals = np.clip(vals, 0.0, None)
    e_fail = (vecs * vals) @ vecs.conj().T
    branches = list(m.branches) + [(e_fail, maximally_mixed(m.dims))]
    return make_map(m.dims, branches)
