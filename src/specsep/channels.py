"""Probabilistic unital channels in measure-and-prepare form.

A map here is a list of branches (effect E_i, prepared state phi_i) with
sum_i E_i below the identity and sum_i Tr(E_i) phi_i proportional to the
identity.  This file provides validation, application, the explicit
entanglement-extraction example, the synthesis of a map rho -> sigma from the
two eigenbases, and deterministic completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criteria import ratio_criterion
from .states import (
    PSD_TOL,
    Dims,
    as_dims,
    density_matrix,
    hermitian_part,
    make_named_state,
    make_omega_t,
    maximally_mixed,
    ratio_at_least,
    same_dims,
    spectral_ratio,
    spectrum,
)

UNITALITY_TOL = 1e-9


class RatioTooSmall(ValueError):
    """No stochastic unital map reaches the target with nonzero probability:
    the input's spectral ratio is below the target's (in ``entangle_from``,
    within the CAS threshold, so below every entangled target's)."""


@dataclass(frozen=True)
class MeasurePrepareMap:
    """Stochastic unital instrument: branches of (effect, prepared state)."""

    dims: Dims
    branches: tuple
    unitality_factor: float


def make_map(dims, branches):
    """Validate the branch list and wrap it with its unitality factor."""
    dims = as_dims(dims)
    if not branches:
        raise ValueError("map has no branches")
    big_d = dims.total
    checked = []
    for effect, output in branches:
        e = hermitian_part(effect, dims)
        if float(np.linalg.eigvalsh(e).min()) < -PSD_TOL:
            raise ValueError("effect has a negative eigenvalue")
        same_dims(output.dims, dims, "output", "map")
        checked.append((e, output))
    total = sum(e for e, _ in checked)
    if float(np.linalg.eigvalsh(total).max()) > 1.0 + PSD_TOL:
        raise ValueError("sum of effects exceeds the identity")
    image = sum(float(e.trace().real) * out.matrix for e, out in checked)
    q = float(image.trace().real) / big_d
    if q <= 0:
        raise ValueError("map annihilates the identity")
    if np.abs(image - q * np.eye(big_d)).max() > UNITALITY_TOL:
        raise ValueError("image of the identity is not proportional to the identity")
    return MeasurePrepareMap(dims=dims, branches=tuple(checked), unitality_factor=q)


def apply_to_operator(m, x):
    """Raw action sum_i Tr(E_i X) phi_i on an arbitrary operator."""
    big_d = m.dims.total
    out = np.zeros((big_d, big_d), dtype=complex)
    for effect, output in m.branches:
        out += np.trace(effect @ x) * output.matrix
    return out


def apply_map(m, rho):
    """Apply to a state: returns (unnormalized output, success probability),
    the latter unchecked: in [0, 1] up to the tolerances at which ``make_map``
    and ``density_matrix`` admitted the operands, a noise negative clamped to 0."""
    same_dims(m.dims, rho.dims, "map", "state")
    out = apply_to_operator(m, rho.matrix)
    return out, max(float(out.trace().real), 0.0)


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
    pair: it measures in rho's eigenbasis and prepares states diagonal in
    sigma's.  Let hi and lo be rho's extreme eigenvalues, with
    eigenvectors v_hi and v_lo, sigma = U diag(s) U^dagger, and
    w_j = (hi s_j / s_max - lo) / (hi - lo), in [0, 1] because
    R(rho) >= R(sigma).  With q = 1 / max(sum w, sum (1 - w)), the effect
    q sum(w) |v_hi><v_hi| prepares U diag(w / sum w) U^dagger and the effect
    q sum(1 - w) |v_lo><v_lo| prepares U diag((1 - w) / sum(1 - w)) U^dagger,
    so Lambda(I) = q I and Lambda(rho) = p sigma with
    p = q hi / s_max >= hi / (D s_max).  Every division is by a sum of
    non-negative weights, so none amplifies sigma's rounding.  On
    seed_state -> werner it has Sec. C's q = 5/12, p = 2/9, outputs and
    failure effect |11><11|, but its success effect is rank one,
    (2/3)|v><v| on one eigenvector v of the seed's threefold eigenvalue,
    where ``make_sec_c_example`` has (2/9)(I - |11><11|).
    A maximally mixed target yields the depolarizing channel.
    """
    same_dims(rho.dims, sigma.dims, "input", "target")
    big_d = rho.dims.total
    eye = np.eye(big_d, dtype=complex)

    if np.abs(sigma.matrix - eye / big_d).max() <= 1e-12:
        return make_map(rho.dims, [(eye, maximally_mixed(rho.dims))])

    rho_spec, sig_spec = spectrum(rho), spectrum(sigma)
    if not ratio_at_least(rho_spec, sig_spec):
        raise RatioTooSmall("R(rho) = %.12g < R(sigma) = %.12g"
                            % (spectral_ratio(rho_spec), spectral_ratio(sig_spec)))
    rho_vals, rho_vecs = np.linalg.eigh(rho.matrix)
    # a noise-negative lo is kept, so that Lambda(rho) stays exactly p sigma; the
    # clip absorbs the weights down to about -D eps that R(rho) >= R(sigma)
    # within the ratio allowance leaves
    lo, hi = float(rho_vals[0]), float(rho_vals[-1])
    s, u = np.linalg.eigh(sigma.matrix)
    w = np.clip((hi * (s / s[-1]) - lo) / (hi - lo), 0.0, 1.0)
    q = 1.0 / max(w.sum(), (1.0 - w).sum())
    branches = []
    for weights, v in ((w, rho_vecs[:, -1]), (1.0 - w, rho_vecs[:, 0])):
        total = float(weights.sum())
        if total > 0.0:
            output = density_matrix((u * (weights / total)) @ u.conj().T, rho.dims)
            branches.append((q * total * np.outer(v, v.conj()), output))
    return make_map(rho.dims, branches)


def entangle_from(rho):
    """Instrument extracting entanglement from a non-CAS bipartite state.

    Targets the identity-depleted family at t = d (R-1)/(R+1) (any interior
    t for singular inputs), whose partial transpose has the negative
    eigenvalue (1-t)/(D-t).  Raises RatioTooSmall when the ratio is within the
    CAS threshold, which no entangled target meets.
    """
    d_a, d_b = rho.dims.bipartite()
    d = min(d_a, d_b)
    cas = ratio_criterion(spectrum(rho))
    ratio = cas.computed["ratio"]
    if cas.detected:
        raise RatioTooSmall("spectral ratio %.12g within CAS threshold %.12g"
                            % (ratio, cas.computed["threshold"]))
    t = d * (ratio - 1.0) / (ratio + 1.0) if math.isfinite(ratio) else (1.0 + d) / 2.0
    target = make_omega_t(d_a, d_b, t)
    return construct_transformation(rho, target), target


def complete_to_deterministic(m):
    """Append the failure branch (identity remainder -> maximally mixed).

    The completed instrument is trace preserving and unital (q = 1).  Every
    ``make_map`` map can be completed: its q = tr(sum E) / D is at most
    lambda_max(sum E) <= 1 + PSD_TOL.
    """
    big_d = m.dims.total
    e_fail = np.eye(big_d, dtype=complex) - sum(e for e, _ in m.branches)
    # Clamp tiny negative remainders from sub-POVM slack.
    vals, vecs = np.linalg.eigh(e_fail)
    vals = np.clip(vals, 0.0, None)
    e_fail = (vecs * vals) @ vecs.conj().T
    branches = list(m.branches) + [(e_fail, maximally_mixed(m.dims))]
    return make_map(m.dims, branches)
