"""Reference computations the benchmark checks specsep's outputs against.

None of this calls specsep: Haar unitaries come from scipy, the partial
transpose is an explicit index loop, Schmidt weights come from an SVD and
the closed-form bounds are re-derived from their definitions.
"""

from __future__ import annotations

import math

import numpy as np


def haar_unitaries(dim, n, seed):
    """n Haar-distributed dim x dim unitaries, reproducible per seed."""
    # Imported here so that making inputs, which uses this module, does not
    # count scipy's import in the benchmark's set-up time.
    from scipy.stats import unitary_group

    us = unitary_group.rvs(dim, size=n, random_state=np.random.default_rng(seed))
    return us.reshape(n, dim, dim)


def partial_transpose(m, d_a, d_b):
    """Transpose of the second factor, entry by entry:
    <i j| out |k l> = <i l| m |k j>."""
    out = np.empty_like(m)
    for i in range(d_a):
        for j in range(d_b):
            for k in range(d_a):
                for l in range(d_b):
                    out[i * d_b + j, k * d_b + l] = m[i * d_b + l, k * d_b + j]
    return out


def spectrum(m):
    """Eigenvalues of a Hermitian matrix, descending."""
    return np.sort(np.linalg.eigvalsh(m))[::-1]


def ratio(values):
    """lambda_max / lambda_min of a full-rank spectrum."""
    return float(max(values) / min(values))


def schmidt_weights(psi, d_a, d_b):
    """Squared Schmidt coefficients of a unit vector, descending."""
    s = np.linalg.svd(np.asarray(psi).reshape(d_a, d_b), compute_uv=False)
    return s ** 2


def median_rotated_pt_min(values, d_a, d_b, n, seed):
    """Median over n Haar rotations U diag(values) U^dag of the smallest
    eigenvalue of the partial transpose."""
    mins = []
    for u in haar_unitaries(len(values), n, seed):
        rho = (u * np.asarray(values)) @ u.conj().T
        mins.append(float(np.linalg.eigvalsh(partial_transpose(rho, d_a, d_b)).min()))
    return float(np.median(mins))


def max_entangled_projector(d_a, d_b):
    """|Phi+><Phi+| over the smaller dimension, on the leading basis vectors."""
    d = min(d_a, d_b)
    psi = np.zeros(d_a * d_b, dtype=complex)
    for i in range(d):
        psi[i * d_b + i] = 1.0 / math.sqrt(d)
    return np.outer(psi, psi.conj())


def ppt_witness(d_a, d_b):
    return partial_transpose(max_entangled_projector(d_a, d_b), d_a, d_b)


def omega_t(d_a, d_b, t):
    """(1 - t W) / (D - t) with W the partial transpose of |Phi+><Phi+|."""
    big_d = d_a * d_b
    return (np.eye(big_d) - t * ppt_witness(d_a, d_b)) / (big_d - t)


def rho_tilde_values(d_a, d_b):
    """floor(D/2) eigenvalues l and ceil(D/2) eigenvalues R l, R the
    threshold (d_a + 1)/(d_a - 1), in that order on the diagonal."""
    big_d = d_a * d_b
    r = (d_a + 1) / (d_a - 1)
    p = big_d // 2
    q = big_d - p
    ell = 1.0 / (p + q * r)
    return np.array([ell] * p + [r * ell] * q)


def separating_witness(d_a, d_b):
    """1/D + sqrt((D-1)/D) z/|z|_2 with z = P/p - (1-P)/q, P the projector
    onto the first p = floor(D/2) basis vectors."""
    big_d = d_a * d_b
    p = big_d // 2
    q = big_d - p
    z = np.diag([1.0 / p] * p + [-1.0 / q] * q)
    return np.eye(big_d) / big_d + math.sqrt((big_d - 1) / big_d) * z / np.linalg.norm(z)


def separating_product_min(d_a, d_b):
    """Minimum of the separating witness over product vectors.

    The witness is 1/D + c (<P>/p - (1 - <P>)/q), increasing in <P>, and
    |d_a - 1>|b> has <P> = 0 for every b because p <= (d_a - 1) d_b.
    """
    big_d = d_a * d_b
    p = big_d // 2
    q = big_d - p
    return (1.0 - math.sqrt((big_d - 1) * p / q)) / big_d


def copy_bound(r):
    """Smallest n with R^n > R + 2 sqrt(R), by counting up."""
    n = 1
    while not r ** n > r + 2.0 * math.sqrt(r):
        n += 1
    return n


def gibbs_threshold(h_norm, l, k_b):
    """T* = 2 |H| / (k_B ln((l+1)/(l-1)))."""
    return 2.0 * h_norm / (k_b * math.log((l + 1) / (l - 1)))


def instrument_residuals(effects, outputs, rho, sigma):
    """Violations of the stochastic unital instrument conditions.

    Returns a dict of non-negative residuals: negativity of the effects,
    of the outputs and of 1 - sum(E_i), non-unitality of
    sum_i Tr(E_i) phi_i, and the distance of the post-selected output
    from sigma.
    """
    big_d = rho.shape[0]
    eye = np.eye(big_d)
    image = sum(np.trace(e).real * phi for e, phi in zip(effects, outputs))
    q = np.trace(image).real / big_d
    out = sum(np.trace(e @ rho) * phi for e, phi in zip(effects, outputs))
    prob = np.trace(out).real
    return {
        "effect_negativity": max(0.0, -min(np.linalg.eigvalsh(e).min() for e in effects)),
        "output_negativity": max(0.0, -min(np.linalg.eigvalsh(phi).min() for phi in outputs)),
        "output_trace": max(abs(np.trace(phi).real - 1.0) for phi in outputs),
        "subpovm_excess": max(0.0, -np.linalg.eigvalsh(eye - sum(effects)).min()),
        "unitality": float(np.abs(image - q * eye).max()),
        "target": float(np.abs(out / prob - sigma).max()),
    }
