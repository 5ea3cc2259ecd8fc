import numpy as np
import pytest

from specsep.channels import make_map
from specsep.oracles import haar_unitary
from specsep.states import density_matrix, maximally_mixed, spectrum_from_values


def rand_spectrum(rng, dims, alpha=1.0):
    """Uniform-ish spectrum on the simplex (symmetric Dirichlet)."""
    d = int(np.prod(dims))
    vals = rng.dirichlet(np.full(d, alpha))
    return spectrum_from_values(vals, dims)


def two_level_spectrum(dims, p):
    """Spectrum with one large eigenvalue and D - 1 equal ones, at purity p:
    1/D plus sqrt(p - 1/D) times a unit vector orthogonal to all-ones."""
    d = int(np.prod(dims))
    x = np.sqrt(p - 1 / d)
    vals = np.full(d, 1 / d)
    vals[0] += x * np.sqrt((d - 1) / d)
    vals[1:] -= x / np.sqrt(d * (d - 1))
    return spectrum_from_values(vals, dims)


def rand_state(rng, dims):
    """Ginibre-induced random density matrix."""
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return density_matrix(m / m.trace().real, dims)


def rand_full_rank_state(rng, dims, floor=1e-3):
    """Random state with all eigenvalues bounded away from zero."""
    d = int(np.prod(dims))
    vals = rng.dirichlet(np.ones(d)) * (1 - d * floor) + floor
    u = haar_unitary(d, int(rng.integers(0, 2**31)))
    return density_matrix((u * vals) @ u.conj().T, dims)


def rand_valid_map(rng, dims, n_branches=3):
    """Random stochastic unital measure-and-prepare map.

    Effects are scaled Ginibre PSD matrices; all outputs but the last are
    slight perturbations of the maximally mixed state and the last output
    absorbs the unitality constraint (retrying with smaller perturbations
    until it is PSD).
    """
    d = int(np.prod(dims))
    mats = []
    for _ in range(n_branches):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    scale = 0.9 / np.linalg.eigvalsh(total).max()
    effects = [m * scale for m in mats]
    traces = [float(e.trace().real) for e in effects]
    q = sum(traces) / d
    eps = 0.05
    while True:
        outputs = []
        for _ in range(n_branches - 1):
            psi = rand_state(rng, dims)
            outputs.append((1 - eps) * np.eye(d) / d + eps * psi.matrix)
        rest = q * np.eye(d) - sum(t * o for t, o in zip(traces, outputs))
        last = rest / traces[-1]
        if np.linalg.eigvalsh(last).min() > 1e-12:
            outputs.append(last)
            break
        eps *= 0.5
    branches = [(e, density_matrix(o, dims)) for e, o in zip(effects, outputs)]
    return make_map(dims, branches)


def region_b_values(rng, big_d):
    """Dirichlet spectrum pushed inside the purity ball."""
    vals = rng.dirichlet(np.ones(big_d))
    uniform = np.full(big_d, 1 / big_d)
    bound = 1 / (big_d - 1)
    for _ in range(60):
        if vals @ vals <= bound:
            break
        vals = 0.5 * (vals + uniform)
    return vals


def region_b_sample(rng, d_a, d_b, seed):
    """Spectrum pushed inside the purity ball, then Haar rotated."""
    big_d = d_a * d_b
    vals = region_b_values(rng, big_d)
    u = haar_unitary(big_d, seed)
    return density_matrix((u * vals) @ u.conj().T, (d_a, d_b))


def region_a_weights(rng, big_d):
    """Eigenvalues of region A's PSD remainder: Dirichlet, trace 2/(D+2)."""
    return rng.dirichlet(np.ones(big_d)) * 2 / (big_d + 2)


def region_a_sample(rng, d_a, d_b, seed):
    """Identity floor plus a random PSD remainder of trace 2/(D+2)."""
    big_d = d_a * d_b
    w = region_a_weights(rng, big_d)
    u = haar_unitary(big_d, seed)
    x = (u * w) @ u.conj().T
    return density_matrix(np.eye(big_d) / (big_d + 2) + x, (d_a, d_b))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
