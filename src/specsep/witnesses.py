"""Entanglement witnesses: construction, evaluation and a block-positivity
oracle based on alternating minimization over product vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    Dims,
    _integer,
    as_dims,
    hermitian_part,
    partial_transpose,
    phi_plus_pt,
    rho_tilde_blocks,
    same_dims,
)

# A see-saw start stops once its objective falls by less than this fraction of
# the witness's trace norm.
SEESAW_CONVERGENCE = 1e-12

# How often the see-saw prunes starts that cannot end lowest, and by how much of
# ||W||_1 a start's extrapolated limit must miss the lowest value to be pruned.
SEESAW_PRUNE_EVERY = 10
SEESAW_PRUNE_MARGIN = 1e-3

# At the same checks, a start whose product vector overlaps that of a lower
# start by more than 1 - SEESAW_MERGE has met it and stops.  Set from starts
# placed near saddles, where met starts can still part for different basins.
SEESAW_MERGE = 1e-3

# S_mu / 2 for S = I, sz, sx, sy, flattened and read as float.  A qubit see-saw
# side is carried as a Bloch unit vector u, standing for the projector
# (I - u . (sz, sx, sy)) / 2, and an operator M on it as the row Tr(M S_mu) / 2.
_HALF_PAULI = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, -1j, 1j, 0]]).view(float) / 2


@dataclass(frozen=True)
class Witness:
    """Hermitian operator with bipartite dimension metadata."""

    dims: Dims
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.flags.writeable = False


def make_witness(matrix, dims):
    dims = as_dims(dims)
    dims.bipartite()
    m = hermitian_part(matrix, dims)
    return Witness(dims=dims, matrix=m)


def evaluate(w, rho):
    """Tr(W rho), real: ``make_witness`` and ``density_matrix`` make both
    operands Hermitian, so an imaginary part is rounding.  Dims must match."""
    same_dims(w.dims, rho.dims, "witness", "state")
    return float(np.trace(w.matrix @ rho.matrix).real)


def make_ppt_witness(dims):
    """Partial transpose of the maximally entangled projector.

    Trace 1, spectrum in [-1/d, 1/d], block positive; detects every NPT
    state that a maximally-entangled-fidelity test can see.
    """
    dims = as_dims(dims)
    return make_witness(phi_plus_pt(*dims.bipartite()), dims)


def separating_witness_condition(d_a, d_b):
    """Value pair (lhs, rhs) of the separation condition
    (R-1) sqrt((D-1) p q) > p + q R; the witness is strictly negative on
    rho_tilde exactly when lhs > rhs.  Requires 2 <= d_a < d_b."""
    p, q, ratio = rho_tilde_blocks(d_a, d_b)
    big_d = p + q
    lhs = (ratio - 1.0) * math.sqrt((big_d - 1) * p * q)
    rhs = p + q * ratio
    return lhs, rhs


def make_separating_witness(d_a, d_b):
    """Witness separating rho_tilde from the convex hull of the two known
    spectral regions (requires 2 <= d_a < d_b).

    Built as identity/D plus a normalized traceless step operator aligned
    with rho_tilde's eigenbasis; nonnegative on both regions, strictly
    negative on rho_tilde whenever the separation condition holds.
    """
    p, q = rho_tilde_blocks(d_a, d_b)[:2]
    big_d = p + q
    # complex, so z / z_norm rounds as a product with 1 / z_norm: witness bytes rest on it
    z = np.diag(np.concatenate([np.full(p, 1 / p), np.full(q, -1 / q)]).astype(complex))
    z_norm = math.sqrt(big_d / (p * q))  # Hilbert-Schmidt norm of z
    m = np.eye(big_d, dtype=complex) / big_d + math.sqrt((big_d - 1) / big_d) * z / z_norm
    return make_witness(m, (d_a, d_b))


def make_decomposable_witness(sigma):
    """Partial transpose of a state: guaranteed block positive with trace 1.

    Used as a generator of witnesses for exercising the trace-norm bound.
    """
    return make_witness(partial_transpose(sigma), sigma.dims)


def trace_norm(w):
    """Sum of absolute eigenvalues of the witness."""
    return float(np.abs(np.linalg.eigvalsh(w.matrix)).sum())


def _least_eigenpair(x, d):
    """Least eigenvalue and the carrier of a unit eigenvector v for it, per row
    of a stack of operators M on a see-saw side of dimension d.

    On a qubit a row is x = (tr M / 2, (M00 - M11) / 2, Re M10, Im M10), the
    coefficients of M in I, sz, sx, sy.  With r = hypot(x1, x2, x3), the
    eigenvalue is x0 - r and the carrier v's Bloch vector (x1, x2, x3) / r,
    divided by r one component at a time, since 1 / r overflows to inf for a
    subnormal r; a scalar matrix (r = 0) gives (-1, 0, 0), that is |0><0|, as
    ``eigh`` does.  On a larger side a row is the flattened matrix read as
    float, of which ``eigh`` reads the lower triangle, and the carrier the
    flattened projector |v><v| read as float.
    """
    if d != 2:
        vals, vecs = np.linalg.eigh(x.view(complex).reshape(-1, d, d))
        v = vecs[:, :, 0]
        return vals[:, 0], (v[:, :, None] * v.conj()[:, None, :]).reshape(len(v), -1).view(float)
    unit = x[:, 1:]
    r = np.hypot(unit[:, 0], np.hypot(unit[:, 1], unit[:, 2]))
    value = x[:, 0] - r
    if not r.all():
        zero = r == 0
        unit, r = unit - zero[:, None] * (1, 0, 0), r + zero
    return value, unit / r[:, None]


def _overlaps(carrier, d):
    """|<v_i|v_j>|^2 for each pair of rows of a see-saw side's carrier stack."""
    if d == 2:  # Tr(P_i P_j) of the Bloch vectors' projectors
        return (1 + carrier @ carrier.T) / 2
    return carrier @ carrier.T  # Tr(P_i P_j) of the flattened projectors


def _carrier_map(f, d_from, d_to):
    """The function that takes a d_from side's carrier stack to the d_to
    side's operators, as ``_least_eigenpair`` takes them, where f maps a
    flattened projector to the flattened operator: one real matrix product,
    and on a qubit source an offset too."""
    # row 2 r is the image of Re p_r, row 2 r + 1 that of Im p_r
    m = np.concatenate([f.view(float), (1j * f).view(float)], axis=1).reshape(2 * len(f), -1)
    if d_to == 2:
        m = m @ _HALF_PAULI.T
    if d_from == 2:
        # rows: the images of I / 2 and of the Paulis / 2, which u enters negated
        m = _HALF_PAULI @ m
        offset, m = m[0], m[1:]
        return lambda u: offset - u @ m
    return lambda p: p @ m


def seesaw_minimize(w, starts, iters):
    """Alternating minimization of <a x b|W|a x b> from a (k, d_b) stack of
    B-side starts, all advanced together.

    Fixing one side, the optimal other side is the minimal eigenvector of
    the contracted local operator; each start's objective is therefore
    non-increasing.  A side of dimension 2 is carried as its Bloch vector and
    a larger one as its flattened projector |v><v|, so a half-step is one real
    matrix product against a map built from the witness once per call, and one
    least eigenpair per start: in closed form on a qubit and by ``eigh`` on a
    larger side.  A start stops at its first iteration with
    best - value < SEESAW_CONVERGENCE * ||W||_1 (keeping the smaller of the
    two) and is dropped from the later ones, so the rule scales with W as its
    values do.

    A start is also pruned when it cannot end lowest.  After every
    SEESAW_PRUNE_EVERY-th iteration, with lowest the smallest best of all
    starts (stopped ones included), v0, v1, v2 a start's last three values,
    prev = v0 - v1 and step = v1 - v2, a start whose descent is slowing
    (prev > step) stops when its geometric limit best - step^2 / (prev - step)
    lies more than SEESAW_PRUNE_MARGIN * ||W||_1 above lowest.  At the same
    checks a start is merged into a start that ranks below it on (best so far,
    start index) and whose product vector it has met:
    |<a_i b_i|a_j b_j>|^2 > 1 - SEESAW_MERGE, taken as the product of the two
    sides' overlaps from the carriers.  A pruned or merged start reports its
    best at the stop.  Every best is still an attained product expectation;
    the smallest can lie above the rule-free run's only where a merged or
    pruned start would later have escaped to a lower basin.  A pruned or
    merged column ends with a step (its smallest earlier value minus its last)
    of at least the convergence threshold, a converged one with a step below
    it.

    Returns (best value per start, history), where history is an
    (iterations run, k) array of objective values that reads NaN once a start
    has stopped.  It runs on W brought to unit size by a power of two and
    scales the values back, so every scale rounds alike.  Raises ValueError on
    a start row that is not finite.
    """
    iters = _integer(iters, 1, "iters")
    d_a, d_b = w.dims.bipartite()
    b = np.asarray(starts, dtype=complex)
    if b.ndim != 2 or b.shape[1] != d_b:
        raise ValueError("starts must be a (k, %d) stack, got shape %r" % (d_b, b.shape))
    bad = np.flatnonzero(~np.isfinite(b).all(axis=1))
    if len(bad):
        raise ValueError("start row %d is not finite" % bad[0])
    k = len(b)
    # largest real or imaginary part into [1/2, 1): 2^-e overflows for a subnormal W
    e = int(np.frexp(np.abs(w.matrix.view(float)).max())[1])
    w = Witness(dims=w.dims, matrix=np.ldexp(w.matrix.view(float), -e).view(complex))
    # tiny keeps the threshold positive, so that a zero witness stops too
    norm = max(trace_norm(w), np.finfo(float).tiny)
    threshold, margin = SEESAW_CONVERGENCE * norm, SEESAW_PRUNE_MARGIN * norm
    # <a x b|W|a x b> = sum W[i,j,m,n] conj(a_i) conj(b_j) a_m b_n, so the
    # projector P[n, j] = b_n conj(b_j) contracts to A's operator as from_b(P)
    t = w.matrix.reshape(d_a, d_b, d_a, d_b)
    from_b = _carrier_map(t.transpose(3, 1, 0, 2).reshape(d_b * d_b, d_a * d_a), d_b, d_a)
    from_a = _carrier_map(t.transpose(2, 0, 1, 3).reshape(d_a * d_a, d_b * d_b), d_a, d_b)
    pb = (b[:, :, None] * b.conj()[:, None, :]).reshape(k, d_b * d_b).view(float)
    if d_b == 2:  # b's Bloch vector, as the least eigenvector of -|b><b| (|0> for b = 0)
        pb = _least_eigenpair(-pb @ _HALF_PAULI.T, 2)[1]
    history = np.full((iters, k), np.nan)
    best = np.full(k, math.inf)  # the best value of each stopped start
    running = np.full(k, math.inf)  # the best value of each active start
    active = np.arange(k)
    run = 0
    while run < iters and len(active):
        _, pa = _least_eigenpair(from_b(pb), d_a)
        value, pb = _least_eigenpair(from_a(pa), d_b)
        history[run, active] = value
        run += 1
        done = running - value < threshold
        running = np.minimum(running, value)
        if run % SEESAW_PRUNE_EVERY == 0:
            excess = running - min(best.min(), running.min()) - margin
            if excess.max() > 0:  # else no limit can lie above lowest + margin
                v0, v1, v2 = history[run - 3:run, active]
                prev, step = v0 - v1, v1 - v2
                # the limit running - step^2 / (prev - step), compared without a division
                done |= (prev > step) & (excess * (prev - step) > step * step)
            # lower[j, i]: start i ranks below start j on (running best, start
            # index); active is sorted, so position orders as the index does
            lower = running[:, None] > running
            lower |= np.tril(running[:, None] == running, -1)
            met = _overlaps(pa, d_a) * _overlaps(pb, d_b) > 1 - SEESAW_MERGE
            done |= (met & lower).any(axis=1)
        if done.any():
            best[active[done]] = running[done]
            active, pb, running = active[~done], pb[~done], running[~done]
    best[active] = running
    return np.ldexp(best, e), np.ldexp(history[:run], e)


def min_product_expectation(w, restarts=32, iters=100, seed=0):
    """Best (smallest) product-vector expectation found by the see-saw.

    An upper bound on the true minimum over product states; a value below
    zero disproves block positivity.  The starts are the rows of one
    ``default_rng(seed).standard_normal((restarts, d_b, 2))`` draw, read as
    complex (re, im) pairs and normalized; all restarts run as one batched
    see-saw, so the result is deterministic for a fixed seed.  Every 10th
    iteration (SEESAW_PRUNE_EVERY) the see-saw prunes the slowing starts whose
    extrapolated limit lies more than SEESAW_PRUNE_MARGIN = 1e-3 ||W||_1 above
    the lowest value, and merges each start whose product vector overlaps a
    lower start's by more than 1 - SEESAW_MERGE = 1 - 1e-3
    (``seesaw_minimize``).  The result is still attained by a product vector,
    but can lie above the rule-free minimum where a merged or pruned start
    would have escaped to a lower basin.
    """
    restarts = _integer(restarts, 1, "restarts")
    seed = _integer(seed, 0, "seed")
    _, d_b = w.dims.bipartite()
    starts = np.random.default_rng(seed).standard_normal((restarts, d_b, 2)).view(complex)[..., 0]
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    best, _ = seesaw_minimize(w, starts, iters)
    return float(best.min())
