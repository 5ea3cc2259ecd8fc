"""Independent brute-force verification machinery.

Nothing in here shares code paths with the criteria or channel
constructions it cross-checks: PPT tests go through an explicit
eigendecomposition, unitary-orbit searches sample Haar unitaries, and the
rearrangement minimizer works on sorted eigenvalue lists alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo, eigvalsh_lo as _eigvalsh_lo
from numpy.linalg._umath_linalg import qr_r_raw as _qr_r_raw, qr_reduced as _qr_reduced

from .states import _integer, same_dims, spectral_ratio, spectrum

NPT_THRESHOLD = -1e-9

# Batch sizes of an orbit search, the last one repeating: a hit on sample 0
# costs one rotation, one in the next 16 a 16-rotation batch, and a 100-sample
# search runs three QR calls (batches of 1, 16 and 83).
SEARCH_BATCHES = (1, 16, 256)

# A batch holds at most this many matrix entries per (n, D, D) stack (16 MiB of
# complex), so a search at large D keeps a few such stacks, not a few 256 D^2.
# No batch is cut at D <= 64.  A rotation gets the same QR, Cholesky factor and
# eigvalsh in any stack, so the cap changes no result.
SEARCH_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class FalsificationResult:
    """Outcome of a Haar-random search for an entangling unitary.

    On a hit, ``haar_unitaries(D, unitary_seed, unitary_index + 1)[unitary_index]``
    is the entangling unitary; both fields are None otherwise.
    """

    unitary_seed: int | None
    unitary_index: int | None
    min_pt_eigenvalue: float
    samples_used: int

    @property
    def found(self):
        return self.unitary_index is not None


def _partial_transpose(m, d_a, d_b):
    """Transpose the second factor of each (d_a d_b)-square matrix in a stack."""
    lead = m.shape[:-2]
    t = m.reshape(lead + (d_a, d_b, d_a, d_b)).swapaxes(-3, -1)
    return t.reshape(lead + (d_a * d_b, d_a * d_b))


def ppt_min_eigenvalue(rho):
    """Smallest eigenvalue of the partial transpose; below -1e-9 certifies
    entanglement."""
    d_a, d_b = rho.dims.bipartite()
    return float(np.linalg.eigvalsh(_partial_transpose(rho.matrix, d_a, d_b)).min())


def _lapack_failed(err, flag):
    # QR flags only an illegal argument, which these shapes never give, so a
    # flag comes from eigvalsh: numpy.linalg.eigvalsh's error
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# numpy.linalg's failure mapping for the LAPACK gufuncs called here directly:
# each flags a failed routine as an invalid value, raised as LinAlgError.  It
# decorates, as one errstate object cannot be entered twice at once.
_lapack_errors = np.errstate(call=_lapack_failed, invalid="call")


def _haar_batch(rng, dim, n):
    # QR of a complex Gaussian matrix with the phase-corrected diagonal, as
    # np.linalg.qr computes it.  The draw is factored in place (R on and above
    # its diagonal), and Q does not depend on its scale, so it is left unscaled.
    a = rng.standard_normal((n, dim, dim, 2)).view(complex)[..., 0]
    q = _qr_reduced(a, _qr_r_raw(a, signature="D->D"), signature="DD->D")
    phases = np.diagonal(a, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


@_lapack_errors
def haar_unitaries(dim, seed, n):
    """``n`` Haar-distributed unitaries as an (n, dim, dim) array.

    Deterministic per seed, and a batch of k is the prefix of a batch of
    n >= k drawn from the same seed.  ``dim`` >= 1, ``seed`` >= 0 and
    ``n`` >= 0 are integers, not bools.
    """
    dim = _integer(dim, 1, "dimension")
    seed = _integer(seed, 0, "seed")
    n = _integer(n, 0, "n")
    return _haar_batch(np.random.default_rng(seed), dim, n)


def haar_unitary(dim, seed):
    """One Haar-distributed unitary; deterministic per seed."""
    return haar_unitaries(dim, seed, 1)[0]


@_lapack_errors
def as_falsify_search(s, dims, samples, seed):
    """Sample Haar unitaries and PPT-test each rotation of the spectrum.

    Stops at the first NPT hit.  A not-found result is inconclusive: it
    never certifies absolute separability.  Sample ``i`` is
    ``haar_unitaries(D, seed, i + 1)[i]``, so a hit is reproducible from the
    search seed and its index (``unitary_seed``, ``unitary_index``) alone.
    ``dims`` must equal ``s.dims``.

    Rotations are drawn in batches of SEARCH_BATCHES (the last size
    repeating), and only those that can change the result are
    eigendecomposed.  Once a running minimum m exists, each batch is first
    Cholesky-factorized in one call, its spectra shifted down by m + 1e-12 (a
    shift built again only when m falls).  PT eigenvalues lie in [-1/2, 1], so
    Cholesky's backward error (about D eps) is far below that margin: a
    rotation whose factor exists has every eigenvalue above m (and so above the
    hit threshold), and skips ``eigvalsh``.  numpy's batched Cholesky gufunc
    fills each failed factor with NaN, so the failures are the candidates, and
    one ``eigvalsh`` call per batch gives the argmin and the first hit.  It
    gives a matrix the same eigenvalues in any stack, so the result is the one
    an eigendecomposition of every sample gives, whatever the batch sizes.

    QR, Cholesky and eigvalsh are numpy's LAPACK gufuncs, called directly
    rather than through ``np.linalg``'s wrappers: each routine gets the input
    the wrapper would give it, so every value is the same, and a LAPACK
    failure still raises ``np.linalg.LinAlgError``.  ``samples`` >= 1 and
    ``seed`` >= 0 are integers, not bools.
    """
    same_dims(s.dims, dims, "spectrum", "search")
    d_a, d_b = dims.bipartite()
    samples = _integer(samples, 1, "samples")
    seed = _integer(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    sizes = itertools.chain(SEARCH_BATCHES, itertools.repeat(SEARCH_BATCHES[-1]))
    cap = max(1, SEARCH_BATCH_ENTRIES // dims.total ** 2)
    eye = np.eye(dims.total)
    overall_min = math.inf
    shift = None
    done = 0
    while done < samples:
        n = min(next(sizes), cap, samples - done)
        u = _haar_batch(rng, dims.total, n)
        pt = _partial_transpose((u * s.values) @ u.conj().swapaxes(-2, -1), d_a, d_b)
        del u
        if shift is None:
            candidates = np.arange(n)
        else:
            with np.errstate(invalid="ignore"):
                failed = np.isnan(_cholesky_lo(pt - shift, signature="D->D")[:, 0, 0])
            candidates = np.flatnonzero(failed)
        if candidates.size:
            mins = _eigvalsh_lo(pt[candidates], signature="D->d")[:, 0]
            hits = np.flatnonzero(mins < NPT_THRESHOLD)
            if hits.size:
                i = int(candidates[hits[0]])
                return FalsificationResult(unitary_seed=seed, unitary_index=done + i,
                                           min_pt_eigenvalue=float(mins[hits[0]]),
                                           samples_used=done + i + 1)
            low = float(mins.min())
            if low < overall_min:
                overall_min = low
                shift = (overall_min + 1e-12) * eye
        done += n
    return FalsificationResult(unitary_seed=None, unitary_index=None,
                               min_pt_eigenvalue=overall_min, samples_used=samples)


def rearrangement_min(a_eigs, b_eigs):
    """min over unitaries U of Tr[A U B U^dag] for Hermitian A, B given by
    their eigenvalues: ascending of one against descending of the other.
    Each side is one row or an (n, D) stack; returns a float for two rows and
    otherwise an (n,) array, each entry the row call's value."""
    a = np.sort(np.asarray(a_eigs, dtype=float), axis=-1)
    # contiguous, so that vecdot sums each row as np.dot does
    b = np.sort(np.asarray(b_eigs, dtype=float), axis=-1)[..., ::-1].copy()
    if a.shape[-1] != b.shape[-1]:
        raise ValueError("eigenvalue lists must have equal length")
    out = np.vecdot(a, b)
    return float(out) if out.ndim == 0 else out


def pure_state_pt_spectrum(p, ambient):
    """Spectrum of the partial transpose of a pure-state projector with
    Schmidt weights p: the weights themselves plus +-sqrt(p_i p_j) for
    i < j, zero-padded to the ambient dimension.  ``p`` may be one row of
    d weights or a (..., d) stack; every row is checked."""
    p = np.asarray(p, dtype=float)
    # negated, so that a NaN weight fails them
    if not ((p.min(axis=-1) >= -1e-12).all() and (abs(p.sum(axis=-1) - 1.0) <= 1e-10).all()):
        raise ValueError("Schmidt weights must be nonnegative and sum to 1")
    p = np.clip(p, 0.0, None)
    d = p.shape[-1]
    if _integer(ambient, 1, "ambient dimension") < d * d:
        raise ValueError("ambient dimension must be at least len(p)^2")
    i, j = np.triu_indices(d, 1)
    root = np.sqrt(p[..., i] * p[..., j])
    lead = p.shape[:-1]
    pairs = np.stack([root, -root], axis=-1).reshape(lead + (-1,))
    return np.concatenate([p, pairs, np.zeros(lead + (ambient - d * d,))], axis=-1)


def thm2_violation_value(values, d_a, d_bprime):
    """Minimal overlap of the ancilla-extended state with a rotated
    partial-transposed maximally entangled projector, for one eigenvalue row
    (``s.values``) or each row of an (n, D) stack, as ``rearrangement_min``.

    A negative value certifies that the state tensored with a maximally
    mixed d_B'-dimensional ancilla is not absolutely PPT.  Requires
    d_B' >= d_A (d_A + 1) / 2 so the rearrangement pairing has enough room.
    Computed analytically from the spectra, never materializing the
    extended matrix.
    """
    d_a, d_bprime = _integer(d_a, 1, "d_a"), _integer(d_bprime, 1, "d_bprime")
    needed = d_a * (d_a + 1) // 2
    if d_bprime < needed:
        raise ValueError("d_bprime must be >= d_A(d_A+1)/2 = %d" % needed)
    extended = np.repeat(values, d_bprime, axis=-1) / d_bprime
    return rearrangement_min(
        extended, pure_state_pt_spectrum(np.full(d_a, 1.0 / d_a), extended.shape[-1]))


def verify_ratio_monotone(m, rho):
    """Spectral-ratio monotonicity of a map on a full-rank input: either the
    success probability vanishes or the normalized output's ratio does not
    exceed the input's.  The slack is 1e-9 plus D eps R_in (R_in + R_out),
    the conditioning of the two ratios computed from eigenvalues.

    The output sum_i Tr(E_i rho) phi_i is computed here, not by the map code.
    """
    out = sum(np.einsum("ij,ji->", effect, rho.matrix) * phi.matrix for effect, phi in m.branches)
    prob = float(out.trace().real)
    if prob <= 1e-12:
        return True
    out_vals = np.linalg.eigvalsh(out / prob)
    lo, hi = float(out_vals.min()), float(out_vals.max())
    r_in = spectral_ratio(spectrum(rho))
    if lo <= 1e-15:
        return math.isinf(r_in)
    r_out = hi / lo
    slack = 1e-9 + len(out_vals) * np.finfo(float).eps * r_in * (r_in + r_out)
    return bool(r_out <= r_in + slack)
