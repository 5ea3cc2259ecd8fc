"""Density matrices, spectra and the elementary state transformations.

Everything downstream (criteria, witnesses, channels, oracles) consumes the
two value types defined here: ``DensityMatrix`` for explicit matrices and
``Spectrum`` for eigenvalue lists, built by ``density_matrix`` and
``spectrum_from_values``, which validate them at fixed tolerances, and by
``tensor_product``, which does not validate again: the factors' trace and noise
errors add up and can leave the product of admitted states outside the
tolerances.  A ``DensityMatrix`` keeps the ``Spectrum`` it was validated with.
All operations are pure functions over immutable values.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Validation tolerances.  Each state invariant is checked once, when a value
# enters the library, by one code path: shape, finiteness and Hermiticity in
# ``hermitian_part`` (at half scale), PSD and trace in ``spectrum_from_values``.
# Eigenvalues in [-PSD_TOL, 0) are numerical noise and clamped to zero, and
# ``channels`` allows the same noise in I - sum E.
# EIG_CLAMP only marks a state as singular (smallest eigenvalue at or below it).
HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_CLAMP = 1e-12


def _integer(value, low, name):
    """``value`` as an int >= ``low``, else ValueError: the library's one
    integer rule.  ``operator.index`` refuses 2.5, "5" and NaN, and a bool,
    which it reads as 0 or 1, is refused here."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None
    if n < low:
        raise ValueError("%s must be >= %d, got %d" % (name, low, n))
    return n


@dataclass(frozen=True)
class Dims:
    """Local dimensions d_1..d_N of a multipartite system."""

    locals: tuple

    def __post_init__(self):
        try:
            locs = tuple(_integer(d, 1, "a local dimension") for d in self.locals)
        except (TypeError, ValueError):  # not a sequence of positive integers
            locs = ()
        if not locs:
            raise ValueError("local dimensions must be positive integers, got %r"
                             % (self.locals,))
        object.__setattr__(self, "locals", locs)

    @property
    def total(self):
        return math.prod(self.locals)

    def bipartite(self):
        """Return (d_A, d_B), raising unless two parties of dimension >= 2."""
        return _bipartite(self.locals)


def _bipartite(locs):
    """The one rule for bipartite dims: two local dimensions, each >= 2."""
    if len(locs) != 2:
        raise ValueError("operation requires bipartite dims, got %r" % (locs,))
    if min(locs) < 2:
        raise ValueError("bipartite local dimensions must be >= 2, got %r" % (locs,))
    return locs


def as_dims(dims):
    """``dims`` itself if it is a Dims, else Dims over the sequence of local
    dimensions it holds."""
    return dims if isinstance(dims, Dims) else Dims(dims)


def bipartite_dims(d_a, d_b):
    """Dims for a two-party system; both local dimensions must be >= 2."""
    return Dims(_bipartite((d_a, d_b)))


def same_dims(a, b, a_name, b_name):
    """The one rule for two operands' dims: ValueError unless Dims a == b."""
    if a != b:
        raise ValueError("%s dims %r differ from %s dims %r"
                         % (a_name, a.locals, b_name, b.locals))


@dataclass(frozen=True)
class Spectrum:
    """Descending-sorted eigenvalue list of a state."""

    values: np.ndarray
    dims: Dims

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix and the spectrum it was validated
    with, which carries its dims; built by ``density_matrix`` and
    ``tensor_product`` only."""

    matrix: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def dims(self):
        return self.spectrum.dims


def hermitian_part(m, dims):
    """(m + m^dagger) / 2 for a finite (D, D) matrix over ``dims`` (a Dims).

    Raises ValueError on a wrong shape, a non-finite entry, or a Hermiticity
    residual above HERMITICITY_TOL relative to the largest entry of ``m`` (or
    to 1, whichever is larger).
    """
    m = np.asarray(m, dtype=complex)
    d = dims.total
    if m.shape != (d, d):
        raise ValueError("matrix shape %r does not match dims %r (total %d)"
                         % (m.shape, dims.locals, d))
    # every check and sum runs on m / 2, where no modulus or sum of two overflows;
    # halving is exact for parts of magnitude >= 2^-1021, and it is done on the
    # floats, since complex * 0.5 turns some -0.0 parts into +0.0
    half = (np.ascontiguousarray(m).view(float) * 0.5).view(complex)
    scale = np.abs(half).max()  # finite unless an entry is
    if not math.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    adjoint = half.conj().T
    residual = np.abs(half - adjoint).max()
    if residual > HERMITICITY_TOL * max(scale, 0.5):
        raise ValueError("matrix is not Hermitian (residual %.3e)" % (2 * float(residual)))
    return half + adjoint


def density_matrix(matrix, dims):
    """Validate ``matrix`` against the density-matrix invariants and wrap it.

    Raises ValueError on a matrix that ``hermitian_part`` refuses or whose
    eigenvalues ``spectrum_from_values`` refuses.
    """
    dims = as_dims(dims)
    m = hermitian_part(matrix, dims)
    s = spectrum_from_values(np.linalg.eigvalsh(m), dims)
    return DensityMatrix(matrix=m, spectrum=s)


def spectrum_from_values(values, dims):
    """Validate an eigenvalue list and wrap it, descending.

    The values must be finite, at least -PSD_TOL (the noise above that is
    clamped to zero) and sum to 1 within TRACE_TOL before clamping.  This is
    the only PSD and trace check of a state, for matrices and spectra alike.
    """
    v = np.asarray(values, dtype=float)
    dims = as_dims(dims)
    if len(v) != dims.total:
        raise ValueError("spectrum has %d values, dims %r require %d"
                         % (len(v), dims.locals, dims.total))
    ascending = np.sort(v)  # -inf first, +inf and nan last
    low = ascending[0]
    if not (math.isfinite(low) and math.isfinite(ascending[-1])):
        raise ValueError("spectrum has non-finite values")
    if low < -PSD_TOL:
        raise ValueError("state is not PSD (eigenvalue %.3e below -%.3g)" % (low, PSD_TOL))
    # in the given order, which the message's digits show; a sum that overflows
    # is inf, which fails the trace check below
    with np.errstate(over="ignore"):
        total = v.sum()
    if abs(total - 1.0) > TRACE_TOL:
        raise ValueError("trace is %.17g, expected 1" % total)
    return Spectrum(values=_clamped_descending(ascending), dims=dims)


def _clamped_descending(ascending):
    """Ascending eigenvalues reversed, with the noise negatives set to zero."""
    v = ascending[::-1].copy()
    v[v < 0.0] = 0.0  # np.maximum(v, 0.0) would turn -0.0 into 0.0
    return v


def spectrum(rho):
    """Eigenvalues of a validated state, descending, with the noise
    negatives clamped to zero: the spectrum ``density_matrix`` stored."""
    return rho.spectrum


def is_singular(s):
    """True if the smallest eigenvalue is (numerically) zero."""
    return float(s.values[-1]) <= EIG_CLAMP


def spectral_ratio(s):
    """lambda_max / lambda_min; +inf for singular spectra."""
    return math.inf if is_singular(s) else float(s.values[0]) / float(s.values[-1])


def ratio_at_least(s, t):
    """R(s) >= R(t) within the eigenvalue backward error.

    Each eigenvalue ``eigvalsh`` returns is off by at most about D eps
    lambda_max (Weyl), so a finite ratio R = lambda_max / lambda_min, relatively
    off by up to D eps (1 + R) through lambda_max and lambda_min together, is
    only known to about D eps R (1 + R); the comparison allows
    D eps (R(s) (1 + R(s)) + R(t) (1 + R(t))).  A singular s reaches every t, a
    singular t only a singular s.
    """
    r_s, r_t = spectral_ratio(s), spectral_ratio(t)
    if math.isinf(r_s) or math.isinf(r_t):
        return r_s >= r_t
    return r_s >= r_t - s.dims.total * np.finfo(float).eps * (r_s * (1 + r_s) + r_t * (1 + r_t))


def purity(s):
    """Sum of squared eigenvalues, Tr(rho^2)."""
    return float(np.dot(s.values, s.values))


def partial_transpose(rho):
    """Transpose the second tensor factor of a bipartite state.

    Returns a plain Hermitian ndarray (generally not PSD).
    """
    d_a, d_b = rho.dims.bipartite()
    t = rho.matrix.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(d_a * d_b, d_a * d_b))


def max_entangled_ket(d_a, d_b):
    """|Phi+> over the smaller dimension, embedded in the leading basis
    vectors of each side: |i>|i> sits at index i (d_b + 1)."""
    d = min(d_a, d_b)
    psi = np.zeros(d_a * d_b, dtype=complex)
    psi[np.arange(d) * (d_b + 1)] = 1.0
    return psi / math.sqrt(d)


def phi_plus_pt(d_a, d_b):
    """Partial transpose of |Phi+><Phi+| over ``max_entangled_ket``: |ij><ji| / d
    for i, j < d = min(d_a, d_b).  Each entry is amp * amp with amp = 1/sqrt(d),
    as ``np.outer`` forms it from the ket, so the result is bit-identical."""
    d = min(d_a, d_b)
    amp = 1.0 / math.sqrt(d)
    i, j = np.divmod(np.arange(d * d), d)
    m = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    m[i * d_b + j, j * d_b + i] = amp * amp
    return m


def maximally_mixed(dims):
    dims = as_dims(dims)
    return density_matrix(np.eye(dims.total, dtype=complex) / dims.total, dims)


NAMED_STATES = ("maximally_mixed", "seed_state", "werner", "phi_plus", "omega_t", "rho_tilde")


def make_named_state(name, d_a=2, d_b=2, t=None):
    """Construct one of the named reference states, NAMED_STATES.

    ``seed_state`` and ``werner`` exist only at 2 x 2, and only ``omega_t``
    takes (and requires) ``t``; anything else is refused rather than ignored.
    """
    if t is not None and name != "omega_t":
        raise ValueError("%s takes no parameter t" % name)
    if name in ("seed_state", "werner") and (d_a, d_b) != (2, 2):
        raise ValueError("%s is defined only at dims 2x2, got %rx%r" % (name, d_a, d_b))

    if name == "maximally_mixed":
        return maximally_mixed(bipartite_dims(d_a, d_b))

    if name == "seed_state":
        # Rank-3 two-qubit diagonal state (1/3, 1/3, 1/3, 0).
        m = np.diag([1 / 3, 1 / 3, 1 / 3, 0]).astype(complex)
        return density_matrix(m, bipartite_dims(2, 2))

    if name == "werner":
        # Half singlet plus identity/8: full rank and NPT.
        psi = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        m = 0.5 * np.outer(psi, psi.conj()) + np.eye(4, dtype=complex) / 8
        return density_matrix(m, bipartite_dims(2, 2))

    if name == "phi_plus":
        dims = bipartite_dims(d_a, d_b)
        psi = max_entangled_ket(d_a, d_b)
        return density_matrix(np.outer(psi, psi.conj()), dims)

    if name == "omega_t":
        if t is None:
            raise ValueError("omega_t requires the parameter t")
        return make_omega_t(d_a, d_b, float(t))

    if name == "rho_tilde":
        return make_rho_tilde(d_a, d_b)

    raise ValueError("unknown state name %r" % name)


def make_omega_t(d_a, d_b, t):
    """Identity depleted along the partial transpose of |Phi+><Phi+|.

    Entangled exactly when t > 1; spectral ratio (1 + t/d)/(1 - t/d) with
    d the smaller local dimension.  Requires 0 <= t < d.
    """
    dims = bipartite_dims(d_a, d_b)
    d = min(d_a, d_b)
    if not (0 <= t < d):
        raise ValueError("omega_t requires 0 <= t < d = %d, got t = %r" % (d, t))
    big_d = dims.total
    m = (np.eye(big_d, dtype=complex) - t * phi_plus_pt(d_a, d_b)) / (big_d - t)
    return density_matrix(m, dims)


def rho_tilde_blocks(d_a, d_b):
    """The two levels of rho_tilde as (p, q, ratio): the first p = floor(D/2)
    basis states carry the lower eigenvalue, the last q = ceil(D/2) that value
    times ratio = (d_a + 1)/(d_a - 1).  Requires 2 <= d_a < d_b."""
    if not (2 <= d_a < d_b):
        raise ValueError("rho_tilde requires 2 <= d_a < d_b")
    big_d = d_a * d_b
    return big_d // 2, big_d - big_d // 2, (d_a + 1) / (d_a - 1)


def make_rho_tilde(d_a, d_b):
    """Two-level diagonal state sitting exactly on the ratio threshold
    (d_a + 1)/(d_a - 1), built for unequal local dimensions 2 <= d_a < d_b."""
    p, q, ratio = rho_tilde_blocks(d_a, d_b)
    ell = 1.0 / (p + q * ratio)
    diag = np.concatenate([np.full(p, ell), np.full(q, ratio * ell)])
    return density_matrix(np.diag(diag).astype(complex), bipartite_dims(d_a, d_b))


def tensor_product(a, b):
    """Kronecker product with concatenated dimension metadata, not validated
    again (see the module docstring); it stores the clamped, descending
    ``eigvalsh`` of the product, as ``density_matrix`` would."""
    m = np.kron(a.matrix, b.matrix)
    s = Spectrum(_clamped_descending(np.linalg.eigvalsh(m)), Dims(a.dims.locals + b.dims.locals))
    return DensityMatrix(matrix=m, spectrum=s)


def attach_mixed_ancilla(rho, d_bprime):
    """rho tensor (identity / d_B') with bipartition A : BB'.

    Leaves the spectral ratio unchanged; divides purity by d_B'.  d_B' must
    be a positive integer, the ``Dims`` rule.
    """
    (d_bprime,) = Dims((d_bprime,)).locals
    d_a, d_b = rho.dims.bipartite()
    if d_bprime == 1:
        return rho
    m = np.kron(rho.matrix, np.eye(d_bprime, dtype=complex) / d_bprime)
    return density_matrix(m, Dims((d_a, d_b * d_bprime)))


def gibbs_spectrum(energies, temperature, k_b=1.0, locals=None):
    """Thermal spectrum exp(-E_i/(k_B T)) / Z, descending.

    ``locals`` defaults to a single party of the full dimension; pass the
    actual local dimensions when feeding multipartite criteria.  Energies
    must be finite and at least one; where k_B T underflows or their span
    overflows, the lowest levels share the weight, as in the limit.
    """
    if not (temperature > 0 and 0 < k_b < math.inf):  # NaN fails both
        raise ValueError("need temperature > 0 and finite k_b > 0, got %r and %r"
                         % (temperature, k_b))
    e = np.asarray(energies, dtype=float)
    if not (e.size and np.isfinite(e).all()):
        raise ValueError("need a non-empty list of finite energies, got %r" % (energies,))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = (e - e.min()) / (k_b * temperature)
    # NaN only as 0/0 (k_b*T underflowed) or inf/inf (T = inf, span overflowed): weight 1
    w = np.exp(-np.fmax(x, 0.0))
    w /= w.sum()
    dims = Dims(locals if locals is not None else (len(e),))
    return spectrum_from_values(w, dims)
