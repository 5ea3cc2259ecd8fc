import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg._umath_linalg import cholesky_lo
from hypothesis import example, given, settings, strategies as st

from specsep import oracles
from specsep.oracles import (
    FalsificationResult,
    as_falsify_search,
    haar_unitaries,
    haar_unitary,
    ppt_min_eigenvalue,
    pure_state_pt_spectrum,
    rearrangement_min,
    thm2_violation_value,
)
from specsep.states import (
    DensityMatrix,
    bipartite_dims,
    density_matrix,
    make_named_state,
    make_omega_t,
    make_rho_tilde,
    maximally_mixed,
    partial_transpose,
    spectral_ratio,
    spectrum,
    spectrum_from_values,
    tensor_product,
)

from conftest import rand_spectrum, rand_valid_map, rand_full_rank_state


def test_ppt_min_eigenvalue_examples():
    assert ppt_min_eigenvalue(make_named_state("werner")) == pytest.approx(-1 / 8, abs=1e-12)
    assert ppt_min_eigenvalue(make_omega_t(2, 2, 1.2)) == pytest.approx(-1 / 14, abs=1e-12)
    assert ppt_min_eigenvalue(maximally_mixed(bipartite_dims(2, 3))) == pytest.approx(1 / 6)
    assert ppt_min_eigenvalue(make_named_state("phi_plus")) == pytest.approx(-0.5, abs=1e-12)


def test_haar_unitary_properties():
    for seed in range(100):
        u = haar_unitary(16, seed)
        assert np.abs(u @ u.conj().T - np.eye(16)).max() < 1e-10
    assert np.array_equal(haar_unitary(6, 7), haar_unitary(6, 7))
    assert not np.allclose(haar_unitary(6, 7), haar_unitary(6, 8))
    with pytest.raises(ValueError):
        haar_unitary(0, 1)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_haar_unitaries_are_unitary(dim, seed, n):
    us = haar_unitaries(dim, seed, n)
    assert us.shape == (n, dim, dim)
    eye = np.eye(dim)
    assert np.abs(us @ us.conj().swapaxes(-2, -1) - eye).max() < 1e-12
    assert np.array_equal(haar_unitary(dim, seed), us[0])


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       k=st.integers(1, 20), extra=st.integers(0, 20))
def test_haar_unitaries_batch_is_a_prefix(dim, seed, k, extra):
    assert np.array_equal(haar_unitaries(dim, seed, k),
                          haar_unitaries(dim, seed, k + extra)[:k])


@settings(max_examples=25, deadline=None)
@given(local=st.sampled_from([(2, 2), (2, 3), (3, 3), (2, 4)]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 120), data=st.data())
def test_falsify_not_found_minimum_matches_plain_loop(local, seed, n, data):
    # eigenvalues within the ratio threshold (d+1)/(d-1): no rotation is NPT
    d = min(local)
    big_d = local[0] * local[1]
    weights = data.draw(st.lists(st.floats(1.0, (d + 1) / (d - 1)),
                                 min_size=big_d, max_size=big_d))
    dims = bipartite_dims(*local)
    s = spectrum_from_values(np.array(weights) / sum(weights), dims)
    result = as_falsify_search(s, dims, samples=n, seed=seed)
    assert not result.found and result.samples_used == n
    assert result.unitary_seed is None and result.unitary_index is None
    loop_min = math.inf
    for u in haar_unitaries(big_d, seed, n):
        rho = DensityMatrix(matrix=(u * s.values) @ u.conj().T, spectrum=s)
        loop_min = min(loop_min, float(np.linalg.eigvalsh(partial_transpose(rho)).min()))
    assert result.min_pt_eigenvalue == pytest.approx(loop_min, abs=1e-12)


def _unscreened_search(s, dims, samples, seed):
    """(found, unitary_index, samples_used, min PT eigenvalue) of a search
    that eigendecomposes every sample in order, with no screen."""
    low = math.inf
    for i, u in enumerate(haar_unitaries(dims.total, seed, samples)):
        rho = DensityMatrix(matrix=(u * s.values) @ u.conj().T, spectrum=s)
        m = float(np.linalg.eigvalsh(partial_transpose(rho)).min())
        if m < -1e-9:
            return True, i, i + 1, m
        low = min(low, m)
    return False, None, samples, low


_LATE_HIT = (spectrum_from_values([0.4, 0.3, 0.3, 0.0], (2, 2)), bipartite_dims(2, 2))


@st.composite
def _search_inputs(draw):
    """(spectrum, dims) of a CAS miss, the late-hit qubit pair, rho_tilde on
    the threshold, or the maximally mixed state."""
    kind = draw(st.sampled_from(["cas", "late-hit", "rho-tilde", "mixed"]))
    if kind == "late-hit":
        return _LATE_HIT
    if kind == "rho-tilde":
        rho = make_rho_tilde(*draw(st.sampled_from([(2, 3), (2, 4), (3, 4)])))
        return spectrum(rho), rho.dims
    dims = bipartite_dims(*draw(st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)])))
    if kind == "mixed":
        return spectrum(maximally_mixed(dims)), dims
    d = min(dims.locals)
    weights = np.array(draw(st.lists(st.floats(1.0, (d + 1) / (d - 1)),
                                     min_size=dims.total, max_size=dims.total)))
    return spectrum_from_values(weights / weights.sum(), dims), dims


@settings(max_examples=60, deadline=None)
@given(inputs=_search_inputs(), seed=st.integers(0, 7), samples=st.integers(1, 300))
@example(inputs=_LATE_HIT, seed=7, samples=300)
@example(inputs=_LATE_HIT, seed=2, samples=300)
def test_screened_search_matches_unscreened_loop(inputs, seed, samples):
    # seeds 0-7 put the qubit pair's first hit at indices 0 to 131: inside the
    # first batches and deep in screened batches (seed 7 at 40, seed 2 at 131)
    s, dims = inputs
    result = as_falsify_search(s, dims, samples=samples, seed=seed)
    found, index, used, low = _unscreened_search(s, dims, samples, seed)
    assert (result.found, result.unitary_index, result.samples_used) == (found, index, used)
    assert result.unitary_seed == (seed if found else None)
    assert result.min_pt_eigenvalue == pytest.approx(low, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(inputs=_search_inputs(), seed=st.integers(0, 7), samples=st.integers(1, 300),
       cap=st.integers(1, 20),
       batches=st.sampled_from([(1,), (2, 3), (1, 4, 16, 64, 256), (1, 16, 256)]))
@example(inputs=_LATE_HIT, seed=2, samples=300, cap=3, batches=(1, 16, 256))
@example(inputs=_LATE_HIT, seed=7, samples=300, cap=8, batches=(1, 4, 16, 64, 256))
def test_capped_batches_give_the_uncapped_result(inputs, seed, samples, cap, batches):
    # batches of at most ``cap`` rotations, in any schedule, late hits (index
    # 131, 40) included
    s, dims = inputs
    uncapped = as_falsify_search(s, dims, samples=samples, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "SEARCH_BATCH_ENTRIES", cap * dims.total ** 2)
        patch.setattr(oracles, "SEARCH_BATCHES", batches)
        assert as_falsify_search(s, dims, samples=samples, seed=seed) == uncapped


def test_batched_cholesky_nan_fills_exactly_the_failures():
    # the search screens a batch with numpy's Cholesky gufunc and takes the
    # NaN-filled factors as its candidates; a numpy that raised, warned or
    # left a failed factor finite instead would skip candidates silently
    rng = np.random.default_rng(31)
    least = [0.1, -1e-3, 0.5, -2.0, 1e-6, -1e-3, 0.2]
    stack = []
    for low in least:
        u = haar_unitary(6, int(rng.integers(2**31)))
        stack.append((u * np.array([low, 0.3, 0.4, 0.6, 0.8, 1.0])) @ u.conj().T)
    stack = np.array(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            factors = cholesky_lo(stack, signature="D->D")
    failed = np.isnan(factors).all(axis=(-2, -1))
    assert np.array_equal(failed, np.array(least) < 0)
    assert np.array_equal(np.isnan(factors[:, 0, 0]), failed)
    for a, f in zip(stack[~failed], factors[~failed]):
        assert np.abs(f @ f.conj().T - a).max() < 1e-12


def _phase_fixed_qr(dim, seed, n):
    """Haar unitaries as np.linalg.qr gives them: the seeded Gaussian draw of
    the sampler, with R's diagonal phases moved into Q."""
    z = np.random.default_rng(seed).standard_normal((n, dim, dim, 2)).view(complex)[..., 0]
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


def test_lapack_gufuncs_give_the_bytes_of_numpy_linalg():
    # the sampler and the search call LAPACK's QR and eigvalsh gufuncs
    # directly; a numpy whose gufuncs stopped matching np.linalg (another
    # routine, layout or signature) would change every sample and result, or
    # warn where np.linalg is silent
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in range(1, 13):
            for n in (0, 1, 16, 83):
                seed = 1000 * dim + n
                u = haar_unitaries(dim, seed, n)
                ref = _phase_fixed_qr(dim, seed, n)
                assert (u.shape, u.dtype) == (ref.shape, ref.dtype) == ((n, dim, dim), complex)
                assert u.tobytes() == ref.tobytes()
        for local in [(2, 2), (2, 3), (3, 4), (4, 4)]:
            dims = bipartite_dims(*local)
            # ratio 1.5, inside every threshold here: no rotation is NPT
            s = spectrum_from_values(np.linspace(1.5, 1.0, dims.total) / (1.25 * dims.total), dims)
            u = haar_unitaries(dims.total, 5, 40)
            pt = np.array([partial_transpose(DensityMatrix((v * s.values) @ v.conj().T, s))
                           for v in u])[::3]  # a copied stack, as the search's pt[candidates]
            eigs = oracles._eigvalsh_lo(pt, signature="D->d")
            assert eigs.tobytes() == np.linalg.eigvalsh(pt).tobytes()
        # a hit at index 131, a miss on the 4x4 spectrum above and a hit on the
        # first sample
        late_s, late_dims = _LATE_HIT
        assert as_falsify_search(late_s, late_dims, samples=300, seed=2).unitary_index == 131
        assert not as_falsify_search(s, dims, samples=300, seed=3).found
        assert as_falsify_search(spectrum_from_values([1.0, 0, 0, 0], (2, 2)), late_dims,
                                 samples=5, seed=0).found


def test_a_lapack_failure_in_the_search_raises_linalgerror(monkeypatch):
    # NaN rotations make eigvalsh fail: the search raises np.linalg.eigvalsh's
    # own error, not a warning and a NaN minimum
    dims = bipartite_dims(2, 2)
    s = spectrum(maximally_mixed(dims))
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        np.linalg.eigvalsh(np.full((3, 4, 4), complex(math.nan)))
    monkeypatch.setattr(oracles, "_haar_batch",
                        lambda rng, dim, n: np.full((n, dim, dim), complex(math.nan)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            as_falsify_search(s, dims, samples=20, seed=0)


def test_search_and_sampler_refuse_bools_and_non_integers():
    # the Dims rule: samples=True used to run one sample and report
    # samples_used=True, seed=True ran as seed 1, and 2.5 or "5" ended in a
    # numpy or comparison TypeError
    dims = bipartite_dims(2, 2)
    s = spectrum(maximally_mixed(dims))
    for bad in (True, False, 2.5, 3.0, "5", None, math.nan):
        with pytest.raises(ValueError, match="samples must be an integer"):
            as_falsify_search(s, dims, samples=bad, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer"):
            as_falsify_search(s, dims, samples=5, seed=bad)
        with pytest.raises(ValueError, match="seed must be an integer"):
            haar_unitaries(3, bad, 2)
        with pytest.raises(ValueError, match="n must be an integer"):
            haar_unitaries(3, 0, bad)
        with pytest.raises(ValueError, match="dimension must be an integer"):
            haar_unitaries(bad, 0, 2)
    for call in (lambda: as_falsify_search(s, dims, samples=5, seed=-1),
                 lambda: haar_unitaries(3, -1, 2), lambda: haar_unitaries(3, 0, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            call()
    # numpy integers are integers
    assert (as_falsify_search(s, dims, samples=np.int64(5), seed=np.uint8(3))
            == as_falsify_search(s, dims, samples=5, seed=3))
    assert np.array_equal(haar_unitaries(np.int32(3), np.int64(4), np.uint16(2)),
                          haar_unitaries(3, 4, 2))


def test_search_memory_is_bounded_at_large_dimension():
    # 11x11: uncapped batches would hold several stacks of up to 41 MiB (169
    # MiB peak for 200 samples); capped ones hold about five stacks of 16 MiB
    dims = bipartite_dims(11, 11)
    s = spectrum(maximally_mixed(dims))
    tracemalloc.start()
    try:
        result = as_falsify_search(s, dims, samples=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.found and result.samples_used == 200
    assert peak < 8 * 16 * oracles.SEARCH_BATCH_ENTRIES


def _count_stacks(monkeypatch, name):
    """Replace the oracle's gufunc binding ``name`` by one that records the
    stack size of each call; returns that list."""
    gufunc = getattr(oracles, name)
    sizes = []

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return gufunc(a, *args, **kwargs)

    monkeypatch.setattr(oracles, name, counting)
    return sizes


def test_screen_skips_most_eigendecompositions(rng, monkeypatch):
    # a miss on 3x4 needs every sample's minimum; eigvalsh should see only
    # the rotations that can lower it, at most once per batch (1, 16 and 239).
    # The search calls LAPACK through its own gufunc bindings, so those are
    # what is counted.
    qr_sizes = _count_stacks(monkeypatch, "_qr_r_raw")
    eig_sizes = _count_stacks(monkeypatch, "_eigvalsh_lo")
    dims = bipartite_dims(3, 4)
    for k in range(5):
        weights = rng.uniform(1.0, 2.0, dims.total)
        s = spectrum_from_values(weights / weights.sum(), dims)
        qr_sizes.clear()
        eig_sizes.clear()
        result = as_falsify_search(s, dims, samples=256, seed=k)
        assert not result.found
        assert qr_sizes == [1, 16, 239]
        assert 1 <= len(eig_sizes) <= 3
        assert sum(eig_sizes) < 128


def _replayed_min(s, dims, seed, index):
    """Smallest PT eigenvalue of sample ``index`` of a search, rebuilt from
    the search seed alone."""
    u = haar_unitaries(dims.total, seed, index + 1)[index]
    return ppt_min_eigenvalue(density_matrix((u * s.values) @ u.conj().T, dims))


def test_falsify_finds_npt_orbit_of_tensor_square():
    # two copies of a spectral-ratio-3 qubit pair: the copy bound says one
    # copy is safe but two are not, so some unitary orbit point is NPT
    one = np.array([3, 1, 1, 1]) / 6.0
    pair_vals = np.sort(np.outer(one, one).ravel())[::-1]
    dims = bipartite_dims(4, 4)
    s = spectrum_from_values(pair_vals, dims)
    result = as_falsify_search(s, dims, samples=2000, seed=0)
    assert result.found
    assert result.min_pt_eigenvalue < -1e-9
    assert result.samples_used == result.unitary_index + 1 <= 2000
    # the reported seed and index reproduce the hit
    assert _replayed_min(s, dims, result.unitary_seed, result.unitary_index) == pytest.approx(
        result.min_pt_eigenvalue, abs=1e-12)


def test_falsify_hit_replays_from_seed_and_index():
    # lambda_1 = 0.4 exceeds lambda_3 + 2 sqrt(lambda_2 lambda_4) = 0.3, so
    # some rotations are NPT, but few enough that most searches need
    # several samples to find one
    dims = bipartite_dims(2, 2)
    s = spectrum_from_values([0.4, 0.3, 0.3, 0.0], dims)
    indices = []
    for seed in range(8):
        result = as_falsify_search(s, dims, samples=2000, seed=seed)
        assert result.found and result.unitary_seed == seed
        i = result.unitary_index
        assert result.samples_used == i + 1
        assert result.min_pt_eigenvalue < -1e-9
        assert _replayed_min(s, dims, seed, i) == pytest.approx(result.min_pt_eigenvalue,
                                                               abs=1e-12)
        if i > 0:
            assert not as_falsify_search(s, dims, samples=i, seed=seed).found
        indices.append(i)
    # hits on the first sample and past index 85, deep in a 256-rotation batch
    assert min(indices) == 0 and max(indices) > 85


def test_falsify_not_found_on_maximally_mixed():
    dims = bipartite_dims(2, 2)
    s = spectrum(maximally_mixed(dims))
    result = as_falsify_search(s, dims, samples=50, seed=1)
    assert not result.found
    assert result.unitary_seed is None
    assert result.samples_used == 50
    assert result.min_pt_eigenvalue >= 0.25 - 1e-12


def test_falsify_pure_state_found_immediately():
    dims = bipartite_dims(2, 2)
    s = spectrum_from_values([1.0, 0, 0, 0], dims)
    result = as_falsify_search(s, dims, samples=20, seed=0)
    assert result.found and result.samples_used <= 3


def test_falsify_requires_a_sample():
    dims = bipartite_dims(2, 2)
    s = spectrum(maximally_mixed(dims))
    for samples in (0, -3):
        with pytest.raises(ValueError):
            as_falsify_search(s, dims, samples=samples, seed=0)


def test_falsify_rejects_mismatched_spectrum():
    s = spectrum_from_values([0.25] * 4, (2, 2))
    with pytest.raises(ValueError):
        as_falsify_search(s, bipartite_dims(2, 3), samples=1, seed=0)
    # equal D, transposed locals: searched as (3, 2), this (2, 3) spectrum
    # once gave min PT eigenvalue -0.0959 at sample 0, against -0.0175
    s = spectrum_from_values([0.5, 0.3, 0.1, 0.05, 0.05, 0.0], (2, 3))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        as_falsify_search(s, bipartite_dims(3, 2), samples=1, seed=0)


def test_rearrangement_examples():
    assert rearrangement_min([1, 2], [1, 2]) == pytest.approx(4.0)
    assert rearrangement_min([1, 0], [0, 1]) == pytest.approx(0.0)
    assert rearrangement_min([1, 2], [2, 1]) == pytest.approx(4.0)
    # uniform against anything is the mean times the sum
    assert rearrangement_min([0.25] * 4, [3, 1, -1, -3]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        rearrangement_min([1, 2], [1, 2, 3])


def test_rearrangement_lower_bounds_unitary_orbit(rng):
    a_eigs = np.sort(rng.normal(size=6))[::-1]
    b_eigs = np.sort(rng.normal(size=6))[::-1]
    a = np.diag(a_eigs)
    floor = rearrangement_min(a_eigs, b_eigs)
    for seed in range(100):
        u = haar_unitary(6, 300 + seed)
        b = (u * b_eigs) @ u.conj().T
        assert np.trace(a @ b).real >= floor - 1e-10


def test_pure_state_pt_spectrum_examples():
    # maximally entangled qubit pair
    spec = np.sort(pure_state_pt_spectrum([0.5, 0.5], 4))
    assert np.allclose(spec, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    # product state: no negative part
    spec = np.sort(pure_state_pt_spectrum([1.0], 4))
    assert np.allclose(spec, [0, 0, 0, 1], atol=1e-12)
    # asymmetric Schmidt weights
    spec = np.sort(pure_state_pt_spectrum([0.5, 0.25, 0.25], 9))
    r = math.sqrt(0.125)
    expected = np.sort([0.5, 0.25, 0.25, r, -r, r, -r, 0.25, -0.25])
    assert np.allclose(spec, expected, atol=1e-12)
    with pytest.raises(ValueError, match=r"^ambient dimension must be at least len\(p\)\^2$"):
        pure_state_pt_spectrum([0.5, 0.5], 3)
    # 4.0 once raised numpy's TypeError, and True was read as 1
    for ambient in (4.0, "4", True):
        with pytest.raises(ValueError, match="^ambient dimension must be an integer, got "):
            pure_state_pt_spectrum([0.5, 0.5], ambient)
    with pytest.raises(ValueError, match="^ambient dimension must be >= 1, got 0$"):
        pure_state_pt_spectrum([1.0], 0)
    with pytest.raises(ValueError):
        pure_state_pt_spectrum([0.7, 0.7], 4)
    # a NaN weight fails both checks, alone or in one row of a stack
    for p in ([math.nan, 0.5], [[0.5, 0.5], [math.nan, 0.5]], [[0.5, 0.5], [math.nan] * 2]):
        with pytest.raises(ValueError, match="Schmidt weights"):
            pure_state_pt_spectrum(p, 4)


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0, 1), min_size=1, max_size=4).filter(lambda w: sum(w) > 0))
def test_pt_spectrum_matches_dense_computation(weights):
    p = np.array(weights) / sum(weights)
    d = len(p)
    ket = np.zeros(d * d, dtype=complex)
    ket[np.arange(d) * (d + 1)] = np.sqrt(p)
    # the partial transpose written out, since dims (1, 1) are not bipartite
    pt = np.outer(ket, ket.conj()).reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    dense = np.sort(np.linalg.eigvalsh(pt))
    assert np.allclose(dense, np.sort(pure_state_pt_spectrum(p, d * d)), rtol=0, atol=1e-12)


def _loop_pt_spectrum(p, ambient):
    """One row of weights, by the i < j loop, as the row version was written."""
    out = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            root = math.sqrt(p[i] * p[j])
            out.extend((root, -root))
    return np.array(out + [0.0] * (ambient - len(out)))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 20), big_d=st.integers(1, 40), d=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_pairing_equals_row_calls(n, big_d, d, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, n, big_d))
    row = rearrangement_min(a[0], b[0])
    assert isinstance(row, float) and row == float(np.dot(np.sort(a[0]), np.sort(b[0])[::-1]))
    for stacked, rows in [
            (rearrangement_min(a, b), [rearrangement_min(x, y) for x, y in zip(a, b)]),
            (rearrangement_min(a, b[0]), [rearrangement_min(x, b[0]) for x in a]),
            (rearrangement_min(a[0], b), [rearrangement_min(a[0], y) for y in b])]:
        assert stacked.shape == (n,) and np.array_equal(stacked, rows)
    p = rng.dirichlet(np.ones(d), size=n)
    ambient = d * d + int(rng.integers(0, 5))
    assert np.array_equal(pure_state_pt_spectrum(p[0], ambient), _loop_pt_spectrum(p[0], ambient))
    assert np.array_equal(pure_state_pt_spectrum(p, ambient),
                          [_loop_pt_spectrum(q, ambient) for q in p])
    p[-1, 0] += 1e-9  # one row off a unit sum refuses the stack
    with pytest.raises(ValueError):
        pure_state_pt_spectrum(p, ambient)
    values = -np.sort(-rng.dirichlet(np.ones(big_d + 1), size=n))
    d_a = int(rng.integers(1, 4))
    stacked = thm2_violation_value(values, d_a, d_a * (d_a + 1) // 2)
    assert np.array_equal(stacked, [thm2_violation_value(v, d_a, d_a * (d_a + 1) // 2)
                                    for v in values])


def test_thm2_violation_examples():
    s = spectrum_from_values([0.4, 0.3, 0.2, 0.1], (2, 2))
    assert thm2_violation_value(s.values, 2, 3) == pytest.approx(-1 / 60, abs=1e-12)
    boundary = spectrum_from_values(np.array([3, 1, 1, 1]) / 6.0, (2, 2))
    assert thm2_violation_value(boundary.values, 2, 3) == pytest.approx(0.0, abs=1e-12)
    mixed = spectrum_from_values([0.25] * 4, (2, 2))
    assert thm2_violation_value(mixed.values, 2, 3) > 0
    with pytest.raises(ValueError, match=r"^d_bprime must be >= d_A\(d_A\+1\)/2 = 3$"):
        thm2_violation_value(s.values, 2, 2)  # ancilla below d_A(d_A+1)/2
    # 3.5 would be repeated 3 times but divided by 3.5, and True read as 1
    for d_bprime in (3.5, 3.0, np.float64(3.0), math.nan, True):
        with pytest.raises(ValueError, match="^d_bprime must be an integer, got "):
            thm2_violation_value(s.values, 2, d_bprime)
    # at d_A = 1 one ancilla level suffices, so True was once accepted as 1
    with pytest.raises(ValueError, match="^d_bprime must be an integer, got True$"):
        thm2_violation_value(s.values, 1, True)
    # d_A once reached np.full (TypeError) or a division by zero
    for d_a, message in ((True, "an integer, got True"), (2.5, r"an integer, got 2\.5"),
                         (0, ">= 1, got 0")):
        with pytest.raises(ValueError, match="^d_a must be %s$" % message):
            thm2_violation_value(s.values, d_a, 3)


def test_thm2_negative_iff_ratio_exceeds_threshold(rng):
    d_a, d_bprime = 2, 3
    threshold = (d_a + 1) / (d_a - 1)
    for alpha in (1.0, 5.0, 30.0):
        for _ in range(300):
            s = rand_spectrum(rng, (2, 2), alpha=alpha)
            value = thm2_violation_value(s.values, d_a, d_bprime)
            if spectral_ratio(s) > threshold + 1e-9:
                assert value < 1e-12
            elif spectral_ratio(s) < threshold - 1e-9:
                assert value > -1e-12


def test_thm2_matches_brute_force_search(rng):
    # the analytic value lower-bounds every Haar sample of the extended state
    from specsep.states import attach_mixed_ancilla, max_entangled_ket, partial_transpose

    d_a, d_bprime = 2, 3
    for _ in range(10):
        s = rand_spectrum(rng, (2, 2))
        value = thm2_violation_value(s.values, d_a, d_bprime)
        extended = np.repeat(s.values, d_bprime) / d_bprime
        ket = max_entangled_ket(2, 6)
        proj = np.outer(ket, ket.conj()).reshape(2, 6, 2, 6)
        w = proj.transpose(0, 3, 2, 1).reshape(12, 12)
        best = math.inf
        for seed in range(100):
            u = haar_unitary(12, 7000 + seed)
            rho = (u * extended) @ u.conj().T
            best = min(best, float(np.trace(w @ rho).real))
        assert best >= value - 1e-10


def test_falsify_never_fires_on_cas_spectra(rng):
    # spectra inside the spectral-ratio ball stay PPT on every sampled orbit
    for dims, n_spectra in [((2, 2), 300), ((2, 3), 200)]:
        d = min(dims)
        threshold = (d + 1) / (d - 1)
        checked = 0
        i = 0
        while checked < n_spectra:
            s = rand_spectrum(rng, dims, alpha=8.0)
            i += 1
            if spectral_ratio(s) > threshold:
                continue
            result = as_falsify_search(s, bipartite_dims(*dims), samples=100,
                                       seed=123 + 1000 * i)
            assert not result.found
            checked += 1


def test_verify_ratio_monotone_examples(rng):
    from specsep.channels import make_map, make_sec_c_example
    from specsep.oracles import verify_ratio_monotone

    m = rand_valid_map(rng, (2, 2))
    rho = rand_full_rank_state(rng, (2, 2))
    assert verify_ratio_monotone(m, rho)
    # the worked example is allowed to *increase* the ratio only because its
    # input is singular (infinite ratio), which still verifies
    assert verify_ratio_monotone(make_sec_c_example(), make_named_state("seed_state"))
    # a map that never succeeds on its input verifies: the seed state has no weight on |3>
    never = make_map(rho.dims, [(np.diag([0.0, 0.0, 0.0, 1.0]), maximally_mixed(rho.dims))])
    assert verify_ratio_monotone(never, make_named_state("seed_state"))


def test_verify_ratio_monotone_flags_a_ratio_increase():
    # a raw, unvalidated map whose only branch prepares a state of ratio 7
    # from an input of ratio 2 increases the ratio
    from specsep.channels import MeasurePrepareMap
    from specsep.oracles import verify_ratio_monotone

    dims = (2, 2)
    rho = density_matrix(np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex), dims)
    phi = density_matrix(np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex), dims)
    raw = MeasurePrepareMap(dims=rho.dims, branches=((np.eye(4, dtype=complex), phi),),
                            unitality_factor=1.0)
    assert verify_ratio_monotone(raw, rho) is False
    assert verify_ratio_monotone(raw, phi) is True
