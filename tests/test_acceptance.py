"""End-to-end acceptance gate.

Each test exercises one headline capability at its stated tolerance and
prints a single PASS/FAIL line (visible even under pytest capture).
"""

import math

import numpy as np

from specsep.channels import (
    apply_map,
    apply_to_operator,
    complete_to_deterministic,
    construct_transformation,
    entangle_from,
    make_sec_c_example,
    normalized_output,
)
from specsep.criteria import appt_spectral_necessary, filippov, purity_ball, ratio_criterion
from specsep.oracles import (
    as_falsify_search,
    haar_unitaries,
    ppt_min_eigenvalue,
    thm2_violation_value,
    verify_ratio_monotone,
)
from specsep.states import (
    DensityMatrix,
    bipartite_dims,
    density_matrix,
    make_named_state,
    make_rho_tilde,
    purity,
    spectral_ratio,
    spectrum,
    spectrum_from_values,
)
from specsep.witnesses import (
    evaluate,
    make_decomposable_witness,
    make_ppt_witness,
    make_separating_witness,
    min_product_expectation,
    trace_norm,
)

from conftest import (
    rand_full_rank_state,
    rand_state,
    region_a_weights,
    region_b_values,
    two_level_spectrum,
)


def _finish(capsys, num, desc, ok):
    with capsys.disabled():
        print("acceptance %2d %s: %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "acceptance criterion %d failed: %s" % (num, desc)


def test_acceptance_01_instrument_example(capsys):
    m = make_sec_c_example()
    image = apply_to_operator(m, np.eye(4, dtype=complex))
    ok = np.abs(image - (5 / 12) * np.eye(4)).max() < 1e-12
    seed = make_named_state("seed_state")
    out, prob = apply_map(m, seed)
    werner = make_named_state("werner")
    ok = ok and abs(prob - 2 / 9) <= 1e-12
    ok = ok and np.abs(out - (2 / 9) * werner.matrix).max() < 1e-12
    normalized, _ = normalized_output(m, seed)
    ok = ok and abs(ppt_min_eigenvalue(normalized) + 1 / 8) <= 1e-9
    # with its failure branch the instrument is a channel that produces no
    # purity: trace preserving (the effects sum to I) and unital
    completed = complete_to_deterministic(m)
    identity = np.eye(4, dtype=complex)
    ok = ok and np.abs(sum(e for e, _ in completed.branches) - identity).max() < 1e-12
    ok = ok and np.abs(apply_to_operator(completed, identity) - identity).max() < 1e-12
    _finish(capsys, 1, "worked instrument example reproduced exactly; "
                       "completed, it is a unital channel", ok)


def test_acceptance_02_extraction_matches_formula(capsys):
    rng = np.random.default_rng(2)
    ok = True
    produced = 0
    while produced < 100:
        vals = np.sort(rng.dirichlet(np.ones(4)))[::-1]
        r = vals[0] / vals[-1]
        if not (r > 3.0 and vals[-1] > 1e-4):
            continue
        produced += 1
        rho = density_matrix(np.diag(vals).astype(complex), (2, 2))
        instrument, target = entangle_from(rho)
        ok = ok and instrument.unitality_factor > 0
        t = 2.0 * (r - 1.0) / (r + 1.0)
        expected = (1.0 - t) / (4.0 - t)
        out, prob = apply_map(instrument, rho)
        ok = ok and prob > 0
        measured = ppt_min_eigenvalue(density_matrix(out / prob, (2, 2)))
        ok = ok and abs(measured - expected) <= 1e-9
        ok = ok and measured < -1e-9
    _finish(capsys, 2, "extraction maps hit the predicted negativity on 100 spectra", ok)


def test_acceptance_03_ratio_threshold_equivalence(capsys):
    rng = np.random.default_rng(3)
    dims = bipartite_dims(2, 3)
    ok = True
    safe = []
    spectra = [rng.dirichlet(np.ones(6)) for _ in range(8000)]
    spectra += [rng.dirichlet(np.full(6, 40.0)) for _ in range(2000)]
    spectra = [spectrum_from_values(np.sort(vals)[::-1], dims) for vals in spectra]
    values = thm2_violation_value(np.array([s.values for s in spectra]), 2, 3)
    for s, value in zip(spectra, values):
        r = spectral_ratio(s)
        if r > 3.0 + 1e-9:
            ok = ok and value < -1e-12
        elif r < 3.0 - 1e-9:
            ok = ok and value >= -1e-12
        if r <= 3.0:
            safe.append(s)
    ok = ok and len(safe) > 500
    for i, s in enumerate(safe):
        result = as_falsify_search(s, dims, samples=100, seed=30_000 + 100 * i)
        ok = ok and not result.found
    _finish(capsys, 3,
            "ratio threshold matches the ancilla-extension value on 10^4 spectra; "
            "no false entangling unitary found", ok)


def _haar_stack(dim, seeds):
    """``haar_unitaries(dim, seed, 1)[0]`` for each seed: the Gaussians are
    drawn per seed, then phase-fixed by one stacked QR."""
    z = np.array([np.random.default_rng(s).standard_normal((dim, dim, 2)) for s in seeds])
    q, r = np.linalg.qr(z.view(complex)[..., 0])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


def _rotated_states(dims, values, seeds, floor=None):
    """The states u diag(v) u^dagger (plus ``floor``) for the rows v of
    ``values`` and u = haar_unitaries(D, seed, 1)[0], as ``density_matrix``
    builds them: Hermitian part, then every spectrum through the library's
    PSD and trace check."""
    big_d = dims.total
    u = _haar_stack(big_d, seeds)
    for i in (0, len(seeds) // 2, len(seeds) - 1):
        assert np.array_equal(u[i], haar_unitaries(big_d, seeds[i], 1)[0])
    m = (u * values[:, None, :]) @ u.conj().transpose(0, 2, 1)
    if floor is not None:
        m = floor + m
    m = 0.5 * (m + m.conj().transpose(0, 2, 1))
    return [DensityMatrix(matrix=x, spectrum=spectrum_from_values(eigs, dims))
            for x, eigs in zip(m, np.linalg.eigvalsh(m))]


def test_acceptance_04_witness_separation(capsys):
    rng = np.random.default_rng(4)
    ok = True
    for d_a, d_b in [(2, 3), (2, 4)]:
        dims = bipartite_dims(d_a, d_b)
        big_d = d_a * d_b
        rho = make_rho_tilde(d_a, d_b)
        s = spectrum(rho)
        ok = ok and purity(s) > 1.0 / (big_d - 1)
        ok = ok and float(s.values[-1]) < 1.0 / (big_d + 2)
        w = make_separating_witness(d_a, d_b)
        value = evaluate(w, rho)
        ok = ok and value < -1e-6
        if (d_a, d_b) == (2, 3):
            ok = ok and abs(value + 0.0197) <= 1e-4
        # sample i draws region A's weights, then region B's spectrum
        draws = [(region_a_weights(rng, big_d), region_b_values(rng, big_d))
                 for _ in range(10_000)]
        weights, values = (np.array(v) for v in zip(*draws))
        region_a = _rotated_states(dims, weights, range(400_000, 410_000),
                                   np.eye(big_d) / (big_d + 2))
        region_b = _rotated_states(dims, values, range(800_000, 810_000))
        for rho in region_a + region_b:
            ok = ok and evaluate(w, rho) >= -1e-9
    _finish(capsys, 4,
            "ratio-detected state separated from both guaranteed-separable regions", ok)


def test_acceptance_05_witness_trace_norm_bound(capsys):
    rng = np.random.default_rng(5)
    ok = True
    for dims in [(2, 2), (2, 3), (2, 4), (3, 3)]:
        d = min(dims)
        for _ in range(1000):
            w = make_decomposable_witness(rand_state(rng, dims))
            ok = ok and trace_norm(w) <= d + 1e-9
    for d in (2, 3):
        w = make_ppt_witness(bipartite_dims(d, d))
        ok = ok and abs(trace_norm(w) - d) <= 1e-10
    _finish(capsys, 5, "decomposable witnesses respect the trace-norm bound; "
                       "swap-type witnesses saturate it", ok)


def test_acceptance_06_purity_chain(capsys):
    rng = np.random.default_rng(6)
    shapes = {6: (2, 3), 9: (3, 3), 12: (3, 4), 16: (4, 4)}
    ok = True
    for big_d, dims in shapes.items():
        passed = 0
        spectra = [rng.dirichlet(np.ones(big_d)) for _ in range(7000)]
        spectra += [rng.dirichlet(np.full(big_d, 6.0 * big_d)) for _ in range(3000)]
        for vals in spectra:
            s = spectrum_from_values(np.sort(vals)[::-1], dims)
            if appt_spectral_necessary(s).detected:
                passed += 1
                ok = ok and purity(s) <= 2.0 / big_d + 1e-12
        ok = ok and passed > 100
        fil = filippov(two_level_spectrum(dims, 2.0 / big_d))
        ok = ok and fil.computed["lhs"] < fil.computed["rhs"]
    _finish(capsys, 6, "spectra consistent with the PT-invariance inequality stay "
                       "inside the 2/D purity cap, which sits inside the window bound", ok)


def test_acceptance_07_ratio_inside_purity_bounds(capsys):
    rng = np.random.default_rng(7)
    ok = True
    for d_a, d_b in [(2, 2), (3, 3)]:
        big_d = d_a * d_b
        threshold = (d_a + 1) / (d_a - 1)
        cas_bound = (d_a / d_b) / (d_a**2 - 1)
        inside = 0
        spectra = [rng.dirichlet(np.ones(big_d)) for _ in range(7000)]
        spectra += [rng.dirichlet(np.full(big_d, 8.0 * big_d)) for _ in range(3000)]
        for vals in spectra:
            s = spectrum_from_values(np.sort(vals)[::-1], (d_a, d_b))
            if spectral_ratio(s) <= threshold:
                inside += 1
                p = purity(s)
                ok = ok and p <= 1.0 / (big_d - 1) + 1e-12
                ok = ok and p <= cas_bound + 1e-12
        ok = ok and inside > 100
    _finish(capsys, 7, "ratio-certified spectra always sit inside both purity bounds", ok)


def test_acceptance_08_copy_bound(capsys):
    from specsep.criteria import copy_bound

    ok = True
    for r in (2.0, 3.0, 5.0):
        n = copy_bound(r)
        one = np.array([r, 1.0, 1.0, 1.0]) / (r + 3.0)
        vals = one.copy()
        for _ in range(n - 1):
            vals = np.outer(vals, one).ravel()
        dims_n = (2**n, 2**n)
        s = spectrum_from_values(np.sort(vals)[::-1], dims_n)
        ok = ok and not appt_spectral_necessary(s).detected
        # one copy fewer does not yet trigger the sufficient-violation formula
        ok = ok and r ** (n - 1) <= r + 2.0 * math.sqrt(r) + 1e-12
    _finish(capsys, 8, "copy counts push ratio-R spectra past the PT-invariance "
                       "inequality, and not a copy earlier", ok)


def test_acceptance_09_transformation_round_trip(capsys):
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(1000):
        a = rand_full_rank_state(rng, (2, 2))
        b = rand_full_rank_state(rng, (2, 2))
        if spectral_ratio(spectrum(a)) < spectral_ratio(spectrum(b)):
            a, b = b, a
        instrument = construct_transformation(a, b)
        out, prob = apply_map(instrument, a)
        ok = ok and prob > 0
        ok = ok and np.abs(out / prob - b.matrix).max() < 1e-9
        ok = ok and instrument.unitality_factor > 0
        ok = ok and verify_ratio_monotone(instrument, a)
        if not ok:
            break
    _finish(capsys, 9, "1000 random ratio-ordered pairs transform exactly", ok)


def _bloch_kets(step_deg=1):
    """Every 1-degree grid ket a = (cos(t/2), e^{i p} sin(t/2)), one per row."""
    theta = np.deg2rad(np.arange(0, 181, step_deg, dtype=float))
    phi = np.deg2rad(np.arange(0, 360, step_deg, dtype=float))
    t, p = np.meshgrid(theta, phi, indexing="ij")
    return np.stack([np.cos(t / 2).ravel(), (np.exp(1j * p) * np.sin(t / 2)).ravel()], axis=1)


def _grid_min_product_expectation(w):
    """Minimum of <a b|W|a b> over the 1-degree Bloch grid of a, exact over b:
    the least eigenvalue of the contraction <a|W|a> on B, per grid ket a."""
    a = _bloch_kets()
    local = np.einsum("ki,ijmn,km->kjn", a.conj(), w.matrix.reshape(2, 2, 2, 2), a,
                      optimize=True)
    return float(np.linalg.eigvalsh(local).min())


def test_acceptance_10_block_positivity_oracle(capsys):
    w = make_ppt_witness(bipartite_dims(2, 2))
    seesaw = min_product_expectation(w, restarts=32, iters=100, seed=0)
    ok = -1e-6 <= seesaw <= 1e-6
    brute = _grid_min_product_expectation(w)
    ok = ok and abs(brute - seesaw) <= 1e-4
    _finish(capsys, 10, "alternating minimizer agrees with the exhaustive grid", ok)


# acceptance 11 (generated AS spectra on both sides of the CAS threshold) is
# still to come; 12 is the abstract's headline on one spectrum
def test_acceptance_12_absolutely_separable_state_yields_entanglement(capsys):
    rho = density_matrix(np.diag([0.45, 0.25, 0.25, 0.05]).astype(complex), (2, 2))
    s = spectrum(rho)
    # purity 0.33 <= 1/3 certifies absolute separability; R = 9 > 3 is not CAS
    ok = purity_ball(s).detected and abs(purity(s) - 0.33) <= 1e-12
    ok = ok and not ratio_criterion(s).detected and abs(spectral_ratio(s) - 9.0) <= 1e-12
    search = as_falsify_search(s, s.dims, samples=2000, seed=0)
    ok = ok and not search.found and search.min_pt_eigenvalue > 0.01
    # no unitary entangles rho, yet a stochastic unital map does, at t = 8/5
    instrument, _ = entangle_from(rho)
    out, prob = normalized_output(instrument, rho)
    ok = ok and abs(prob - 0.2) <= 1e-12 and abs(ppt_min_eigenvalue(out) + 0.25) <= 1e-9
    _finish(capsys, 12, "an absolutely separable, not CAS spectrum: no Haar rotation is NPT, "
                        "yet a stochastic unital map extracts an NPT state", ok)
