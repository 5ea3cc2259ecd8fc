import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specsep.channels import (
    RatioTooSmall,
    apply_map,
    apply_to_operator,
    complete_to_deterministic,
    construct_transformation,
    entangle_from,
    make_map,
    make_sec_c_example,
    normalized_output,
)
from specsep.oracles import haar_unitaries, ppt_min_eigenvalue, verify_ratio_monotone
from specsep.states import (
    EIG_CLAMP,
    bipartite_dims,
    density_matrix,
    is_singular,
    make_named_state,
    make_omega_t,
    make_rho_tilde,
    maximally_mixed,
    ratio_at_least,
    spectral_ratio,
    spectrum,
)

from conftest import rand_full_rank_state, rand_state, rand_valid_map

DIMS22 = bipartite_dims(2, 2)


def _diag_state(vals, dims=(2, 2)):
    return density_matrix(np.diag(vals).astype(complex), dims)


# --- validation ------------------------------------------------------------

def test_sec_c_unitality_factor():
    assert make_sec_c_example().unitality_factor == pytest.approx(5 / 12, abs=1e-12)


def test_depolarizing_is_unital():
    m = make_map(DIMS22, [(np.eye(4, dtype=complex), maximally_mixed(DIMS22))])
    assert m.unitality_factor == pytest.approx(1.0, abs=1e-12)


def test_pure_preparation_not_unital():
    pure = _diag_state([1.0, 0, 0, 0])
    with pytest.raises(ValueError,
                       match="^image of the identity is not proportional to the identity$"):
        make_map(DIMS22, [(np.eye(4, dtype=complex), pure)])


def test_sub_povm_violation():
    with pytest.raises(ValueError, match="^sum of effects exceeds the identity$"):
        make_map(DIMS22, [(2.0 * np.eye(4, dtype=complex), maximally_mixed(DIMS22))])
    with pytest.raises(ValueError, match="^effect has a negative eigenvalue$"):
        make_map(DIMS22, [(np.diag([1.0, 1.0, 1.0, -0.5]), maximally_mixed(DIMS22))])


def test_make_map_refuses_an_empty_branch_list():
    with pytest.raises(ValueError, match="^map has no branches$"):
        make_map(DIMS22, [])
    # a list of zero effects is refused alike: it maps the identity to 0
    with pytest.raises(ValueError, match="^map annihilates the identity$"):
        make_map(DIMS22, [(np.zeros((4, 4)), maximally_mixed(DIMS22))])


# --- application -----------------------------------------------------------

def test_sec_c_on_seed_state():
    m = make_sec_c_example()
    seed = make_named_state("seed_state")
    out, prob = apply_map(m, seed)
    assert prob == pytest.approx(2 / 9, abs=1e-12)
    werner = make_named_state("werner")
    assert np.abs(out - (2 / 9) * werner.matrix).max() < 1e-12


def test_sec_c_on_identity():
    m = make_sec_c_example()
    image = apply_to_operator(m, np.eye(4, dtype=complex))
    assert np.abs(image - (5 / 12) * np.eye(4)).max() < 1e-12


def test_sec_c_failure_effect():
    m = make_sec_c_example()
    e_fail = np.eye(4) - sum(e for e, _ in m.branches)
    assert np.allclose(e_fail, np.diag([7 / 9, 7 / 9, 7 / 9, 0.0]), atol=1e-12)
    assert np.linalg.eigvalsh(e_fail).min() >= -1e-12


def test_sec_c_output_is_npt():
    m = make_sec_c_example()
    out, _ = normalized_output(m, make_named_state("seed_state"))
    assert ppt_min_eigenvalue(out) == pytest.approx(-1 / 8, abs=1e-9)


def test_unitality_on_maximally_mixed(rng):
    m = rand_valid_map(rng, (2, 3))
    out, prob = apply_map(m, maximally_mixed(bipartite_dims(2, 3)))
    assert np.abs(out / prob - np.eye(6) / 6).max() < 1e-9


def test_apply_map_dim_mismatch():
    with pytest.raises(ValueError):
        apply_map(make_sec_c_example(), maximally_mixed(bipartite_dims(2, 3)))
    depol = make_map(bipartite_dims(2, 3), [(np.eye(6), maximally_mixed(bipartite_dims(2, 3)))])
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        apply_map(depol, maximally_mixed(bipartite_dims(3, 2)))


def test_transposed_local_dims_are_refused():
    rho = make_named_state("phi_plus", 2, 3)
    sigma = density_matrix(make_rho_tilde(2, 3).matrix, bipartite_dims(3, 2))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 2\)"):
        construct_transformation(rho, sigma)
    with pytest.raises(ValueError, match=r"^output dims \(3, 2\) differ from map dims \(2, 3\)$"):
        make_map(rho.dims, [(np.eye(6), maximally_mixed(sigma.dims))])


# --- transformation synthesis ---------------------------------------------

def test_construct_transformation_worked_example():
    rho = _diag_state([0.4, 0.3, 0.2, 0.1])
    sigma = make_omega_t(2, 2, 1.2)
    # sigma has spectrum (4/7, 1/7, 1/7, 1/7), so with hi = 0.4 and lo = 0.1
    # w = (1, 0, 0, 0) and q = 1/max(1, 3) = 1/3: the effects have traces
    # q sum(w) = 1/3 and q sum(1 - w) = 1, and p = q hi / s_max = 7/30
    instrument = construct_transformation(rho, sigma)
    traces = [float(e.trace().real) for e, _ in instrument.branches]
    assert traces == pytest.approx([1 / 3, 1.0], abs=1e-9)
    assert instrument.unitality_factor == pytest.approx(1 / 3, abs=1e-12)
    out, prob = apply_map(instrument, rho)
    assert prob == pytest.approx(7 / 30, abs=1e-9)
    assert np.abs(out / prob - sigma.matrix).max() < 1e-9


def test_construct_transformation_maximally_mixed_target(rng):
    rho = rand_state(rng, (2, 2))
    instrument = construct_transformation(rho, maximally_mixed(DIMS22))
    out, prob = apply_map(instrument, rho)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_construct_transformation_singular_input():
    # seed_state (hi = 1/3, lo = 0) -> werner (5/8, 1/8, 1/8, 1/8) has
    # w = (1, 1/5, 1/5, 1/5), so q = 1/max(8/5, 12/5) = 5/12 and
    # p = q hi / s_max = 2/9: the Sec. C instrument, whose outputs are werner
    # and sigma_hat = (2/3)(5/8 I - werner)
    seed = make_named_state("seed_state")
    werner = make_named_state("werner")
    instrument = construct_transformation(seed, werner)
    sec_c = make_sec_c_example()
    assert instrument.unitality_factor == pytest.approx(5 / 12, abs=1e-12)
    traces = [float(e.trace().real) for e, _ in instrument.branches]
    assert traces == pytest.approx([2 / 3, 1.0], abs=1e-12)
    out, prob = apply_map(instrument, seed)
    assert prob == pytest.approx(2 / 9, abs=1e-12)
    assert prob == pytest.approx(apply_map(sec_c, seed)[1], abs=1e-12)
    assert np.abs(out / prob - werner.matrix).max() < 1e-12
    (_, sigma_hat), (_, sec_c_werner) = sec_c.branches
    outputs = [output.matrix for _, output in instrument.branches]
    assert np.abs(outputs[0] - sec_c_werner.matrix).max() < 1e-12
    assert np.abs(outputs[1] - sigma_hat.matrix).max() < 1e-12
    # the failure branch of both measures the seed's kernel |11>
    assert np.abs(instrument.branches[1][0] - sec_c.branches[0][0]).max() < 1e-12


def test_construct_transformation_ratio_too_small():
    rho = make_rho_tilde(2, 3)  # full rank, ratio 3
    sigma = make_omega_t(2, 3, 1.4)  # ratio (1+0.7)/(1-0.7) = 17/3 > 3
    with pytest.raises(RatioTooSmall, match=r"^R\(rho\) = 3 < R\(sigma\) = 5\.66666666667$"):
        construct_transformation(rho, sigma)


def _rotated(vals, dims, seed):
    u = haar_unitaries(len(vals), seed, 1)[0]
    return density_matrix((u * np.asarray(vals)) @ u.conj().T, dims)


def _transform_residual(rho, sigma):
    instrument = construct_transformation(rho, sigma)
    out, prob = apply_map(instrument, rho)
    assert prob > 0
    return instrument, float(np.abs(out / prob - sigma.matrix).max())


@pytest.mark.parametrize("lam", [1e-13, 1e-11], ids=["singular", "full-rank"])
def test_construct_transformation_across_singular_boundary(lam):
    # lambda = 1e-13 is at or below EIG_CLAMP, so rho is singular (R = inf)
    # and reaches every target; lambda = 1e-11 gives R = 5e10, which reaches
    # ratios up to 1e6 but neither 1e11 nor 1e14 (a singular target)
    vals = [0.5, 0.3, 0.2 - lam, lam]
    feasible = {1.5, 10.0, 1e6} if lam > EIG_CLAMP else {1.5, 10.0, 1e6, 1e11, 1e14}
    for seed in range(20):
        rho = _rotated(vals, (2, 2), seed)
        assert is_singular(spectrum(rho)) == (lam <= EIG_CLAMP)
        for ratio in (1.5, 10.0, 1e6, 1e11, 1e14):
            sigma = _rotated(np.array([ratio, 1.0, 1.0, 1.0]) / (ratio + 3.0), (2, 2), seed + 100)
            if ratio not in feasible:
                with pytest.raises(RatioTooSmall, match=r"^R\(rho\) = \S+ < R\(sigma\) = \S+$"):
                    construct_transformation(rho, sigma)
                continue
            instrument, residual = _transform_residual(rho, sigma)
            make_map(instrument.dims, instrument.branches)
            assert residual <= 1e-9


@pytest.mark.parametrize("delta", [1e-12, 1e-9, 1e-7, 1e-6])
def test_singular_input_reaches_targets_near_maximally_mixed(delta):
    # the branch states divide only by sums of weights in [0, 1], one of them
    # about D delta here, so sigma's rounding is not amplified
    seed = make_named_state("seed_state")
    vals = 0.25 + delta * np.array([1.5, -0.5, -0.5, -0.5])
    for s in range(20):
        sigma = _rotated(vals, (2, 2), s)
        instrument, residual = _transform_residual(seed, sigma)
        make_map(instrument.dims, instrument.branches)
        assert residual <= 1e-9


@pytest.mark.parametrize("delta", [1e-12, 3e-12, 1e-9, 1e-7, 1e-6, 1e-5])
def test_full_rank_input_reaches_targets_near_maximally_mixed(delta):
    # werner (hi = 5/8, lo = 1/8) onto s = 1/4 + delta (1.5, -.5, -.5, -.5):
    # w = (1, (5r - 1)/4 thrice) with r = (1/4 - delta/2)/(1/4 + 3 delta/2), so
    # sum(w) = (1 + 15 r)/4 > 2, q = 1/sum(w) and p = q hi / s_max = 5/(8 - 12 delta),
    # which tends to 5/8; sigma within 1e-12 of I / D takes the depolarizing
    # channel (p = 1)
    werner = make_named_state("werner")
    vals = 0.25 + delta * np.array([1.5, -0.5, -0.5, -0.5])
    for s in range(20):
        sigma = _rotated(vals, (2, 2), s)
        instrument, residual = _transform_residual(werner, sigma)
        assert residual <= 1e-12
        prob = apply_map(instrument, werner)[1]
        assert any(prob == pytest.approx(p, abs=1e-12) for p in (1.0, 5 / (8 - 12 * delta)))


def _rotated_pair(dims, vals_seed, floor, concentration, seed):
    """The rotations seed and seed + 1 of the spectrum floor + (1 - D floor) x,
    x a Dirichlet draw from default_rng(vals_seed)."""
    big_d = dims[0] * dims[1]
    vals = floor + (1.0 - big_d * floor) * np.random.default_rng(vals_seed).dirichlet(
        np.full(big_d, concentration))
    return _rotated(vals, dims, seed), _rotated(vals, dims, seed + 1)


@st.composite
def rotated_spectrum_pairs(draw):
    """Two Haar rotations of one 2..3 x 2..4 spectrum with lambda_min at
    least a drawn floor of 1e-10 or more."""
    return _rotated_pair((draw(st.integers(2, 3)), draw(st.integers(2, 4))),
                         draw(st.integers(0, 2**32 - 1)),
                         draw(st.sampled_from([1e-10, 1e-7, 1e-3])),
                         draw(st.sampled_from([0.5, 5.0, 500.0])),
                         draw(st.integers(0, 2**31 - 1)))


# Each example pair was refused while the ratio comparison allowed only
# D eps (R(s)^2 + R(t)^2): its computed ratios differ by 1.23-1.37 times that
# allowance, about 0.7 times D eps (R(s) (1 + R(s)) + R(t) (1 + R(t))).
@settings(max_examples=60, deadline=None)
@given(pair=rotated_spectrum_pairs())
@example(pair=_rotated_pair((2, 2), 3052260910, 1e-10, 500.0, 543534840))
@example(pair=_rotated_pair((2, 2), 259459370, 1e-3, 500.0, 1050554200))
@example(pair=_rotated_pair((2, 2), 2726477560, 1e-7, 500.0, 1410217188))
def test_rotations_of_one_spectrum_transform(pair):
    rho, sigma = pair
    instrument, residual = _transform_residual(rho, sigma)
    assert verify_ratio_monotone(instrument, rho)
    assert residual <= 1e-9


@st.composite
def feasible_pairs(draw):
    """(rho, sigma) on 2..3 x 2..4 with R(rho) >= R(sigma): two rotations of one
    spectrum (equal ratios), a singular rho (its least eigenvalue 0 or the
    admitted noise -5e-11), or a sigma within delta of I / D."""
    kind = draw(st.sampled_from(["equal-ratio", "singular", "near-mixed"]))
    if kind == "equal-ratio":
        return draw(rotated_spectrum_pairs())
    dims = (draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    big_d = dims[0] * dims[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.dirichlet(np.full(big_d, draw(st.sampled_from([0.5, 5.0, 500.0]))))
    if kind == "singular":
        x[:draw(st.integers(1, big_d - 1))] = 0.0
        x /= x.sum()
        x[0] = draw(st.sampled_from([0.0, -5e-11]))
        rho_vals, sigma_vals = x, rng.dirichlet(np.ones(big_d))
    else:
        delta = draw(st.sampled_from([1e-13, 1e-12, 1e-10, 1e-7, 1e-4]))
        rho_vals, sigma_vals = rng.dirichlet(np.ones(big_d)), 1 / big_d + delta * (x - 1 / big_d)
    seed = draw(st.integers(0, 2**31 - 1))
    rho, sigma = _rotated(rho_vals, dims, seed), _rotated(sigma_vals, dims, seed + 1)
    assume(ratio_at_least(spectrum(rho), spectrum(sigma)))
    return rho, sigma


# The example's lambda_min(rho) = -0.9e-10 is admitted noise: measured on v_lo,
# it cancels in Lambda(rho) only if the weights use it rather than 0 (with
# lo clamped at 0 the output residual was 1.1e-10).
@settings(max_examples=200, deadline=None)
@given(pair=feasible_pairs())
@example(pair=(_rotated([0.5, 0.3, 0.2 + 0.9e-10, -0.9e-10], (2, 2), 3),
               make_named_state("werner")))
def test_transform_is_exact_and_at_least_the_rank_one_probability(pair):
    # p = q lambda_max(rho) / lambda_max(sigma) with q >= 1/D, so p is at least
    # lambda_max(rho) / (D lambda_max(sigma)), what two rank-one effects with
    # Lambda(I) = I / D reach
    rho, sigma = pair
    instrument = construct_transformation(rho, sigma)
    make_map(instrument.dims, instrument.branches)
    out, prob = apply_map(instrument, rho)
    assert np.abs(out / prob - sigma.matrix).max() <= 1e-12
    assert verify_ratio_monotone(instrument, rho)
    lam_rho, lam_sigma = spectrum(rho).values[0], spectrum(sigma).values[0]
    assert prob >= lam_rho / (rho.dims.total * lam_sigma) - 1e-12


# --- entanglement extraction ----------------------------------------------

def test_entangle_from_ratio_four():
    rho = _diag_state([0.4, 0.3, 0.2, 0.1])
    instrument, target = entangle_from(rho)
    assert spectral_ratio(spectrum(target)) == pytest.approx(4.0, abs=1e-9)
    out, _ = normalized_output(instrument, rho)
    assert ppt_min_eigenvalue(out) == pytest.approx(-1 / 14, abs=1e-9)


def test_entangle_from_cas_input_rejected():
    with pytest.raises(RatioTooSmall, match="^spectral ratio 3 within CAS threshold 3$"):
        entangle_from(make_rho_tilde(2, 3))
    with pytest.raises(RatioTooSmall, match="^spectral ratio 1 within CAS threshold 3$"):
        entangle_from(maximally_mixed(DIMS22))


def test_entangle_from_singular_input():
    instrument, target = entangle_from(make_named_state("seed_state"))
    out, prob = normalized_output(instrument, make_named_state("seed_state"))
    assert prob > 0
    assert ppt_min_eigenvalue(out) < -1e-9


# --- deterministic completion ---------------------------------------------

def test_complete_sec_c():
    completed = complete_to_deterministic(make_sec_c_example())
    assert completed.unitality_factor == pytest.approx(1.0, abs=1e-10)
    total = sum(e for e, _ in completed.branches)
    assert np.abs(total - np.eye(4)).max() < 1e-10
    # trace preserved on the seed state, with the Werner branch inside
    seed = make_named_state("seed_state")
    out, prob = apply_map(completed, seed)
    assert prob == pytest.approx(1.0, abs=1e-10)
    werner = make_named_state("werner")
    remainder = out - (2 / 9) * werner.matrix
    assert np.abs(remainder - np.eye(4) * remainder[0, 0]).max() < 1e-10


def test_complete_already_deterministic():
    depol = make_map(DIMS22, [(np.eye(4, dtype=complex), maximally_mixed(DIMS22))])
    completed = complete_to_deterministic(depol)
    assert completed.unitality_factor == pytest.approx(1.0, abs=1e-12)
    assert float(completed.branches[-1][0].trace().real) == pytest.approx(0.0, abs=1e-10)


def test_complete_random_maps(rng):
    for _ in range(25):
        m = rand_valid_map(rng, (2, 2))
        assert complete_to_deterministic(m).unitality_factor == pytest.approx(1.0, abs=1e-9)


# --- properties ------------------------------------------------------------

def test_ratio_monotone_random_maps(rng):
    for dims in [(2, 2), (2, 3)]:
        for _ in range(150):
            m = rand_valid_map(rng, dims)
            rho = rand_full_rank_state(rng, dims)
            assert verify_ratio_monotone(m, rho)


def test_round_trip_random_pairs(rng):
    for dims in [(2, 2), (2, 3)]:
        for _ in range(150):
            a = rand_full_rank_state(rng, dims)
            b = rand_full_rank_state(rng, dims)
            ra = spectral_ratio(spectrum(a))
            rb = spectral_ratio(spectrum(b))
            rho, sigma = (a, b) if ra >= rb else (b, a)
            instrument = construct_transformation(rho, sigma)
            out, prob = apply_map(instrument, rho)
            assert prob > 0
            assert np.abs(out / prob - sigma.matrix).max() < 1e-9
            assert instrument.unitality_factor > 0


def test_apply_map_linear(rng):
    m = rand_valid_map(rng, (2, 2))
    r1, r2 = rand_state(rng, (2, 2)), rand_state(rng, (2, 2))
    for mu in (0.2, 0.5, 0.9):
        mix = density_matrix(mu * r1.matrix + (1 - mu) * r2.matrix, (2, 2))
        o1, _ = apply_map(m, r1)
        o2, _ = apply_map(m, r2)
        om, _ = apply_map(m, mix)
        assert np.abs(om - (mu * o1 + (1 - mu) * o2)).max() < 1e-10


def test_success_probability_range(rng):
    for _ in range(50):
        m = rand_valid_map(rng, (2, 2))
        _, prob = apply_map(m, rand_state(rng, (2, 2)))
        assert 0.0 <= prob <= 1.0 + 1e-10
    mixed = maximally_mixed(DIMS22)
    # the seed state has no weight on |3>, so measuring |3><3| never succeeds
    last = make_map(DIMS22, [(np.diag([0.0, 0.0, 0.0, 1.0]), mixed)])
    assert apply_map(last, make_named_state("seed_state"))[1] == 0.0
    with pytest.raises(ValueError, match="success probability is numerically zero"):
        normalized_output(last, make_named_state("seed_state"))


def test_apply_map_admits_what_the_constructors_admit():
    # lambda_max(sum E) = 1 + 0.9e-10 and Tr(rho) = 1 + 0.9e-10 are both within
    # tolerance, so Tr(E rho) = 1 + 1.8e-10 is admitted, not refused as above 1
    scale = 1.0 + 0.9e-10
    m = make_map(DIMS22, [(scale * np.eye(4), maximally_mixed(DIMS22))])
    rho = density_matrix(scale * np.eye(4) / 4, DIMS22)
    _, prob = apply_map(m, rho)
    assert prob == pytest.approx(1.0 + 1.8e-10, rel=0, abs=1e-15)
    assert complete_to_deterministic(m).unitality_factor == pytest.approx(scale, rel=0, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_make_map_rejects_non_finite_effects(bad):
    effect = np.eye(4, dtype=complex) / 2
    effect[0, 0] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        make_map(DIMS22, [(effect, maximally_mixed(DIMS22))])
