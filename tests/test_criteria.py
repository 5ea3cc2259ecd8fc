import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specsep import make_named_state, spectrum, spectrum_from_values, tensor_product
from specsep.criteria import (
    CriterionInapplicable,
    Status,
    appt_spectral_necessary,
    copy_bound,
    gibbs_threshold,
    multipartite_guarantee,
    purity_ball,
    purity_bound_report,
    ratio_criterion,
    region_a,
    run_all,
)
from specsep.states import density_matrix, make_rho_tilde


def _sorted_dirichlet(rng, n, d, alpha=1.0):
    vals = rng.dirichlet(np.full(d, alpha), size=n)
    return np.sort(vals, axis=1)[:, ::-1]


# --- ratio criterion -------------------------------------------------------

def test_ratio_maximally_mixed_detected():
    for d in (2, 3, 5):
        s = spectrum_from_values([1 / d**2] * d**2, (d, d))
        assert ratio_criterion(s).status is Status.DETECTED


def test_ratio_rho_tilde_boundary_detected():
    s = spectrum(make_rho_tilde(2, 3))
    v = ratio_criterion(s)
    assert v.status is Status.DETECTED
    assert v.computed["ratio"] == pytest.approx(3.0, abs=1e-12)
    assert v.computed["threshold"] == 3.0


def test_ratio_not_detected():
    s = spectrum_from_values([0.4, 0.3, 0.2, 0.1], (2, 2))
    assert ratio_criterion(s).status is Status.NOT_DETECTED


def test_ratio_singular_never_cas():
    s = spectrum_from_values([1 / 3, 1 / 3, 1 / 3, 0.0], (2, 2))
    v = ratio_criterion(s)
    assert v.status is Status.NOT_DETECTED
    assert "singular" in v.reason


def test_ratio_rejects_bad_d():
    s = spectrum_from_values([0.25] * 4, (1, 4))
    with pytest.raises(ValueError):
        ratio_criterion(s)


def test_ratio_scale_free(rng):
    vals = rng.dirichlet(np.ones(6))
    for c in (1.0, 7.0, 1e-3):
        s = spectrum_from_values(c * vals / (c * vals).sum(), (2, 3))
        v = ratio_criterion(s)
        assert v.computed["ratio"] == pytest.approx(vals.max() / vals.min(), rel=1e-12)


# --- purity ball and regions ----------------------------------------------

def test_purity_ball_examples():
    mm = spectrum_from_values([1 / 6] * 6, (2, 3))
    assert purity_ball(mm).status is Status.DETECTED
    rt = spectrum(make_rho_tilde(2, 3))
    assert purity_ball(rt).status is Status.NOT_DETECTED
    boundary = spectrum_from_values([1 / 3, 1 / 3, 1 / 3, 0.0], (2, 2))
    v = purity_ball(boundary)
    assert v.status is Status.DETECTED
    assert v.computed["purity"] == pytest.approx(v.computed["bound"], abs=1e-12)


def test_region_checks():
    mm = spectrum_from_values([1 / 6] * 6, (2, 3))
    a, b = region_a(mm), purity_ball(mm)
    assert a.status is Status.DETECTED and b.status is Status.DETECTED
    rt = spectrum(make_rho_tilde(2, 3))
    a, b = region_a(rt), purity_ball(rt)
    assert a.status is Status.NOT_DETECTED
    assert b.status is Status.NOT_DETECTED
    # constructed exactly on the region-A boundary
    d = 6
    vals = np.full(d, 1 / (d + 2))
    vals[0] = 3 / (d + 2)
    a = region_a(spectrum_from_values(vals, (2, 3)))
    assert a.status is Status.DETECTED


# --- APPT necessary inequality --------------------------------------------

def test_appt_examples():
    mm = spectrum_from_values([0.25] * 4, (2, 2))
    assert appt_spectral_necessary(mm).status is Status.DETECTED
    s = spectrum_from_values([0.3, 0.3, 0.3, 0.1], (2, 2))
    assert appt_spectral_necessary(s).status is Status.DETECTED
    rho = density_matrix(np.diag([0.3, 0.3, 0.3, 0.1]).astype(complex), (2, 2))
    squared = spectrum(tensor_product(rho, rho))
    assert appt_spectral_necessary(squared).status is Status.NOT_DETECTED


def test_appt_needs_three_levels():
    with pytest.raises(ValueError):
        appt_spectral_necessary(spectrum_from_values([0.7, 0.3], (2,)))


# --- purity bound report ---------------------------------------------------

def test_cas_purity_bound_matches_purity_ball_at_two_qubits():
    s = spectrum_from_values([0.25] * 4, (2, 2))
    report = {v.name: v for v in purity_bound_report(s)}
    assert report["cas_purity"].computed["bound"] == pytest.approx(1 / 3)


def test_as_purity_two_qubit_threshold():
    # spectrum (a, b, b, b) tuned to purity 0.38 > 3/8
    a = (2 + math.sqrt(4 + 2.24)) / 8
    b = (1 - a) / 3
    s = spectrum_from_values([a, b, b, b], (2, 2))
    report = {v.name: v for v in purity_bound_report(s)}
    assert report["as_purity"].computed["bound"] == pytest.approx(3 / 8)
    assert report["as_purity"].status is Status.NOT_DETECTED


def test_filippov_strict_at_as_bound():
    # spectrum with purity exactly 2/D at D = 6
    d = 6
    x = 1 / math.sqrt(d)  # purity of the perturbed spectrum is 1/d + x^2 = 2/d
    vals = np.full(d, 1 / d)
    vals[0] += x * math.sqrt((d - 1) / d)
    vals[1:] -= x / math.sqrt(d * (d - 1))
    s = spectrum_from_values(vals, (2, 3))
    report = {v.name: v for v in purity_bound_report(s)}
    fil = report["filippov"]
    assert fil.computed["purity"] == pytest.approx(2 / d, abs=1e-12)
    assert fil.computed["lhs"] == pytest.approx(1.0, abs=1e-9)
    assert fil.computed["rhs"] == pytest.approx(3 * math.sqrt(6 / 28), rel=1e-9)
    assert fil.status is Status.DETECTED


@pytest.mark.parametrize("vals", [
    [1 + 0.9e-10, 0.0, 0.0, 0.0],
    [1 + 3.9e-10, -1e-10, -1e-10, -1e-10],
], ids=["trace-error", "clamped-noise"])
def test_filippov_at_the_largest_admitted_purity(vals):
    # a validated spectrum has purity at most about 1 + 1e-9, so k = 1
    s = spectrum_from_values(vals, (2, 2))
    fil = {v.name: v for v in purity_bound_report(s)}["filippov"]
    assert fil.computed["purity"] > 1.0
    assert fil.computed["k"] == 1
    assert fil.computed["lhs"] == 1.0
    assert fil.status is Status.NOT_DETECTED


def test_purity_bounds_swap_unequal_dims():
    s = spectrum(make_rho_tilde(2, 3))
    r1 = {v.name: v.computed.get("bound", v.computed.get("rhs"))
          for v in purity_bound_report(s)}
    r2 = {v.name: v.computed.get("bound", v.computed.get("rhs"))
          for v in purity_bound_report(spectrum_from_values(s.values, (3, 2)))}
    assert r1 == r2
    assert r1["cas_purity"] == pytest.approx((2 / 3) / 3)


# --- multipartite guarantee and Gibbs threshold ---------------------------

def test_multipartite_three_qubits():
    vals = np.array([3.0, 2, 2, 2, 2, 1, 1, 1])
    s = spectrum_from_values(vals / vals.sum(), (2, 2, 2))
    cuts = multipartite_guarantee(s, 2)
    assert len(cuts) == 3
    for left, right in cuts:
        assert min(len(left), len(right)) == 1


def test_multipartite_uniform_all_small_cuts():
    s = spectrum_from_values([1 / 8] * 8, (2, 2, 2))
    cuts = multipartite_guarantee(s, 2)
    assert len(cuts) == 3
    s4 = spectrum_from_values([1 / 16] * 16, (2, 2, 2, 2))
    cuts4 = multipartite_guarantee(s4, 4)
    assert len(cuts4) == 7  # every bipartition of four qubits qualifies


def test_multipartite_large_ratio_empty():
    vals = np.array([10.0, 1, 1, 1, 1, 1, 1, 1])
    s = spectrum_from_values(vals / vals.sum(), (2, 2, 2))
    assert multipartite_guarantee(s, 2) == []


def test_multipartite_side_dimension_cap(rng):
    s = spectrum_from_values([1 / 16] * 16, (2, 2, 2, 2))
    for l in (2, 3, 4):
        for left, right in multipartite_guarantee(s, l):
            assert min(2 ** len(left), 2 ** len(right)) <= l


def test_multipartite_needs_two_parties():
    s = spectrum_from_values([1 / 8] * 8, (8,))
    with pytest.raises(ValueError, match="two parties"):
        multipartite_guarantee(s, 2)


def test_gibbs_threshold_values():
    assert gibbs_threshold(1.0, 2) == pytest.approx(2 / math.log(3), rel=1e-12)
    assert gibbs_threshold(0.0, 2) == 0.0
    prev = gibbs_threshold(1.0, 2)
    for l in range(3, 30):
        cur = gibbs_threshold(1.0, l)
        assert cur > prev
        prev = cur
    with pytest.raises(ValueError):
        gibbs_threshold(1.0, 1)


# --- copy bound ------------------------------------------------------------

def test_copy_bound_values():
    assert copy_bound(3.0) == 2
    assert copy_bound(2.0) == 3
    assert copy_bound(1e6) == 2


def test_copy_bound_monotone_decreasing():
    bounds = [math.log(r + 2 * math.sqrt(r)) / math.log(r) for r in np.linspace(1.5, 50, 200)]
    assert all(b1 >= b2 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


def test_copy_bound_inapplicable():
    with pytest.raises(CriterionInapplicable):
        copy_bound(1.0)
    with pytest.raises(CriterionInapplicable):
        copy_bound(math.inf)


def test_copy_bound_tensor_copies_fail_appt():
    for ratio in (2.0, 3.0, 5.0):
        vals = np.array([ratio, 1.0, 1.0, 1.0])
        vals /= vals.sum()
        n = copy_bound(ratio)
        prod = vals.copy()
        for _ in range(n - 1):
            prod = np.outer(prod, vals).ravel()
        s = spectrum_from_values(np.sort(prod)[::-1], (len(prod),))
        assert appt_spectral_necessary(s).status is Status.NOT_DETECTED


# --- cross-criterion consistency ------------------------------------------

@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_sufficiency_implies_necessity(dims):
    rng = np.random.default_rng(hash(dims) % 2**32)
    d_a, d_b = sorted(dims)
    big_d = d_a * d_b
    thr = (d_a + 1) / (d_a - 1)
    vals = np.vstack([
        _sorted_dirichlet(rng, 5000, big_d, 1.0),
        _sorted_dirichlet(rng, 5000, big_d, 30.0),
    ])
    ratios = vals[:, 0] / vals[:, -1]
    cas = ratios <= thr + 1e-12
    assert cas.any()
    # CAS-detected spectra always pass the APPT necessary inequality
    appt_ok = vals[:, 0] <= vals[:, -2] + 2 * np.sqrt(vals[:, -1] * vals[:, -3]) + 1e-12
    assert appt_ok[cas].all()
    if d_a == d_b:
        purities = (vals**2).sum(axis=1)
        assert (purities[cas] <= 1 / (big_d - 1) + 1e-12).all()


def test_appt_implies_as_purity():
    rng = np.random.default_rng(7)
    for big_d in (6, 9, 12):
        vals = np.vstack([
            _sorted_dirichlet(rng, 3000, big_d, 1.0),
            _sorted_dirichlet(rng, 3000, big_d, 50.0),
        ])
        appt_ok = vals[:, 0] <= vals[:, -2] + 2 * np.sqrt(vals[:, -1] * vals[:, -3]) + 1e-12
        assert appt_ok.any()
        purities = (vals**2).sum(axis=1)
        assert (purities[appt_ok] <= 2 / big_d + 1e-12).all()


VERDICT_NAMES = ["ratio_cas", "purity_ball", "region_a", "appt_necessary", "cas_purity",
                 "as_purity", "filippov"]


@st.composite
def bipartite_spectra(draw):
    """A random 2..4 x 2..4 spectrum; about half of them get exact zeros in
    a random number of places, so singular spectra are drawn too."""
    dims = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    big_d = dims[0] * dims[1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.dirichlet(np.full(big_d, draw(st.sampled_from([0.5, 5.0, 500.0]))))
    if draw(st.booleans()):
        vals[rng.permutation(big_d)[:draw(st.integers(1, big_d - 1))]] = 0.0
    return spectrum_from_values(vals / vals.sum(), dims)


@settings(max_examples=200, deadline=None)
@given(s=bipartite_spectra())
@example(s=spectrum(make_rho_tilde(2, 3)))
def test_run_all_report_shape(s):
    report = run_all(s)
    assert [v.name for v in report] == VERDICT_NAMES  # so no name twice
    verdicts = {v.name: v.status is Status.DETECTED for v in report}
    vals, big_d = s.values, s.dims.total
    d = min(s.dims.locals)
    if vals[-1] <= 1e-12:
        assert not verdicts["ratio_cas"]
    else:
        assert verdicts["ratio_cas"] == (vals[0] / vals[-1] <= (d + 1) / (d - 1) + 1e-12)
    assert verdicts["region_a"] == (vals[-1] >= 1 / (big_d + 2) - 1e-12)
    assert verdicts["purity_ball"] == (np.sum(vals**2) <= 1 / (big_d - 1) + 1e-12)
