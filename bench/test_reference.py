"""Hand-worked cases for the benchmark's reference computations.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference


@pytest.mark.parametrize("d", [2, 3, 4])
def test_partial_transpose_of_phi_plus_has_eigenvalues_plus_minus_one_over_d(d):
    eigs = np.sort(np.linalg.eigvalsh(reference.ppt_witness(d, d)))
    expected = np.sort([-1 / d] * (d * (d - 1) // 2) + [1 / d] * (d * (d + 1) // 2))
    np.testing.assert_allclose(eigs, expected, atol=1e-14)


def test_ppt_witness_is_swap_over_d():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    np.testing.assert_allclose(reference.ppt_witness(2, 2), swap / 2, atol=1e-15)


def test_partial_transpose_of_product_transposes_second_factor():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(reference.partial_transpose(np.kron(a, b), 2, 3),
                               np.kron(a, b.T), atol=1e-15)


def test_schmidt_weights():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    np.testing.assert_allclose(reference.schmidt_weights(bell, 2, 2), [0.5, 0.5])
    product = np.kron([0, 1], [1, 1, 0]) / math.sqrt(2)
    np.testing.assert_allclose(reference.schmidt_weights(product, 2, 3), [1, 0], atol=1e-15)
    psi = math.sqrt(0.7) * np.kron([1, 0], [0, 0, 1]) + math.sqrt(0.3) * np.kron([0, 1], [1, 0, 0])
    np.testing.assert_allclose(reference.schmidt_weights(psi, 2, 3), [0.7, 0.3])


def test_spectrum_and_ratio():
    vals = reference.spectrum(np.diag([0.1, 0.4, 0.2, 0.3]))
    np.testing.assert_allclose(vals, [0.4, 0.3, 0.2, 0.1])
    assert reference.ratio(vals) == pytest.approx(4.0)


@pytest.mark.parametrize("r, n", [(4.0, 2), (2.0, 3), (1.5, 4), (1.1, 13)])
def test_copy_bound(r, n):
    # R = 1.5: R + 2 sqrt(R) = 3.95 lies between 1.5^3 = 3.375 and 1.5^4 = 5.06.
    # R = 1.1: R + 2 sqrt(R) = 3.198 lies between 1.1^12 = 3.138 and 1.1^13 = 3.452.
    assert reference.copy_bound(r) == n


def test_gibbs_threshold():
    assert reference.gibbs_threshold(1.0, 2, 1.0) == pytest.approx(2 / math.log(3))
    assert reference.gibbs_threshold(0.5, 3, 2.0) == pytest.approx(1 / (2 * math.log(2)))


def test_haar_unitaries_are_unitary_and_reproducible():
    us = reference.haar_unitaries(5, 4, seed=3)
    for u in us:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-13)
    np.testing.assert_array_equal(us, reference.haar_unitaries(5, 4, seed=3))
    assert np.abs(us[0] - us[1]).max() > 1e-3


def test_rotated_maximally_mixed_spectrum_stays_at_one_over_d():
    assert reference.median_rotated_pt_min(np.full(6, 1 / 6), 2, 3, 8, seed=1) == \
        pytest.approx(1 / 6)


def test_rho_tilde_sits_on_the_threshold():
    vals = reference.rho_tilde_values(2, 3)
    np.testing.assert_allclose(vals, [1 / 12] * 3 + [1 / 4] * 3)
    assert reference.ratio(vals) == pytest.approx(3.0)
    assert reference.rho_tilde_values(3, 4).sum() == pytest.approx(1.0)


def test_separating_witness_on_rho_tilde():
    w = reference.separating_witness(2, 3)
    assert np.trace(w) == pytest.approx(1.0)
    value = np.trace(w @ np.diag(reference.rho_tilde_values(2, 3)))
    assert value == pytest.approx((1 - math.sqrt(5) / 2) / 6)
    assert value == pytest.approx(-0.0197, abs=5e-5)


@pytest.mark.parametrize("d_a, d_b", [(2, 3), (2, 4), (3, 4)])
def test_separating_product_min_is_attained_on_the_last_a_vector(d_a, d_b):
    w = reference.separating_witness(d_a, d_b)
    rng = np.random.default_rng(d_a * d_b)
    b = rng.normal(size=d_b) + 1j * rng.normal(size=d_b)
    v = np.kron(np.eye(d_a)[-1], b / np.linalg.norm(b))
    assert np.vdot(v, w @ v).real == pytest.approx(reference.separating_product_min(d_a, d_b))
    assert reference.separating_product_min(2, 3) == pytest.approx((1 - math.sqrt(5)) / 6)


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_omega_t_partial_transpose_spectrum(t):
    # Omega_t^Gamma = (1 - t Phi+) / (D - t): one eigenvalue (1 - t)/(D - t).
    om = reference.omega_t(2, 2, t)
    assert np.trace(om).real == pytest.approx(1.0)
    pt_min = np.linalg.eigvalsh(reference.partial_transpose(om, 2, 2)).min()
    assert pt_min == pytest.approx((1 - t) / (4 - t))


def test_instrument_residuals():
    eye = np.eye(4)
    rho = np.diag([0.4, 0.3, 0.2, 0.1])
    depolarize = reference.instrument_residuals([eye], [eye / 4], rho, eye / 4)
    assert max(depolarize.values()) < 1e-15
    too_big = reference.instrument_residuals([2 * eye], [eye / 4], rho, eye / 4)
    assert too_big["subpovm_excess"] == pytest.approx(1.0)
    prepare_zero = np.diag([1.0, 0, 0, 0])
    not_unital = reference.instrument_residuals([eye], [prepare_zero], rho, prepare_zero)
    # The identity goes to Tr(1) |0><0| = diag(4, 0, 0, 0) = 1 + diag(3, -1, -1, -1).
    assert not_unital["unitality"] == pytest.approx(3.0)
    assert not_unital["target"] < 1e-15
