import ast
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsep.channels import apply_map, construct_transformation, make_map
from specsep.fileio import load_state, save_state
from specsep.oracles import as_falsify_search, haar_unitaries, haar_unitary
from specsep.states import (
    Dims,
    as_dims,
    attach_mixed_ancilla,
    bipartite_dims,
    density_matrix,
    gibbs_spectrum,
    hermitian_part,
    is_singular,
    make_named_state,
    make_omega_t,
    make_rho_tilde,
    maximally_mixed,
    partial_transpose,
    phi_plus_pt,
    purity,
    ratio_at_least,
    rho_tilde_blocks,
    spectral_ratio,
    spectrum,
    spectrum_from_values,
    tensor_product,
)
from specsep.witnesses import evaluate, make_ppt_witness

from conftest import rand_state


def test_spectrum_maximally_mixed():
    s = spectrum(maximally_mixed(bipartite_dims(2, 2)))
    assert np.allclose(s.values, [0.25, 0.25, 0.25, 0.25])


def test_spectrum_werner():
    s = spectrum(make_named_state("werner"))
    assert np.allclose(s.values, [5 / 8, 1 / 8, 1 / 8, 1 / 8], atol=1e-12)


def test_spectrum_rho_tilde():
    s = spectrum(make_rho_tilde(2, 3))
    expected = [1 / 4, 1 / 4, 1 / 4, 1 / 12, 1 / 12, 1 / 12]
    assert np.allclose(s.values, expected, atol=1e-12)


def test_spectrum_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(residual 2\.500e-01\)$"):
        density_matrix(np.kron(m, np.eye(2) / 2), (2, 2))


def test_spectral_ratio_examples():
    uniform = spectrum_from_values([0.25] * 4, (2, 2))
    assert spectral_ratio(uniform) == 1.0
    ot = spectrum(make_omega_t(2, 2, 1.2))
    assert spectral_ratio(ot) == pytest.approx(4.0, abs=1e-12)
    singular = spectrum_from_values([1 / 3, 1 / 3, 1 / 3, 0.0], (2, 2))
    assert math.isinf(spectral_ratio(singular))
    assert is_singular(singular)


def test_ratio_at_least_allows_eigenvalue_error():
    def spec(lam_min):
        return spectrum_from_values([0.5, 0.3, 0.2 - lam_min, lam_min], (2, 2))

    near, lower = spec(1e-10), spec(1e-10 * (1 + 1e-6))  # R 5e9 and 5e9 - 5e3
    assert ratio_at_least(near, lower) and ratio_at_least(lower, near)
    assert ratio_at_least(spec(1e-3), spec(2e-3))
    assert not ratio_at_least(spec(2e-3), spec(1e-3))
    singular = spec(0.0)
    assert ratio_at_least(singular, near) and ratio_at_least(singular, singular)
    assert not ratio_at_least(near, singular)


def test_purity_examples():
    assert purity(spectrum_from_values([1 / 6] * 6, (2, 3))) == pytest.approx(1 / 6)
    assert purity(spectrum(make_rho_tilde(2, 3))) == pytest.approx(5 / 24, abs=1e-12)
    pure = spectrum_from_values([1.0, 0, 0, 0], (2, 2))
    assert purity(pure) == 1.0


def test_partial_transpose_product_state_stays_psd(rng):
    a = rand_state(rng, (2,))
    b = rand_state(rng, (3,))
    prod = tensor_product(a, b)
    assert np.linalg.eigvalsh(partial_transpose(prod)).min() >= -1e-10


def test_partial_transpose_werner():
    pt = partial_transpose(make_named_state("werner"))
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-1 / 8, abs=1e-12)


def test_partial_transpose_omega():
    pt = partial_transpose(make_omega_t(2, 2, 1.2))
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-1 / 14, abs=1e-12)


def test_partial_transpose_involution_and_trace(rng):
    rho = rand_state(rng, (2, 3))
    pt = partial_transpose(rho)
    # involution: transpose the same factor of the already-transposed array
    again = pt.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
    assert np.array_equal(again, rho.matrix)
    assert abs(np.trace(pt) - 1.0) <= 1e-12


@pytest.mark.parametrize("d_a", range(2, 7))
@pytest.mark.parametrize("d_b", range(2, 7))
def test_phi_plus_pt_is_the_transposed_projector_bit_for_bit(d_a, d_b):
    expected = partial_transpose(make_named_state("phi_plus", d_a, d_b))
    assert phi_plus_pt(d_a, d_b).tobytes() == expected.tobytes()


def test_rho_tilde_blocks():
    assert rho_tilde_blocks(2, 3) == (3, 3, 3.0)
    assert rho_tilde_blocks(3, 5) == (7, 8, 2.0)
    for d_a, d_b in ((3, 3), (3, 2), (1, 4)):
        with pytest.raises(ValueError):
            rho_tilde_blocks(d_a, d_b)


def test_seed_state_matrix():
    rho = make_named_state("seed_state")
    assert np.allclose(rho.matrix, np.diag([1 / 3, 1 / 3, 1 / 3, 0]), atol=1e-15)


def test_rho_tilde_diagonal_structure():
    rho = make_rho_tilde(2, 3)
    diag = np.diag(rho.matrix).real
    assert np.allclose(diag[:3], 1 / 12, atol=1e-15)
    assert np.allclose(diag[3:], 1 / 4, atol=1e-15)


def test_omega_t_zero_is_maximally_mixed():
    rho = make_omega_t(2, 2, 0.0)
    assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-15)


def test_named_state_parameter_ranges():
    with pytest.raises(ValueError):
        make_omega_t(2, 2, 2.0)
    with pytest.raises(ValueError):
        make_omega_t(2, 2, -0.1)
    with pytest.raises(ValueError):
        make_rho_tilde(3, 2)
    with pytest.raises(ValueError, match="^unknown state name 'no_such_state'$"):
        make_named_state("no_such_state")


def test_tensor_product_identities():
    half = maximally_mixed(Dims((2,)))
    prod = tensor_product(half, half)
    assert np.allclose(prod.matrix, np.eye(4) / 4)
    assert prod.dims.locals == (2, 2)


def test_tensor_product_spectrum_pairwise():
    vals = np.array([0.3, 0.3, 0.3, 0.1])
    rho = density_matrix(np.diag(vals).astype(complex), (2, 2))
    prod = tensor_product(rho, rho)
    s = spectrum(prod)
    expected = np.sort(np.outer(vals, vals).ravel())[::-1]
    assert np.allclose(s.values, expected, atol=1e-12)


@pytest.mark.parametrize("diag,dims", [
    ([0.5, 0.5 + 0.9e-10], (1, 2)),
    ([1 + 1e-10, -1e-10], (2,)),
], ids=["trace-error", "noise-eigenvalue"])
def test_tensor_product_of_admitted_states(diag, dims):
    # each factor lies inside the tolerances, their product outside: the
    # trace errors add, and a noise eigenvalue is scaled by 1 + 1e-10
    a = density_matrix(np.diag(diag).astype(complex), dims)
    prod = tensor_product(a, a)
    assert prod.dims.locals == dims + dims
    assert np.array_equal(prod.matrix, np.kron(a.matrix, a.matrix))
    v = np.linalg.eigvalsh(prod.matrix)[::-1].copy()
    v[v < 0.0] = 0.0
    assert spectrum(prod).values.tobytes() == v.tobytes()
    expected = np.sort(np.maximum(np.outer(diag, diag).ravel(), 0.0))[::-1]
    assert np.allclose(spectrum(prod).values, expected, rtol=0, atol=1e-15)


def test_tensor_with_ancilla_rank():
    rho = tensor_product(make_named_state("seed_state"), maximally_mixed(Dims((2,))))
    rank = int((np.linalg.eigvalsh(rho.matrix) > 1e-12).sum())
    assert rank == 6  # rank(rho) * ancilla dimension


def test_attach_mixed_ancilla_identity():
    rho = make_named_state("werner")
    assert attach_mixed_ancilla(rho, 1) is rho


def test_attach_mixed_ancilla_ratio_invariant():
    rho = make_rho_tilde(2, 3)
    big = attach_mixed_ancilla(rho, 3)
    assert big.dims.locals == (2, 9)
    assert spectral_ratio(spectrum(big)) == pytest.approx(3.0, abs=1e-9)


def test_attach_mixed_ancilla_purity():
    rho = make_named_state("werner")
    big = attach_mixed_ancilla(rho, 2)
    assert purity(spectrum(big)) == pytest.approx(7 / 32, abs=1e-12)


def test_attach_mixed_ancilla_rejects_bad_dim():
    # a bool is not a dimension: True would otherwise read as 1 and return rho
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="positive integers"):
            attach_mixed_ancilla(make_named_state("werner"), bad)


def test_gibbs_spectrum():
    flat = gibbs_spectrum([1.0, 1.0, 1.0], 0.7)
    assert np.allclose(flat.values, 1 / 3)
    two = gibbs_spectrum([-1.0, 1.0], 2 / math.log(3))
    assert spectral_ratio(two) == pytest.approx(3.0, abs=1e-12)
    hot = gibbs_spectrum([0.0, 1.0, 2.0, 5.0], 1e12)
    assert np.allclose(hot.values, 0.25, atol=1e-9)
    with pytest.raises(ValueError):
        gibbs_spectrum([0.0, 1.0], 0.0)
    # k_b = -1 inverted the distribution, k_b = 0 warned, and a NaN temperature
    # was reported as a non-finite spectrum
    for temperature, k_b in [(1.0, -1.0), (1.0, 0.0), (1.0, math.inf), (1.0, math.nan),
                             (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="need temperature > 0 and finite k_b > 0"):
            gibbs_spectrum([0.0, 1.0], temperature, k_b)
    assert np.array_equal(gibbs_spectrum([0.0, 1.0, 2.0], math.inf).values, [1 / 3] * 3)
    # where k_b*T underflows or the span overflows, the lowest levels share the
    # weight, as in the limit, with no numpy warning
    assert np.array_equal(gibbs_spectrum([0.0, 1.0], 1e-200, 1e-200).values, [1.0, 0.0])
    assert np.array_equal(gibbs_spectrum([1.0, 0.0, 0.0], 1e-200, 1e-200).values,
                          [0.5, 0.5, 0.0])
    assert np.array_equal(gibbs_spectrum([-1e308, 1e308], 1.0).values, [1.0, 0.0])
    assert np.array_equal(gibbs_spectrum([-1e308, 1e308], math.inf).values, [0.5, 0.5])
    # no energies, or a non-finite one, is refused as such, not blamed on the spectrum
    for energies in [[], [0.0, math.nan], [0.0, math.inf]]:
        with pytest.raises(ValueError, match="need a non-empty list of finite energies"):
            gibbs_spectrum(energies, 1.0)


def test_spectrum_unitarily_invariant(rng):
    for dims in [(2, 2), (2, 3)]:
        rho = rand_state(rng, dims)
        base = spectrum(rho).values
        d = int(np.prod(dims))
        for k in range(10):
            u = haar_unitary(d, 100 + k)
            rotated = density_matrix(u @ rho.matrix @ u.conj().T, dims)
            assert np.allclose(spectrum(rotated).values, base, atol=1e-9)


def test_purity_multiplicative(rng):
    a = rand_state(rng, (2, 2))
    b = rand_state(rng, (2, 3))
    p = purity(spectrum(tensor_product(a, b)))
    assert p == pytest.approx(purity(spectrum(a)) * purity(spectrum(b)), abs=1e-10)


def test_validation_rejects_bad_trace_and_negativity():
    with pytest.raises(ValueError, match="^trace is 2, expected 1$"):
        density_matrix(np.eye(4) / 2, (2, 2))
    m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    not_psd = r"^state is not PSD \(eigenvalue -1\.000e-01 below -1e-10\)$"
    with pytest.raises(ValueError, match=not_psd):
        density_matrix(m, (2, 2))
    with pytest.raises(ValueError, match=not_psd):
        spectrum_from_values([0.5, 0.6, -0.1, 0.0], (2, 2))


def test_dims_total_is_exact():
    assert Dims((2**32, 2**32)).total == 2**64


@pytest.mark.parametrize("locals_", [(2.7, 2), (2.0, 2), "22", (2, "2"), (0, 2), (), 4])
def test_dims_accept_only_positive_integers(locals_):
    with pytest.raises(ValueError, match="positive integers"):
        Dims(locals_)


# operator.index reads True as 1, so these once made dims (1, 4) and (2, 1, 2)
@pytest.mark.parametrize("locals_", [(True, 4), (2, True, 2)], ids=["true-4", "2-true-2"])
def test_dims_refuse_bool_locals(locals_):
    with pytest.raises(ValueError, match="positive integers"):
        Dims(locals_)


def test_bipartite_refuses_other_than_two_parties():
    with pytest.raises(ValueError, match=r"requires bipartite dims, got \(2, 2, 2\)"):
        Dims((2, 2, 2)).bipartite()


@pytest.mark.parametrize("locals_", [(1, 4), (4, 1), (1, 1)], ids=["1-4", "4-1", "1-1"])
def test_bipartite_refuses_a_local_dimension_of_one(locals_):
    dims = Dims(locals_)
    assert dims.total == locals_[0] * locals_[1]
    with pytest.raises(ValueError, match="local dimensions must be >= 2"):
        dims.bipartite()
    with pytest.raises(ValueError, match="local dimensions must be >= 2"):
        bipartite_dims(*locals_)


_D23, _D32 = bipartite_dims(2, 3), bipartite_dims(3, 2)


# each site pairs an operand on 2 x 3 with one on 3 x 2, named as it refuses them
@pytest.mark.parametrize("call,names", [
    (lambda: evaluate(make_ppt_witness(_D23), maximally_mixed(_D32)), ("witness", "state")),
    (lambda: make_map(_D32, [(np.eye(6), maximally_mixed(_D23))]), ("output", "map")),
    (lambda: apply_map(make_map(_D23, [(np.eye(6), maximally_mixed(_D23))]),
                       maximally_mixed(_D32)), ("map", "state")),
    (lambda: construct_transformation(make_named_state("phi_plus", 2, 3), maximally_mixed(_D32)),
     ("input", "target")),
    (lambda: as_falsify_search(spectrum(maximally_mixed(_D23)), _D32, 1, 0),
     ("spectrum", "search")),
], ids=["evaluate", "make_map", "apply_map", "construct_transformation", "as_falsify_search"])
def test_operand_dims_agree_by_one_rule(call, names):
    with pytest.raises(ValueError,
                       match=r"^%s dims \(2, 3\) differ from %s dims \(3, 2\)$" % names):
        call()


# The value types and the only functions that may call them: each validating
# constructor, ``tensor_product`` (a product of admitted states) and
# ``seesaw_minimize`` (its copy of an admitted witness scaled by a power of 2).
# That no other code builds them is what lets the library check every state,
# witness and map once, where it enters.
VALUE_CONSTRUCTORS = {
    "DensityMatrix": {"density_matrix", "tensor_product"},
    "Spectrum": {"spectrum_from_values", "tensor_product"},
    "Witness": {"make_witness", "seesaw_minimize"},
    "MeasurePrepareMap": {"make_map"},
}


def _value_type_calls(node, function=None):
    """(type name, enclosing function) for each call of a value type under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        function = getattr(node, "name", "<lambda>")
    if isinstance(node, ast.Call):
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
        if name in VALUE_CONSTRUCTORS:
            yield name, function
    for child in ast.iter_child_nodes(node):
        yield from _value_type_calls(child, function)


def test_value_types_are_built_only_by_their_constructors():
    package = Path(__file__).resolve().parents[1] / "src" / "specsep"
    calls = {(name, function) for path in sorted(package.glob("*.py"))
             for name, function in _value_type_calls(ast.parse(path.read_text()))}
    assert calls == {(name, function) for name, functions in VALUE_CONSTRUCTORS.items()
                     for function in functions}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validation_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="^spectrum has non-finite values$"):
        spectrum_from_values([bad, 0.5, 0.5, 0.0], (2, 2))
    m = np.eye(4, dtype=complex) / 4
    m[0, 0] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        density_matrix(m, (2, 2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 3])
def test_validation_finds_non_finite_anywhere(bad, where):
    vals = [0.25] * 4
    vals[where] = bad
    with pytest.raises(ValueError, match="^spectrum has non-finite values$"):
        spectrum_from_values(vals, (2, 2))
    for entry in (complex(bad, 0.0), complex(0.0, bad), complex(bad, bad)):
        m = np.eye(4, dtype=complex) / 4
        m[where, 3 - where] = entry
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            density_matrix(m, (2, 2))


def test_noise_negatives_clamp_in_both_forms():
    # eigenvalues in [-PSD_TOL, 0) are noise for spectra and matrices alike
    vals = [0.4, 0.3, 0.3 + 5e-11, -5e-11]
    s = spectrum_from_values(vals, (2, 2))
    assert s.values[-1] == 0.0
    rho = density_matrix(np.diag(vals).astype(complex), (2, 2))
    assert spectrum(rho).values[-1] == 0.0
    for bad in ([0.4, 0.3, 0.3 + 2e-10, -2e-10], [0.4, 0.3, 0.3 + 5e-9, -5e-9]):
        with pytest.raises(ValueError, match=r"^state is not PSD \(eigenvalue "):
            spectrum_from_values(bad, (2, 2))
        with pytest.raises(ValueError, match=r"^state is not PSD \(eigenvalue "):
            density_matrix(np.diag(bad).astype(complex), (2, 2))


def test_spectrum_does_not_validate_again():
    # a state admitted with a noise eigenvalue keeps its clamped spectrum
    rho = density_matrix(np.diag([0.4, 0.3, 0.3 + 5e-11, -5e-11]).astype(complex), (2, 2))
    s = spectrum(rho)
    assert s.values[-1] == 0.0
    assert s.values[0] == pytest.approx(0.4, abs=1e-15)


@pytest.mark.parametrize("shape", [(4,), (3, 3), (4, 5)])
def test_validation_rejects_wrong_shapes(shape):
    with pytest.raises(ValueError,
                       match=r"^matrix shape \(.*\) does not match dims \(2, 2\) \(total 4\)$"):
        density_matrix(np.zeros(shape), (2, 2))


@st.composite
def signed_zero_hermitian(draw):
    """A Hermitian matrix whose real and imaginary parts hold +0.0 and -0.0 in
    random mirrored places, so that it stays exactly Hermitian up to zero signs."""
    d = draw(st.integers(1, 6))
    rate = draw(st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g + g.conj().T
    for part in (m.real, m.imag):
        zero = np.triu(rng.random((d, d)) < rate)
        zero |= zero.T
        part[zero] = rng.choice([-0.0, 0.0], size=int(zero.sum()))
    return m


@settings(max_examples=200, deadline=None)
@given(m=signed_zero_hermitian())
def test_hermitian_part_is_bitwise_idempotent(m):
    dims = as_dims((len(m),))
    once = hermitian_part(m, dims)
    assert hermitian_part(once, dims).tobytes() == once.tobytes()


@st.composite
def unit_hermitian_and_shift(draw):
    """A Hermitian or near-Hermitian matrix whose largest part lies in [1, 2),
    with +0.0 and -0.0 injected, and a shift k for which 2^k m stays finite,
    up to one that puts its largest part in [2^1023, 2^1024), at or above half
    the largest double."""
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g + g.conj().T + draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-9])) * g
    for part in (m.real, m.imag):
        part[rng.random((d, d)) < draw(st.floats(0, 0.5))] = -0.0
        part[rng.random((d, d)) < draw(st.floats(0, 0.5))] = 0.0
    m = np.ldexp(m.view(float), -int(np.frexp(np.abs(m.view(float)).max())[1]) + 1).view(complex)
    return m, draw(st.integers(0, 1023) | st.just(1023))


def _hermitian_part_or_refusal(m):
    try:
        return hermitian_part(m, as_dims((len(m),)))
    except ValueError as exc:
        if "not Hermitian" not in str(exc) and "non-finite" not in str(exc):
            raise
        return None


@settings(max_examples=300, deadline=None)
@given(case=unit_hermitian_and_shift())
def test_hermitian_part_has_one_rule_at_every_scale(case):
    m, k = case
    unit = _hermitian_part_or_refusal(m)
    shifted = _hermitian_part_or_refusal(np.ldexp(m.view(float), k).view(complex))
    assert (unit is None) == (shifted is None)
    if unit is not None:
        assert shifted.tobytes() == np.ldexp(unit.view(float), k).view(complex).tobytes()


def _constructed(case, d_a, d_b, rng):
    """States built by one constructor from rng draws at dims d_a x d_b."""
    dims = bipartite_dims(d_a, d_b)
    if case == "named":
        out = [make_named_state(name, d_a, d_b) for name in ("maximally_mixed", "phi_plus")]
        out.append(make_named_state("omega_t", d_a, d_b, t=rng.uniform(0, min(d_a, d_b))))
        if d_a < d_b:
            out.append(make_named_state("rho_tilde", d_a, d_b))
        if (d_a, d_b) == (2, 2):
            out += [make_named_state("seed_state"), make_named_state("werner")]
        return out
    if case == "tensor_product":
        return [tensor_product(rand_state(rng, (d_a,)), rand_state(rng, (d_b,)))]
    if case == "attach_mixed_ancilla":
        return [attach_mixed_ancilla(rand_state(rng, (d_a, d_b)), int(rng.integers(2, 4)))]
    if case == "load_state":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            save_state(path, rand_state(rng, (d_a, d_b)))
            return [load_state(path)]
    # the branch outputs of a transformation onto a rotation of rho
    rho = rand_state(rng, (d_a, d_b))
    u = haar_unitaries(dims.total, int(rng.integers(0, 2**31)), 1)[0]
    sigma = density_matrix(u @ rho.matrix @ u.conj().T, dims)
    instrument = construct_transformation(rho, sigma)
    return [output for _, output in instrument.branches]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(["named", "tensor_product", "attach_mixed_ancilla",
                             "load_state", "transform"]),
       d_a=st.integers(2, 4), d_b=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_stored_spectrum_is_the_clamped_eigvalsh(case, d_a, d_b, seed):
    for rho in _constructed(case, d_a, d_b, np.random.default_rng(seed)):
        v = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1].copy()
        v[v < 0.0] = 0.0
        assert spectrum(rho).values.tobytes() == v.tobytes()
        assert spectrum(rho).dims == rho.dims
