"""Properties of the state and report files over generated inputs: exact
round trips, strict JSON reports, and exit code 2 on malformed state files."""

import collections
import contextlib
import enum
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from specsep import __version__
from specsep.cli import EXIT_INVALID, EXIT_OK, main
from specsep.fileio import dumps, load_state, matrix_to_payload, save_report, save_state
from specsep.states import density_matrix, spectrum_from_values

LOCALS = st.sampled_from([(2,), (1, 2), (2, 2), (2, 3), (3, 3), (2, 2, 2)])
BIPARTITE = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def matrix_states(draw, locals_=LOCALS):
    """A random density matrix of random rank, singular ones included."""
    dims = draw(locals_)
    d = math.prod(dims)
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(SEEDS))
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return density_matrix(m / m.trace().real, dims)


@st.composite
def spectra(draw):
    """A random spectrum with exact zeros in a random number of places."""
    dims = draw(LOCALS)
    d = math.prod(dims)
    rng = np.random.default_rng(draw(SEEDS))
    vals = rng.dirichlet(np.ones(d))
    vals[rng.permutation(d)[:draw(st.integers(0, d - 1))]] = 0.0
    return spectrum_from_values(vals / vals.sum(), dims)


def _run(argv):
    """(exit code, stderr) of one CLI command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _strict_load(path):
    def refuse(name):
        raise ValueError("non-finite constant %s" % name)

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def _signed_zero_state():
    """diag(0.4, 0.3, 0.2, 0.1) with entries (0, 1) = -0+0j and (1, 0) = -0-0j."""
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1], m[1, 0] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    return density_matrix(m, (2, 2))


@settings(max_examples=60, deadline=None)
@given(rho=matrix_states(), spec=spectra(), of_matrix=st.booleans())
@example(rho=_signed_zero_state(), spec=spectrum_from_values([0.5, 0.5, 0.0, -0.0], (2, 2)),
         of_matrix=False)
@example(rho=_signed_zero_state(), spec=spectrum_from_values([0.5, 0.5, 0.0, -0.0], (2, 2)),
         of_matrix=True)
def test_save_load_save_is_byte_identical(rho, spec, of_matrix):
    state = rho if of_matrix else spec
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        save_state(first, state)
        save_state(second, load_state(first))
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=25, deadline=None)
@given(rho=matrix_states(BIPARTITE), seed=st.integers(0, 2**31 - 1),
       samples=st.integers(1, 40), ratio=st.floats(1.001, 1e6),
       h_norm=st.floats(0.0, 1e6), l=st.integers(2, 50), k_b=st.floats(1e-3, 1e3))
def test_every_report_is_strict_json_with_version_and_seed(rho, seed, samples, ratio,
                                                          h_norm, l, k_b):
    d_a, d_b = rho.dims.locals
    # (rho + I/D)/2 has a strictly smaller spectral ratio, so it is reachable
    big_d = rho.dims.total
    target = density_matrix((rho.matrix + np.eye(big_d) / big_d) / 2, rho.dims)
    with tempfile.TemporaryDirectory() as tmp:
        state, mixed = str(Path(tmp, "rho.json")), str(Path(tmp, "target.json"))
        save_state(state, rho)
        save_state(mixed, target)
        commands = [
            ["classify", state],
            ["transform", state, mixed],
            ["witness", "ppt", "--d-a", str(d_a), "--d-b", str(d_b), "--evaluate", state],
            ["bounds", "--copies", repr(ratio), "--h-norm", repr(h_norm), "--l", str(l),
             "--k-b", repr(k_b)],
            ["falsify", state, "--samples", str(samples)],
        ]
        if d_a < d_b:
            commands.append(["witness", "separating", "--d-a", str(d_a), "--d-b", str(d_b),
                             "--evaluate", state])
        for i, argv in enumerate(commands):
            report = str(Path(tmp, "report%d.json" % i))
            if argv[0] == "falsify":
                argv = argv + ["--seed", str(seed)]
            assert _run(argv + ["--output", report]) == (EXIT_OK, "")
            payload = _strict_load(report)
            assert payload["tool_version"] == __version__
            if argv[0] == "falsify":
                assert payload["seed"] == seed
            else:
                assert "seed" not in payload


@st.composite
def near_psd_state_files(draw):
    """(matrix payload, spectrum payload) of one rotated state whose smallest
    eigenvalue is drawn from [-2e-10, 0], next to the -1e-10 PSD tolerance."""
    dims = draw(BIPARTITE)
    d = math.prod(dims)
    rng = np.random.default_rng(draw(SEEDS))
    low = draw(st.floats(-2e-10, 0.0))
    vals = np.append(rng.dirichlet(np.ones(d - 1)) * (1.0 - low), low)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    locals_ = {"locals": list(dims)}
    return ({"dims": locals_, "matrix": matrix_to_payload((u * vals) @ u.conj().T)},
            {"dims": locals_, "spectrum": [float(v) for v in vals]})


@settings(max_examples=60, deadline=None)
@given(files=near_psd_state_files())
def test_near_psd_files_get_one_verdict_and_run(files):
    # the matrix form only knows its eigenvalues to about D eps, so skip a
    # smallest eigenvalue within 1e-14 of the tolerance itself
    assume(abs(min(files[1]["spectrum"]) + 1e-10) > 1e-14)
    accepted = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, payload in enumerate(files):
            path = str(Path(tmp, "state%d.json" % i))
            Path(path).write_text(dumps(payload))
            try:
                load_state(path)
            except ValueError as exc:
                if "not PSD" not in str(exc) and "trace is" not in str(exc):
                    raise
                accepted.append(False)
                continue
            accepted.append(True)
            commands = [["classify", path], ["falsify", path, "--samples", "1"]]
            if "matrix" in payload:
                commands.append(["transform", path, path])
            for argv in commands:
                assert _run(argv) == (EXIT_OK, "")
    assert accepted[0] == accepted[1]


_VALID = {"dims": {"locals": [2, 2]}, "spectrum": [0.25, 0.25, 0.25, 0.25]}
_VALID_MATRIX = {"dims": {"locals": [2, 2]}, "matrix": matrix_to_payload(np.eye(4) / 4)}
_NOT_ITERABLE = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False, allow_infinity=False))
_NOT_A_NUMBER = st.one_of(st.none(), st.just([]), st.just({}), st.just([0.25, 0.0]))


@st.composite
def malformed_state_files(draw):
    """The text of a state file that must be refused."""
    base = draw(st.sampled_from([_VALID, _VALID_MATRIX]))
    key = "matrix" if "matrix" in base else "spectrum"
    payload = json.loads(dumps(base))
    kind = draw(st.sampled_from(["bad-json", "missing-key", "both-keys", "nesting",
                                 "wrong-type", "wrong-entry", "dims"]))
    if kind == "bad-json":
        text = dumps(base)
        return text[:draw(st.integers(0, len(text) - 2))]
    if kind == "missing-key":
        victim = draw(st.sampled_from(["dims", "locals", key]))
        if victim == "locals":
            del payload["dims"]["locals"]
        else:
            del payload[victim]
    elif kind == "both-keys":
        payload["spectrum" if key == "matrix" else "matrix"] = []
    elif kind == "nesting":
        where = draw(st.sampled_from(["dims", "locals", "body", "flat"]))
        if where == "dims":
            payload["dims"] = payload["dims"]["locals"]
        elif where == "locals":
            payload["dims"]["locals"] = [payload["dims"]["locals"]]
        elif where == "body":
            payload[key] = [payload[key]]
        elif key == "matrix":
            payload[key] = [[z for pair in row for z in pair] for row in payload[key]]
        else:
            payload[key] = [[v] for v in payload[key]]
    elif kind == "wrong-type":
        victim = draw(st.sampled_from(["dims", "locals", key]))
        value = draw(_NOT_ITERABLE | st.text() if victim != key else _NOT_ITERABLE)
        if victim == "locals":
            payload["dims"]["locals"] = value
        else:
            payload[victim] = value
    elif kind == "wrong-entry":
        i = draw(st.integers(0, 3))
        if key == "matrix":
            payload[key][i][draw(st.integers(0, 3))][draw(st.integers(0, 1))] = draw(
                _NOT_A_NUMBER | st.text())
        else:
            payload[key][i] = draw(_NOT_A_NUMBER)
    else:
        payload["dims"]["locals"] = draw(st.one_of(
            st.lists(st.integers(max_value=0), min_size=1, max_size=3).map(lambda l: l + [4]),
            st.lists(st.floats().filter(lambda x: not x.is_integer()), min_size=1, max_size=3),
            st.lists(st.text(), min_size=1, max_size=3),
            st.lists(st.integers(2**32, 2**70), min_size=1, max_size=3),
            st.sampled_from([[], [2], [2, 3], [3, 3], [4, 2, 2]]),
        ))
    return dumps(payload)


# JSON true is a Python bool, which operator.index reads as 1
@pytest.mark.parametrize("locals_,big_d", [("[true,4]", 4), ("[2,true,2]", 4)],
                         ids=["true-4", "2-true-2"])
def test_bool_local_dimensions_are_refused(tmp_path, locals_, big_d):
    path = tmp_path / "s.json"
    path.write_text('{"dims":{"locals":%s},"spectrum":[%s]}'
                    % (locals_, ",".join(["%r" % (1.0 / big_d)] * big_d)))
    with pytest.raises(ValueError, match="^state file lacks a valid dims.locals entry$"):
        load_state(path)
    code, err = _run(["classify", str(path)])
    assert code == EXIT_INVALID
    assert err == "error: state file lacks a valid dims.locals entry\n"


def test_matrix_entries_of_three_numbers_are_refused(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(dumps({"dims": {"locals": [2, 2]},
                           "matrix": [[[v, 0.0, 0.0] for v in row] for row in np.eye(4) / 4]}))
    with pytest.raises(ValueError, match=r"^matrix entries must be \(re, im\) pairs of numbers$"):
        load_state(path)
    assert _run(["classify", str(path)]) == (
        EXIT_INVALID, "error: matrix entries must be (re, im) pairs of numbers\n")


@settings(max_examples=200, deadline=None)
@given(text=malformed_state_files())
def test_malformed_state_files_exit_2_with_an_error_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "bad.json")
        path.write_text(text)
        code, err = _run(["classify", str(path)])
    assert code == EXIT_INVALID
    assert err.startswith("error: ")


def test_dumps_golden_bytes():
    payload = {
        "b": {"z": (1, True, False, None), "a": [np.int64(-7), -0.0, 5e-324]},
        "a": [np.float32(0.1), math.inf, -math.inf, math.nan, np.float64(0.1)],
        "\u00e9": "Z\u00fcrich \u221e",
    }
    assert dumps(payload) == (
        '{"a":[0.10000000149011612,null,null,null,0.10000000000000001],'
        '"b":{"a":[-7,-0,4.9406564584124654e-324],"z":[1,true,false,null]},'
        '"\\u00e9":"Z\\u00fcrich \\u221e"}')
    # twice, the second time with the writers of every type above memoized
    for bad in (np.bool_(True), {1.0}) * 2:
        with pytest.raises(TypeError):
            dumps(bad)


def test_matrix_to_payload_gives_a_float_array_of_pairs():
    pairs = matrix_to_payload(np.array([[complex(-0.0, 1.0), complex(2.5, -0.0)]]))
    assert pairs.dtype == np.float64 and pairs.shape == (1, 2, 2)
    assert pairs.tolist() == [[[-0.0, 1.0], [2.5, -0.0]]]
    assert math.copysign(1.0, pairs[0, 0, 0]) == -1.0
    assert math.copysign(1.0, pairs[0, 1, 1]) == -1.0
    real = matrix_to_payload(np.array([[1.0, -0.0], [0.5, 2.0]]))
    assert real.dtype == np.float64 and real.shape == (2, 2, 2)
    assert real.tolist() == [[[1.0, 0.0], [-0.0, 0.0]], [[0.5, 0.0], [2.0, 0.0]]]
    assert math.copysign(1.0, real[0, 1, 0]) == -1.0
    assert math.copysign(1.0, real[0, 1, 1]) == 1.0
    assert dumps(real) == "[[[1,0],[-0,0]],[[0.5,0],[2,0]]]"


@st.composite
def matrix_layouts(draw):
    """A complex or real matrix of every float and the edge values, now and
    then transposed, strided, read-only or real."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    flat = draw(st.lists(_FLOATS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(flat, dtype=float).view(complex).reshape(rows, cols)
    layout = draw(st.sampled_from(["contiguous", "transposed", "strided", "read-only", "real"]))
    if layout == "transposed":
        m = m.T
    elif layout == "strided":
        m = m[::2, ::-1]
    elif layout == "read-only":
        m.flags.writeable = False
    elif layout == "real":
        m = m.real.T if draw(st.booleans()) else m.real
    return m


@settings(max_examples=200, deadline=None)
@given(m=matrix_layouts())
def test_matrix_to_payload_matches_stacked_parts_bit_for_bit(m):
    pairs = matrix_to_payload(m)
    expected = np.stack([m.real, m.imag], -1)
    assert pairs.dtype == np.float64 and pairs.shape == expected.shape
    assert pairs.tobytes() == expected.tobytes()  # signed zeros and nan payloads included
    assert not pairs.flags.writeable
    with pytest.raises(ValueError):
        pairs[...] = 0.0


def test_save_report_writes_the_ascii_bytes_of_dumps(tmp_path):
    report = {"label": "Z\u00fcrich \u221e \U0001d49c", "values": np.array([0.1, -0.0, math.inf])}
    path = tmp_path / "report.json"
    save_report(path, report)
    expected = (dumps({**report, "tool_version": __version__}) + "\n").encode("ascii")
    assert path.read_bytes() == expected


def _per_value_dumps(obj):
    """The per-value serializer: every leaf formatted on its own and an array
    taken as its ``.tolist()``, the reference ``dumps`` must match byte for byte."""
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(map(_per_value_dumps, obj))
    if isinstance(obj, np.ndarray):
        return _per_value_dumps(obj.tolist())
    if isinstance(obj, dict):
        items = ",".join("%s:%s" % (json.dumps(str(k)), _per_value_dumps(v))
                         for k, v in sorted(obj.items()))
        return "{%s}" % items
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return _per_value_dumps(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot serialize %r" % type(obj))


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
                                math.inf, -math.inf])
_FLOATS = st.floats() | _EDGE_FLOATS


class _Float(float):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


_Pair = collections.namedtuple("_Pair", "x y")

# values of subclasses and numpy scalar types, which a writer looked up by the
# exact type must resolve as an isinstance chain does
_SUBCLASSED = st.one_of(
    _FLOATS.map(_Float), st.text(max_size=4).map(_Str), st.lists(_FLOATS, max_size=3).map(_List),
    st.dictionaries(st.text(max_size=4), _FLOATS, max_size=3).map(collections.OrderedDict),
    st.sampled_from(_Level), st.tuples(_FLOATS, st.integers()).map(lambda t: _Pair(*t)),
    st.integers(-2**31, 2**31 - 1).map(np.int32), st.floats(width=16).map(np.float16))
_LEAVES = st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32), _SUBCLASSED)


@st.composite
def float_grids(draw):
    """A rectangular nest of Python floats as ``.tolist()`` gives it, now and
    then spoiled: one leaf of another type, a row cut short or grown, or a
    tuple for a list."""
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    flat = draw(st.lists(_FLOATS, min_size=size, max_size=size))
    grid = np.array(flat, dtype=float).reshape(shape).tolist()
    if size and draw(st.booleans()):
        outer, key, row = None, None, grid
        for n in shape[:-1]:
            outer, key = row, draw(st.integers(0, n - 1))
            row = outer[key]
        spoil = draw(st.sampled_from(["leaf", "short", "long", "tuple"]))
        if spoil == "leaf":
            row[draw(st.integers(0, len(row) - 1))] = draw(_LEAVES)
        elif spoil == "short":
            row.pop()
        elif spoil == "long":
            row.append(draw(_FLOATS))
        elif outer is not None:
            outer[key] = tuple(row)
    return tuple(grid) if draw(st.booleans()) else grid


_SHAPES = st.lists(st.integers(0, 4), max_size=3).map(tuple)


@st.composite
def float_arrays(draw):
    """A float64 array of 0 to 3 dimensions, zero-size shapes included,
    drawn from every float and the edge values; now and then a transposed,
    so not C-contiguous, view."""
    shape = draw(_SHAPES)
    flat = draw(st.lists(_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(flat, dtype=float).reshape(shape)
    return a.T if draw(st.booleans()) else a


@st.composite
def arrays(draw):
    """A float64, float32, bool or int64 array of 0 to 3 dimensions."""
    a = draw(float_arrays())
    kind = draw(st.sampled_from(["float64", "float32", "bool", "int64"]))
    if kind == "float32":
        with np.errstate(over="ignore"):
            a = a.astype(np.float32)
    elif kind == "bool":
        a = np.nan_to_num(a) > 0
    elif kind == "int64":
        a = np.clip(np.nan_to_num(a), -2.0**62, 2.0**62).astype(np.int64)
    return np.asarray(a)  # an operation on a 0-d array gives a scalar


_PAYLOADS = st.recursive(
    _LEAVES | float_grids() | arrays(),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(payload=_PAYLOADS)
def test_dumps_matches_the_per_value_serializer(payload):
    assert dumps(payload) == _per_value_dumps(payload)


@settings(max_examples=300, deadline=None)
@given(a=arrays())
def test_dumps_writes_an_array_as_its_tolist(a):
    assert dumps(a) == _per_value_dumps(a.tolist())


def test_dumps_refuses_a_complex_array():
    with pytest.raises(TypeError):
        dumps(np.array([1 + 2j, 0.5]))

