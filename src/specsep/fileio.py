"""State and report files.

A state file carries either an explicit complex matrix (row-major,
(re, im) pairs) or a bare spectrum, never both.

Every file is written by ``dumps``, whose bytes are a contract (digests and
byte-identity checks depend on them): no whitespace; dict keys sorted and
written as ASCII-escaped JSON strings; a finite float (Python, np.float64
or any np.floating) as ``format(x, ".17g")``, so -0.0 stays ``-0`` and
save -> load -> save is byte-identical and exact for doubles; a non-finite
float (an infinite spectral ratio, say) as ``null``; bool as
``true``/``false``, None as ``null``, int and np.integer as their decimal,
str as ASCII-escaped JSON; list and tuple as arrays.  Anything else,
np.bool_ and set among them, raises TypeError.

An np.ndarray is written exactly as its ``.tolist()`` would be.  A floating
array is written in one ``%`` operation from a template of ``%.17g`` slots
for its shape; ``'%.17g' % x`` and ``format(x, ".17g")`` spell a double
alike, so this path writes the same bytes as the per-value path that lists,
tuples and every other array take.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import __version__
from .states import InvalidStateError, Spectrum, as_dims, density_matrix, spectrum_from_values


_encode_str = json.encoder.encode_basestring_ascii


def dumps(obj):
    """Serialize nested dict/list/scalar data deterministically.

    Floats are tested first, lists second and arrays third: reports are
    mostly np.float64 (a float), lists and float arrays.
    """
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(map(dumps, obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            text = _grid_template(obj.shape) % tuple(obj.ravel().tolist())
            # a finite double is spelled with digits, '-', '.', 'e' and '+'; inf and nan hold an n
            if "n" not in text:
                return text
        return dumps(obj.tolist())
    if isinstance(obj, dict):
        items = ",".join("%s:%s" % (_encode_str(str(k)), dumps(v)) for k, v in sorted(obj.items()))
        return "{%s}" % items
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return dumps(float(obj))
    if isinstance(obj, str):
        return _encode_str(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def _grid_template(shape):
    """JSON array text of the given shape with a %.17g slot per leaf."""
    text = "%.17g"
    for n in reversed(shape):
        text = "[%s]" % ",".join([text] * n)
    return text


def matrix_to_payload(m):
    """A complex matrix as a row-major float array of (re, im) pairs, shape (..., 2)."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1)


def state_to_payload(state):
    """A DensityMatrix as its matrix, a Spectrum as its eigenvalues."""
    payload = {"dims": {"locals": list(state.dims.locals)}}
    if isinstance(state, Spectrum):
        payload["spectrum"] = state.values
    else:
        payload["matrix"] = matrix_to_payload(state.matrix)
    return payload


def _write(path, payload):
    text = dumps(payload) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def save_state(path, state):
    _write(path, state_to_payload(state))


def _reject_constant(name):
    raise ValueError("non-finite number %s" % name)


def _json_numbers(data, ndim):
    """``data`` as an ndim-dimensional float array.  Raises TypeError unless every
    entry is a JSON number (bool is its own type, so true/false fail with null,
    strings and containers) and OverflowError on an int too large for a float."""
    a = np.array(data, dtype=object)
    if a.ndim != ndim or not set(map(type, a.flat)) <= {int, float}:
        raise TypeError("entries are not all numbers")
    return a.astype(float)


def load_state(path):
    """Parse a state file into a DensityMatrix (matrix file) or a Spectrum
    (spectrum file).  Raises InvalidStateError on malformed content or
    invariant violations.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidStateError("cannot parse state file %s: %s" % (path, exc))
    try:
        dims = as_dims(payload["dims"]["locals"])
    except (KeyError, TypeError, ValueError):
        raise InvalidStateError("state file lacks a valid dims.locals entry")
    has_matrix = "matrix" in payload
    has_spectrum = "spectrum" in payload
    if has_matrix == has_spectrum:
        raise InvalidStateError("state file must contain exactly one of matrix/spectrum")
    if has_matrix:
        try:
            a = _json_numbers(payload["matrix"], 3)
            if a.shape[2] != 2:
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            raise InvalidStateError("matrix entries must be (re, im) pairs of numbers")
        return density_matrix(a.view(complex)[..., 0], dims)
    try:
        vals = _json_numbers(payload["spectrum"], 1)
    except (TypeError, ValueError, OverflowError):
        raise InvalidStateError("spectrum entries must be real numbers")
    return spectrum_from_values(vals, dims)


def digest(payload):
    """Stable content digest of a serializable payload."""
    return hashlib.sha256(dumps(payload).encode()).hexdigest()


def save_report(path, report):
    """Write a CLI report stamped with the tool version."""
    _write(path, {**report, "tool_version": __version__})
