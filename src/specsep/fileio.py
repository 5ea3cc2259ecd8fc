"""State and report files.

A state file carries either an explicit complex matrix (row-major,
(re, im) pairs) or a bare spectrum, never both.

Every file is written by ``dumps``, whose bytes are a contract (digests and
byte-identity checks depend on them): no whitespace; dict keys sorted and
written as ASCII-escaped JSON strings; a finite float (Python, np.float64
or any np.floating) as ``"%.17g" % x``, so -0.0 stays ``-0``, which
``load_state`` reads back as -0.0 (``json`` alone reads the int 0), and
save -> load -> save is byte-identical and exact for doubles; a non-finite
float (an infinite spectral ratio, say) as ``null``; bool as
``true``/``false``, None as ``null``, int and np.integer as their decimal,
str as ASCII-escaped JSON; list and tuple as arrays.  Anything else,
np.bool_ and set among them, raises TypeError.

A subclass of one of these types is written as its base.  An np.ndarray is
written exactly as its ``.tolist()`` would be; a floating array in one ``%``
operation from a template of ``%.17g`` slots for its shape.  A complex matrix
goes in as ``matrix_to_payload``'s read-only (re, im) view of its buffer, not
a copy, and the text goes to the file as ASCII bytes.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import __version__
from .states import Spectrum, as_dims, density_matrix, spectrum_from_values


_encode_str = json.encoder.encode_basestring_ascii


def dumps(obj):
    """Serialize nested dict/list/scalar data deterministically, by the writer
    that ``_writer_for`` finds for ``type(obj)`` in ``_WRITERS`` and memoizes."""
    writer = _WRITER_OF.get(type(obj)) or _writer_for(type(obj))
    return writer(obj)


def _array(a):
    if a.dtype.kind == "f":
        text = _grid_template(a.shape) % tuple(a.ravel().tolist())
        # a finite double is spelled with digits, '-', '.', 'e' and '+'; inf and nan hold an n
        if "n" not in text:
            return text
    return dumps(a.tolist())


# searched in order, as an isinstance chain: a subclass takes the writer of its
# first base here (bool before int), and np.bool_ and set, of none, are refused
_WRITERS = (
    (float, lambda x: "%.17g" % x if math.isfinite(x) else "null"),
    ((list, tuple), lambda seq: "[%s]" % ",".join(map(dumps, seq))),
    (np.ndarray, _array),
    (dict, lambda d: "{%s}" % ",".join("%s:%s" % (_encode_str(str(k)), dumps(v))
                                       for k, v in sorted(d.items()))),
    (bool, lambda b: "true" if b else "false"),
    (type(None), lambda _: "null"),
    ((int, np.integer), lambda i: str(int(i))),
    (np.floating, lambda x: dumps(float(x))),
    (str, _encode_str),
)
_WRITER_OF = {}


def _writer_for(cls):
    for types, writer in _WRITERS:
        if issubclass(cls, types):
            _WRITER_OF[cls] = writer
            return writer
    raise TypeError("cannot serialize %r" % cls)


def _grid_template(shape):
    """JSON array text of the given shape with a %.17g slot per leaf."""
    text = "%.17g"
    for n in reversed(shape):
        text = "[%s]" % ",".join([text] * n)
    return text


def matrix_to_payload(m):
    """A complex matrix as a row-major float array of (re, im) pairs, shape (..., 2):
    a read-only view of ``m``, or of its C-contiguous complex copy."""
    pairs = np.asarray(m, dtype=complex, order="C")[..., None].view(float)
    pairs.flags.writeable = False
    return pairs


def state_to_payload(state):
    """A DensityMatrix as its matrix, a Spectrum as its eigenvalues."""
    payload = {"dims": {"locals": list(state.dims.locals)}}
    if isinstance(state, Spectrum):
        payload["spectrum"] = state.values
    else:
        payload["matrix"] = matrix_to_payload(state.matrix)
    return payload


def _write(path, payload):
    data = (dumps(payload) + "\n").encode("ascii")
    try:
        # a buffered handle retries a short write; a raw one (buffering=0) would not
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc)) from exc


def save_state(path, state):
    _write(path, state_to_payload(state))


def _reject_constant(name):
    raise ValueError("non-finite number %s" % name)


def _parse_int(token):
    return -0.0 if token == "-0" else int(token)


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
    (spectrum file).  Raises ValueError on malformed content or invariant
    violations.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=_reject_constant, parse_int=_parse_int)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError("cannot parse state file %s: %s" % (path, exc))
    try:
        dims = as_dims(payload["dims"]["locals"])
    except (KeyError, TypeError, ValueError):
        raise ValueError("state file lacks a valid dims.locals entry")
    has_matrix = "matrix" in payload
    has_spectrum = "spectrum" in payload
    if has_matrix == has_spectrum:
        raise ValueError("state file must contain exactly one of matrix/spectrum")
    if has_matrix:
        try:
            a = _json_numbers(payload["matrix"], 3)
            if a.shape[2] != 2:
                raise TypeError
        except (TypeError, ValueError, OverflowError):
            raise ValueError("matrix entries must be (re, im) pairs of numbers")
        return density_matrix(a.view(complex)[..., 0], dims)
    try:
        vals = _json_numbers(payload["spectrum"], 1)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("spectrum entries must be real numbers")
    return spectrum_from_values(vals, dims)


def digest(payload):
    """Stable content digest of a serializable payload."""
    return hashlib.sha256(dumps(payload).encode()).hexdigest()


def save_report(path, report):
    """Write a CLI report stamped with the tool version."""
    _write(path, {**report, "tool_version": __version__})
