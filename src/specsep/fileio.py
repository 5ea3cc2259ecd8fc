"""State and report files.

Strict JSON with every finite float printed as a decimal with 17
significant digits, so save -> load -> save is byte-identical and exact for
doubles; non-finite floats (an infinite spectral ratio, say) are written as
``null``.  A state file carries either an explicit complex matrix
(row-major, (re, im) pairs) or a bare spectrum, never both.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .states import Dims, InvalidStateError, density_matrix, spectrum_from_values


def dumps(obj):
    """Serialize nested dict/list/scalar data deterministically."""
    if isinstance(obj, dict):
        items = ",".join("%s:%s" % (json.dumps(str(k)), dumps(v)) for k, v in sorted(obj.items()))
        return "{%s}" % items
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(dumps(v) for v in obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def state_to_payload(rho=None, spec=None):
    if (rho is None) == (spec is None):
        raise ValueError("exactly one of matrix state / spectrum expected")
    if rho is not None:
        matrix = [[[z.real, z.imag] for z in row] for row in np.asarray(rho.matrix)]
        return {"dims": {"locals": list(rho.dims.locals)}, "matrix": matrix}
    return {"dims": {"locals": list(spec.dims.locals)}, "spectrum": [float(v) for v in spec.values]}


def save_state(path, rho=None, spec=None):
    with open(path, "w") as fh:
        fh.write(dumps(state_to_payload(rho=rho, spec=spec)) + "\n")


def _reject_constant(name):
    raise ValueError("non-finite number %s" % name)


def load_state(path, tol_scale=1.0):
    """Parse a state file; returns (DensityMatrix | None, Spectrum | None).

    Exactly one of the two is non-None.  Raises InvalidStateError on
    malformed content or invariant violations.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise InvalidStateError("cannot parse state file %s: %s" % (path, exc))
    try:
        locals_ = tuple(int(d) for d in payload["dims"]["locals"])
    except (KeyError, TypeError, ValueError):
        raise InvalidStateError("state file lacks a valid dims.locals entry")
    has_matrix = "matrix" in payload
    has_spectrum = "spectrum" in payload
    if has_matrix == has_spectrum:
        raise InvalidStateError("state file must contain exactly one of matrix/spectrum")
    dims = Dims(locals_)
    if has_matrix:
        try:
            m = np.array(
                [[complex(re, im) for re, im in row] for row in payload["matrix"]]
            )
        except (TypeError, ValueError):
            raise InvalidStateError("matrix entries must be (re, im) pairs")
        return density_matrix(m, dims, tol_scale=tol_scale), None
    try:
        vals = [float(v) for v in payload["spectrum"]]
    except (TypeError, ValueError):
        raise InvalidStateError("spectrum entries must be real numbers")
    return None, spectrum_from_values(vals, dims, tol_scale=tol_scale)


def digest(payload):
    """Stable content digest of a serializable payload."""
    return hashlib.sha256(dumps(payload).encode()).hexdigest()


def save_report(path, report):
    with open(path, "w") as fh:
        fh.write(dumps(report) + "\n")
