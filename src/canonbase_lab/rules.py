"""The scalar rules: the tolerance of every verdict on computed floats (see
the policy in ``measure_core``), and the checks of integers, sizes and short
lists of reals. This module loads no numpy, so the calls that do no array work
start without it; ``close`` finds numpy in ``sys.modules`` when given an
ndarray, since whoever holds one has loaded it.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

from .errors import InvariantError

#: The relative tolerance of ``close``.
TOL = 1e-9


def close(a, b, tol: float = TOL) -> bool:
    """True iff |a - b| <= tol * s at every entry of the arrays (or scalars)
    a and b, where s is the larger sup norm of a and b. Data with an infinite
    or NaN entry are close only when equal. Two ints or floats, or two
    sequences of them of one length, are compared in Python floats, without
    numpy's fixed cost per call; an ndarray on either side is compared by numpy."""
    if isinstance(a, (float, int)) and isinstance(b, (float, int)):
        xs, ys = (float(a),), (float(b),)
    else:
        np = sys.modules.get("numpy")
        if np is not None and (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
            a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
            s = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
            if not np.isfinite(s):
                return bool(np.array_equal(a, b))
            return bool(np.all(np.abs(a - b) <= tol * s))
        xs, ys = (*map(float, a),), (*map(float, b),)
        if len(xs) != len(ys):
            raise ValueError(f"close compares sequences of one length, got {len(xs)} and {len(ys)}")
    s = 0.0  # the larger sup norm, but for NaN entries, which fail every comparison below
    for v in xs + ys:
        if abs(v) > s:
            s = abs(v)
    if s == math.inf:
        return all(map(float.__eq__, xs, ys))
    bound = tol * s
    for x, y in zip(xs, ys):
        if not abs(x - y) <= bound:
            return False
    return True


def reals(values, name: str, size: int | None = None) -> list[float]:
    """The list ``values`` as floats, ``size`` of them if given; every entry
    must be a finite real. Other data than a list of numbers (a scalar, a
    nested list, strings, None) go to ``measure_core.reals``, whose rule and
    messages these are."""
    if type(values) is list and all(isinstance(v, Real) and v.__class__ is not bool for v in values):
        try:
            out = [float(v) for v in values]
        except OverflowError as exc:
            raise InvariantError(f"{name}: expected real numbers ({exc})") from None
        for i, x in enumerate(out):
            if not math.isfinite(x):
                raise InvariantError(f"{name}/{i}: must be finite, got {x}")
    else:
        from .measure_core import reals as array
        arr = array(values, name)
        out = arr.tolist() if arr.ndim == 1 else None
    if out is None or len(out) != (size or len(out)):
        raise InvariantError(f"{name}: expected a list of {size or 'any number of'} reals")
    return out


def integer(value, name: str, least: int) -> int:
    """``value`` as an int >= ``least``. Unlike int(), it refuses bools,
    strings and fractions, with ``{name}: must be an integer, got {value!r}``;
    an integer below ``least`` gets ``{name}: must be >= {least}, got {value!r}``."""
    whole = isinstance(value, Integral) or isinstance(value, Real) and math.isfinite(value)
    if isinstance(value, bool) or not whole or value != int(value):
        raise InvariantError(f"{name}: must be an integer, got {value!r}")
    if value < least:
        raise InvariantError(f"{name}: must be >= {least}, got {value!r}")
    return int(value)


#: The most entries, rows times atoms, that one result may hold: 2**24, which
#: admits the 4,095 event meets of 12 events on 4,096 atoms.
MAX_ENTRIES = 2**24
#: The most keys one result may map, each to a row: 2**14, since each key of a
#: report takes about 45 us to build and encode.
MAX_KEYS = 2**14


def check_entries(rows: int, atoms: int, name: str) -> None:
    """Raise ``InvariantError`` naming ``name`` and the cap unless ``rows``
    rows of ``atoms`` atoms hold at most ``MAX_ENTRIES`` entries."""
    check_count(rows * atoms, MAX_ENTRIES, name, "entries")


def check_count(count: int, cap: int, name: str, unit: str) -> None:
    """Raise ``InvariantError`` naming ``name`` and the power-of-two ``cap``
    unless ``count`` (of ``unit``) is at most ``cap``."""
    if count > cap:
        size = count if count.bit_length() <= 60 else f"more than 2**{count.bit_length() - 1}"
        raise InvariantError(f"{name}: {size} {unit} exceed the cap of {cap} (2**{cap.bit_length() - 1})")
