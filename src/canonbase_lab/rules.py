"""The scalar rules: the tolerance of every verdict on computed floats (see
the policy below), the one rule that reads input as real numbers, and the
checks of integers and sizes. This module loads no numpy, so the calls that
do no array work start without it; ``close`` finds numpy in ``sys.modules``
when given an ndarray, since whoever holds one has loaded it.

Tolerance policy: every verdict on computed floats in this package uses one
rule, ``close``, on floats, sequences and arrays alike. Data a and b agree
when |a - b| <= TOL * s at every entry, where s is the larger sup norm of a
and b. The bound is relative, so scaling both sides by c > 0 keeps the
verdict, as it must, since types over a base do not depend on units; data that
are both zero agree. ``approx_equal`` in ``tests/reference.py`` takes a
``tol`` with this meaning, and ``tol=0.0`` asks for exact equality. Where the
two sides can cancel to about 0 while their terms do not (a value against its
expected value, a point against a breakpoint), the size of the terms goes to
``close`` as one more entry on both sides, so rounding noise is judged on that
size. Where values are sorted or grouped before a comparison,
``measure_core.sort_order`` and ``measure_core.group`` take TOL times the
joint sup norm as the rounding quantum of the sort key and as the gap within
which sorted neighbours join one group, so no rounding boundary splits equal
values. A check against the range [0, 1] uses TOL as an absolute margin, since
the range fixes the scale. The Krivine cone engine's membership slack and
structural check are guards of its own fit, not verdicts on data, and keep
their own constants.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from numbers import Integral, Real
from typing import TYPE_CHECKING

from .errors import InvariantError

if TYPE_CHECKING:
    from array import array

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


def real_array(values, name: str) -> tuple[array, tuple[int, ...]]:
    """``values`` as a fresh float64 ``array('d')``, its entries in row-major
    order, and their shape, read as ``numpy.array(values, dtype=float64)``
    reads them: lists, tuples and ranges nest, anything with a ``tolist`` (an
    ndarray, an array, a memoryview) reads as its list, None reads as NaN and
    every other leaf goes through ``float``. Every entry must be a finite
    real; the ``InvariantError`` names ``name`` and, for a non-finite entry,
    its index as a pointer (``rows/1/3: must be finite, got inf``)."""
    try:
        cells, shape = _fast_cells(values) or _cells(values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvariantError(f"{name}: expected real numbers ({exc})") from None
    if not math.isfinite(sum(cells)):  # a finite sum has finite terms; else find the first bad one
        for k, x in enumerate(cells):
            if not math.isfinite(x):
                index = []
                for size in reversed(shape):
                    k, i = divmod(k, size)
                    index.append(i)
                pos = "".join(f"/{i}" for i in reversed(index))
                raise InvariantError(f"{name}{pos}: must be finite, got {x}")
    return cells, shape


def _fast_cells(values) -> tuple[array, tuple[int, ...]] | None:
    """``_cells`` for a float64 buffer, a list or tuple of numbers, or a list
    of equally long lists of numbers, done in C; None for anything else, and
    for such data with a leaf that ``_cells`` must read or reject."""
    from array import array  # loaded by the calls that read reals, not by every call

    if hasattr(values, "tolist"):
        with suppress(TypeError):
            view = memoryview(values)
            if view.format == "d" and view.c_contiguous and view.ndim:
                cells = array("d")
                cells.frombytes(view.cast("B"))
                return cells, view.shape
        return None
    if not isinstance(values, (list, tuple)):
        return None
    with suppress(TypeError, ValueError, OverflowError):
        return array("d", values), (len(values),)
    size = len(values[0]) if values and type(values[0]) is list else -1
    if size < 0 or any(type(row) is not list or len(row) != size for row in values):
        return None
    cells = array("d")
    with suppress(TypeError, ValueError, OverflowError):
        for row in values:
            cells.fromlist(row)
        return cells, (len(values), size)
    return None


def _cells(values) -> tuple[array, tuple[int, ...]]:
    """The nesting of ``values`` read level by level, as numpy discovers a
    shape, then its leaves as floats."""
    from array import array

    shape: list[int] = []
    level = [values]
    while True:
        level = [x.tolist() if hasattr(x, "tolist") else x for x in level]
        nested = [isinstance(x, (list, tuple, range)) for x in level]
        if not any(nested):
            break
        if not all(nested) or len(set(map(len, level))) > 1:
            raise ValueError(
                "setting an array element with a sequence. The requested array has an inhomogeneous shape "
                f"after {len(shape)} dimensions. The detected shape was {tuple(shape)} + inhomogeneous part."
            )
        shape.append(len(level[0]))
        level = [y for x in level for y in x]
    return array("d", [math.nan if x is None else float(x) for x in level]), tuple(shape)


def reals(values, name: str, size: int | None = None) -> list[float]:
    """The list ``values`` as floats, ``size`` of them if given, by the rule
    of ``real_array``; anything but a flat list is an ``InvariantError``."""
    cells, shape = real_array(values, name)
    if len(shape) != 1 or len(cells) != (size or len(cells)):
        raise InvariantError(f"{name}: expected a list of {size or 'any number of'} reals")
    return cells.tolist()


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
