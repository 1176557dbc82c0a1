"""The argument rules of the public boundary, each written once.

Every rule raises ValueError, which the CLI turns into exit 2, and none
reads a bool as a number (True as a count of 1) or NaN as in range. The
rules: integers (_check_int), reals in an interval (_check_real, and
_checked_reals for arrays such as costs), strict bools (_check_bool),
vertex ids (_checked_vertex, _checked_vertices) and the objects a Graph,
a ledger, a generator or a file path must be (_check_type).
"""

from __future__ import annotations

import itertools
import numbers
from functools import lru_cache

import numpy as np


def _is_int(value) -> bool:
    """An integer, not a bool. A plain int is tested first: an isinstance
    test against a numbers ABC costs about 0.7 us."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def _check_int(name: str, value, low: int, high=None) -> None:
    """ValueError unless value is an integer, not a bool, in [low, high]."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}, got {value}")


@lru_cache(maxsize=None)  # intervals are literals in the source
def _bounds(interval: str) -> tuple[float, float, bool, bool]:
    """(low, high, low_open, high_open) of an interval written "(0, inf)"."""
    low, high = interval[1:-1].split(",")
    return float(low), float(high), interval[0] == "(", interval[-1] == ")"


def _inside(value, interval: str):
    """Whether value lies in ``interval``, elementwise for an array; NaN never does."""
    low, high, low_open, high_open = _bounds(interval)
    above = value > low if low_open else value >= low
    return above & (value < high if high_open else value <= high)


def _check_real(name: str, value, interval: str) -> None:
    """ValueError unless value is a real, not a bool, in ``interval``, which
    is written with open or closed ends: "(0, 1)", "[0, inf)", "(0, 1]"."""
    real = isinstance(value, float) or _is_int(value) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    )
    if not (real and _inside(value, interval)):
        raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")


def _checked_reals(name: str, values, interval: str = "[0, inf)") -> np.ndarray:
    """The array form of _check_real, by default for finite costs: ``values`` as floats."""
    arr = np.asarray(values)
    real = arr.dtype.kind in "iuf" and not _holds_bool(values, arr.ndim)
    if not (real and _inside(arr, interval).all()):
        raise ValueError(f"{name} must be real numbers in {interval}, got {values!r}")
    return arr.astype(float, copy=False)


_BOOLS = frozenset((bool, np.bool_))


def _holds_bool(values, ndim: int) -> bool:
    """Whether ``values``, nested ``ndim`` deep, holds a bool: np.asarray reads
    a bool beside numbers as 0 or 1. An ndarray's dtype already says, so it
    is not scanned; a list costs about 40 ns an entry."""
    if isinstance(values, np.ndarray):
        return False
    items = [values]
    for _ in range(ndim):
        items = itertools.chain.from_iterable(items)
    return not _BOOLS.isdisjoint(map(type, items))


def _check_bool(name: str, value) -> None:
    """ValueError unless value is a bool: any other truthy value would read as on."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_type(name: str, value, kinds) -> None:
    """ValueError unless value is an instance of ``kinds`` (a class or a tuple),
    where a Graph, a ledger, a generator or a file path is meant."""
    if not isinstance(value, kinds):
        kinds = kinds if isinstance(kinds, tuple) else (kinds,)
        names = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
        raise ValueError(f"{name} must be a {names}, got {value!r}")


def _checked_vertex(n: int, u) -> int:
    """u as an int; ValueError unless it is an integer id in [0, n), not a bool.
    _checked_vertices without numpy calls: is_triangle checks six ids a trial."""
    if not _is_int(u):
        raise ValueError(f"vertex ids must be integers, got {u!r}")
    if not 0 <= u < n:
        raise ValueError(f"vertex id out of range for n={n}")
    return int(u)


def _checked_vertices(n: int, vertices) -> np.ndarray:
    """Integer ``vertices`` as a 1-D int64 array; ValueError for another shape,
    float or bool ids, or ids outside [0, n)."""
    ids = np.asarray(vertices)
    if ids.ndim != 1:
        raise ValueError(f"vertex ids must be a 1-D list of ids, got shape {ids.shape}")
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {ids.dtype}")
    if _holds_bool(vertices, 1):
        raise ValueError("vertex ids must be integers, got a bool")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"vertex id out of range for n={n}")
    return ids
