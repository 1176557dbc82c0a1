"""Helpers shared by the bench scripts in this directory, which import it
as ``timing`` (a script's own directory is first on ``sys.path``): time
library functions inside one whole call by wrapping them, run a call in a
fresh child process, and read a process's peak RSS.
"""

from __future__ import annotations

import resource
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Callable


def peak_rss_mib() -> float:
    """This process's peak resident set size so far (``ru_maxrss``), in MiB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def in_child(fn: Callable, *args):
    """``fn(*args)`` in a fresh spawned process, so the peak RSS it reads is
    its own; returns its result."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def timed_calls(call: Callable[[], object], module, names) -> tuple[float, dict[str, list]]:
    """Run ``call()`` with each ``module.<name>`` wrapped, then restore them.

    Returns the call's milliseconds and, per name, one (ms, result) pair
    for every call the wrapped function received, in call order. The
    wrappers look like the originals to their callers, so the functions
    are timed on exactly the inputs the library hands them.
    """
    real = {name: getattr(module, name) for name in names}
    calls: dict[str, list] = {name: [] for name in names}

    def wrap(name):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = real[name](*args, **kwargs)
            calls[name].append(((time.perf_counter() - t0) * 1000.0, result))
            return result

        return timed

    for name in names:
        setattr(module, name, wrap(name))
    try:
        t0 = time.perf_counter()
        call()
        call_ms = (time.perf_counter() - t0) * 1000.0
    finally:
        for name, fn in real.items():
            setattr(module, name, fn)
    return call_ms, calls
