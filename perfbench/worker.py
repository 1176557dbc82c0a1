"""One workload process: import triwalk, warm up, then a closed loop of trials.

Started by run.py, one process at a time, so that ``ru_maxrss`` belongs to
the workload. Prints one JSON object as its last line of output. Exits 3
when ``triwalk`` cannot be imported from the checkout's ``src``.

Timed trials are read against a reference kernel, a fixed piece of work
run before every trial. The host's speed drifts by up to 1.6x over
seconds to minutes; the reference slows with it, so a trial's time scaled
by the reference's reads the program, not the host.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "digests.json"
# The reference kernel's median time, in ms, on the quiet 2-core Xeon
# described in README.md. Scaled times are ms at that speed; the constant
# cancels out of every comparison between two runs.
REFERENCE_QUIET_MS = 1.7


class Reference:
    """A fixed, deterministic kernel whose time reads the host's current speed.

    Its mix follows a trial's: a Python loop of small numpy gathers and
    boolean reductions (the estimator's per-apex loop), popcounts over
    packed words (the graph and pair scans), whole-matrix boolean work, a
    random draw (the generators) and plain interpreter arithmetic. Fitted
    on walk-negative trials, this mix tracked their slowdowns about three
    times more closely than raw wall time did.
    """

    def __init__(self):
        rng = np.random.default_rng(0xCA11)
        self.rows = rng.random((48, 512)) < 0.5
        self.draw_u = rng.integers(0, 512, size=(24, 16))
        self.draw_v = rng.integers(0, 512, size=(24, 16))
        self.member = rng.random((24, 16)) < 0.5
        self.words = rng.integers(0, 1 << 62, size=(4096, 8), dtype=np.int64).astype(np.uint64)
        self.matrix = rng.random((512, 512)) < 0.5
        self.answer = self._work()

    def _work(self) -> int:
        hits = 0
        for row in self.rows:
            first = self.member & row[self.draw_u]
            hits += int((first & row[self.draw_v]).any(axis=1).sum())
        hits += int(np.bitwise_count(self.words & self.words[::-1]).sum())
        hits += int((self.matrix & self.matrix.T).sum())
        hits += int((np.random.default_rng(hits).random(1 << 14) < 0.5).sum())
        for i in range(6000):
            hits += i * i % 7
        return hits

    def ms(self) -> float:
        t0 = time.perf_counter()
        answer = self._work()
        elapsed = (time.perf_counter() - t0) * 1000.0
        if answer != self.answer:
            raise RuntimeError("reference kernel gave a different answer")
        return elapsed

    def scale(self, samples: list[float]) -> float:
        """Factor that turns ms read while the reference took ``samples`` into quiet-host ms."""
        return REFERENCE_QUIET_MS / statistics.median(samples)


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--start-index", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--min-trials", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--count-trials", type=int, default=0)
    p.add_argument("--stop-at", type=float, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def _import_triwalk():
    import triwalk

    src = (ROOT / "src").resolve()
    if src not in Path(triwalk.__file__).resolve().parents:
        raise ImportError(f"triwalk imported from {triwalk.__file__}, not from {src}")


def _running(args, loop_start: float, seconds: float, done: int) -> bool:
    if time.monotonic() >= args.stop_at:
        return False
    return time.perf_counter() - loop_start < seconds or done < args.min_trials


def _timed_loop(runner, args, reference: Reference) -> dict:
    """Two passes over the same inputs; an input's time is the faster of its two runs.

    The passes are half the worker's time apart, so a host slowdown of a
    second or two rarely hits both runs of one input. The program does the
    same work both times: every call is seeded. The reference runs before
    every trial and once after the last; a trial is scaled by the median
    of the two reference times before it and the two after it.
    """
    refs: list[float] = []
    raw: list[float] = []

    def run(index: int) -> None:
        refs.append(reference.ms())
        raw.append(runner.run(index))

    loop_start = time.perf_counter()
    inputs = 0
    while _running(args, loop_start, args.seconds / 2, inputs):
        run(args.start_index + inputs)
        inputs += 1
    for i in range(inputs):
        if time.monotonic() >= args.stop_at:
            break
        run(args.start_index + i)
    refs.append(reference.ms())
    timed_s = time.perf_counter() - loop_start
    scaled = [ms * reference.scale(refs[max(0, j - 1): j + 3]) for j, ms in enumerate(raw)]

    def best(times: list[float], i: int) -> float:
        runs = times[i::inputs]
        return min(runs) if all(math.isfinite(t) for t in runs) else math.nan

    return {
        "timed_s": timed_s,
        "busy_s": sum(t for t in scaled if math.isfinite(t)) / 1000.0,
        "next_index": args.start_index + inputs,
        "executions": len(raw),
        "trial_ms": [best(scaled, i) for i in range(inputs)],
        "wall_ms": [best(raw, i) for i in range(inputs)],
        "reference_ms": statistics.median(refs),
    }


def _traced_loop(runner, args) -> dict:
    """Each input untraced and traced, in alternating order.

    The overhead ratio then compares like with like.
    """
    from tracer import Tracer

    tracer = Tracer()
    times: list[float] = []
    traced: list[float] = []
    index = args.start_index
    loop_start = time.perf_counter()
    while _running(args, loop_start, args.seconds, index - args.start_index):
        tracer.counting = index < args.count_trials
        for traced_turn in (False, True) if index % 2 == 0 else (True, False):
            if traced_turn:
                with tracer:
                    traced.append(runner.run(index, tracer))
            else:
                times.append(runner.run(index))
        index += 1
    out = {
        "next_index": index,
        "trial_ms": times,
        "traced_trial_ms": traced,
        "self_ms": tracer.self_ms(),
        "counts": dict(tracer.counts),
    }
    if args.trace_out:
        fields = ["name", "trial", "parent", "start_ns", "end_ns", "child_ns"]
        trace_out = Path(args.trace_out)
        trace_out.parent.mkdir(exist_ok=True)
        trace_out.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _import_triwalk()
    except ImportError as exc:
        print(f"perfbench: cannot import triwalk: {exc}", file=sys.stderr)
        return 3
    import workloads

    digests: list[str] = []
    if args.seed == workloads.DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text()).get(args.profile, {}).get(args.workload, [])
    runner = workloads.Runner(workloads.PROFILES[args.profile][args.workload], args.seed, digests)
    runner.run(-1)
    setup_s = time.monotonic() - args.spawned_at

    if args.trace:
        out = _traced_loop(runner, args)
    else:
        reference = Reference()
        setup_s *= reference.scale([reference.ms() for _ in range(5)])
        out = _timed_loop(runner, args, reference)
    out.update(
        setup_s=setup_s,
        failures=runner.failures,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
