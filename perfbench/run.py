"""FlashWalker reproduction benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-tt --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload is set up several times (graph build, engine construction),
then run on fresh engines until ``--seconds`` have passed (at least
three times), and each host figure is the median over those runs.
``--trace 1`` runs the workload once untraced and once with timing
wrappers around every layer's public functions, checks that both
produce the same simulated report, and prints the per-layer metrics.
Every run checks its output; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import heapq
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
from layers import PER_LAYER, TARGETS, layer_metrics
from spans import FirstEvent, SpanLog, Wrappers

ROOT = Path(__file__).resolve().parent.parent
#: Where traced runs write their spans (ignored by git).
SPANS_DIR = ROOT / ".perfbench"
#: Set-ups per measured run, at least this many and for at least this
#: long; ``setup_s`` is the median over them.
SETUP_REPS = 5
SETUP_SECONDS = 3.0
#: Fewest timed runs per measurement, however long ``--seconds`` is
#: (the median of one or two runs follows the host's noise).
MIN_RUNS = 3

#: Seconds :func:`_reference_seconds` takes on an idle 2-vCPU x86-64
#: cloud VM (Python 3.11, NumPy 1.26).  Host times are reported at that
#: speed, see :func:`end_to_end`.
REFERENCE_S = 0.21

END_TO_END = [
    ("wall_s", "s"), ("hops_per_s", "1/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("sim_walks_per_s", "1/s"),
    ("sim_latency_p50_us", "us"), ("sim_latency_p90_us", "us"),
    ("ok_share", "ratio"),
]


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse to run
    against any other copy of the program.  ``workloads`` imports the
    program, so it is imported only after this, inside functions."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'repro'}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


class _Iteration:
    """One timed run of the entry call, plus its checked outcome."""

    def __init__(self, wl, target, inputs):
        from workloads import execute, summarize

        self.error = None
        self.outcome = None
        # Earlier runs' garbage is collected here, not inside the timing.
        gc.collect()
        with FirstEvent() as mark:
            t_call = perf_counter()
            try:
                out = execute(wl, target, inputs)
            except Exception:  # the program failed: report it, count it
                self.error = traceback.format_exc()
            t_end = perf_counter()
        t_first = mark.t if mark.t is not None else t_end
        self.wall = t_end - t_first
        self.session = t_first - t_call
        if self.error is None:
            self.outcome = summarize(wl, out, inputs)

    def errors(self) -> list[str]:
        if self.error is not None:
            return [self.error]
        return self.outcome.errors


def _setup(wl, seed, scale):
    from workloads import build_graph, make_target

    gc.collect()
    t0 = perf_counter()
    graph = build_graph(wl, scale)
    t1 = perf_counter()
    target = make_target(wl, graph, seed, scale)
    return graph, target, t1 - t0, perf_counter() - t1


def _failed(outcome, attempted: int) -> int:
    """Failed operations of one run; a run that raised (no outcome) or
    failed a check counts as fully failed."""
    if outcome is None or outcome.errors:
        return attempted
    return outcome.failed


def _reference_seconds(n: int = 30_000) -> float:
    """Time a fixed loop of the kind of interpreter work the simulator
    does: heap pushes, dict updates and NumPy calls on small arrays.
    The program never runs this code, so a change to the program cannot
    move it; only the host's speed does."""
    t0 = perf_counter()
    rng = np.random.default_rng(0)
    arrs = [rng.integers(0, 1000, size=k) for k in (4, 16, 64, 256)]
    heap, counts, acc = [], {}, 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        a = arrs[i & 3]
        acc += int(a[a > 500].sum()) + int(np.flatnonzero(a < 100).size)
        counts[i % 97] = counts.get(i % 97, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - t0


def end_to_end(wl, seed: int, seconds: float, scale: str):
    """End-to-end metrics with tracing off.

    A shared host's speed drifts by 20% and more within minutes, so
    host times are reported at a fixed reference speed: the reference
    loop runs before and after the set-ups and after every timed run,
    and each span's seconds are scaled by ``REFERENCE_S`` over the mean
    of the reference times around it.  A program change moves the scaled times
    exactly as it moves the raw ones; the raw median is printed too.
    """
    from workloads import make_inputs, make_target

    builds, ctors = [], []
    ref_setup = _reference_seconds()
    t_start = perf_counter()
    while len(builds) < SETUP_REPS or perf_counter() - t_start < SETUP_SECONDS:
        graph, target, b, c = _setup(wl, seed, scale)
        builds.append(b)
        ctors.append(c)
    inputs = make_inputs(wl, graph, seed, scale)
    runs: list[_Iteration] = []
    refs = [_reference_seconds()]
    t_start = perf_counter()
    while len(runs) < MIN_RUNS or perf_counter() - t_start < seconds:
        if runs:
            t0 = perf_counter()
            target = make_target(wl, graph, seed, scale)
            ctors.append(perf_counter() - t0)
        runs.append(_Iteration(wl, target, inputs))
        if len(runs) == 1:
            # Set-up plus one run: later runs' count depends on host speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        refs.append(_reference_seconds())
        if runs[-1].error is not None:
            break
    speed = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
    walls = [r.wall * f for r, f in zip(runs, speed)]

    errors = [e for r in runs for e in r.errors()]
    good = [r for r in runs if r.outcome is not None]
    digests = {r.outcome.digest for r in good}
    if len(digests) > 1:
        errors.append(f"same seed gave {len(digests)} different simulated reports")
    attempted = len(inputs) * len(runs)
    failed = sum(_failed(r.outcome, len(inputs)) for r in runs)
    first = good[0].outcome if good else None
    metrics = {
        "wall_s": statistics.median(walls),
        "hops_per_s": (statistics.median(r.outcome.hops / w for r, w in zip(runs, walls)
                                         if r.outcome is not None) if good else 0.0),
        "setup_s": (2 * REFERENCE_S / (ref_setup + refs[0])) * (
            statistics.median(builds) + statistics.median(ctors)
            + statistics.median(r.session for r in runs)),
        "peak_rss_mb": peak_rss_mb,
        "sim_walks_per_s": first.sim_walks_per_s if first else 0.0,
        "sim_latency_p50_us": first.latency(50) * 1e6 if first else 0.0,
        "sim_latency_p90_us": first.latency(90) * 1e6 if first else 0.0,
        "ok_share": 1.0 - failed / attempted,
    }
    info = {
        "runs": len(runs),
        "digest": first.digest if first else None,
        "latency_samples": first.latencies.size if first else 0,
        "host": f"raw wall_s median {statistics.median(r.wall for r in runs):.4f}, "
                f"host speed {statistics.median(speed):.3f} x reference",
    }
    return metrics, errors, attempted, failed, info


class _CollectEngines:
    """Keeps every FlashWalker built while active (for the flash
    utilization figures, which live on the engines' SSD models)."""

    def __enter__(self):
        from repro.core.flashwalker import FlashWalker

        self.engines = []
        init = self._init = FlashWalker.__dict__["__init__"]

        @functools.wraps(init)
        def collecting_init(fw, *args, **kwargs):
            init(fw, *args, **kwargs)
            self.engines.append(fw)

        FlashWalker.__init__ = collecting_init
        return self

    def __exit__(self, *exc):
        from repro.core.flashwalker import FlashWalker

        FlashWalker.__init__ = self._init


def traced(wl, seed: int, scale: str):
    """Per-layer metrics: an untraced run, then a traced one."""
    from workloads import build_graph, execute, make_inputs, make_target, summarize

    graph, target, _, _ = _setup(wl, seed, scale)
    inputs = make_inputs(wl, graph, seed, scale)
    base = _Iteration(wl, target, inputs)
    errors = list(base.errors())

    log = SpanLog()
    with Wrappers(log, TARGETS), _CollectEngines() as coll:
        i = log.open(log.name_id("graph.build"))
        graph = build_graph(wl, scale)
        log.close(i)
        target = make_target(wl, graph, seed, scale)
        with FirstEvent() as mark:
            entry = log.open(log.name_id("entry"))
            try:
                out = execute(wl, target, inputs)
            finally:
                log.close(entry)
            t_end = perf_counter()
    outcome = summarize(wl, out, inputs)
    errors += outcome.errors
    if base.outcome is not None and outcome.digest != base.outcome.digest:
        errors.append("traced run's simulated report differs from the untraced run's")
    metrics = layer_metrics(
        log, entry=entry, t_first=mark.t, t_end=t_end, kind=wl.kind,
        outcome=outcome, engines=coll.engines, untraced_wall=base.wall,
    )
    if metrics["trace.layers_self_s"] > metrics["trace.wall_s"] + 1e-6:
        errors.append("layer self times add up to more than the traced wall time")
    SPANS_DIR.mkdir(exist_ok=True)
    log.save(SPANS_DIR / f"spans-{wl.name}-{seed}.npz")
    attempted = 2 * len(inputs)
    failed = _failed(base.outcome, len(inputs)) + _failed(outcome, len(inputs))
    info = {"runs": 2, "digest": outcome.digest, "latency_samples": outcome.latencies.size}
    return metrics, errors, attempted, failed, info


def main(argv=None) -> int:
    _import_program()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long the untraced runs measure (at least three runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload for the benchmark's tests")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if args.trace:
        metrics, errors, attempted, failed, info = traced(wl, args.seed, args.scale)
        units = PER_LAYER
    else:
        metrics, errors, attempted, failed, info = end_to_end(
            wl, args.seed, args.seconds, args.scale)
        units = END_TO_END

    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    print(f"perfbench: workload={wl.name} seed={args.seed} trace={args.trace} "
          f"runs={info['runs']} latency_samples={info['latency_samples']}")
    print(f"perfbench: simulated report sha256={info['digest']}")
    if "host" in info:
        print(f"perfbench: {info['host']}")
    for name, unit in units:
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
