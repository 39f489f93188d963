"""Re-measure the batch size where per-walk code overtakes NumPy.

Two stages pick between a per-walk Python path and a vectorized NumPy
path by batch size, both at :data:`repro.core.advance.PER_WALK_CROSSOVER`:
the advance kernel (:func:`~repro.core.advance.advance_per_walk` vs
:func:`~repro.core.advance.advance_vectorized`) and the engine's board
pass (``FlashWalker._board_walks`` vs ``FlashWalker._board_batch``).
This script records the batches that reach each stage in a TT and an
R8B batch run (the shapes of perfbench's ``batch-tt`` and
``batch-r8b``), replays a sample of each size bucket through both paths,
and prints the median host time per call of each path per bucket and
the first bucket where the vectorized path is faster.

Run from the root of a checkout::

    PYTHONPATH=src python benchmarks/bench_crossovers.py

The replayed board passes run on a fresh engine whose partition is set
to the recorded one, so their sink work (buffer pushes, foreigner
pools) is representative but not the recorded run's exact state.
"""

from __future__ import annotations

import argparse
import copy
import statistics
from time import perf_counter

import numpy as np

import repro.core.flashwalker as engine_module
from repro.core import FlashWalker, WalkBatch
from repro.core.advance import (
    PER_WALK_CROSSOVER,
    advance_per_walk,
    advance_vectorized,
)
from repro.experiments.harness import ExperimentContext
from repro.walks import WalkSpec

#: Lower bounds of the batch-size buckets (the last one is open).
BUCKETS = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 256, 512)


def _bucket(n: int) -> int:
    return max(b for b in BUCKETS if b <= n)


def _copy(batch: WalkBatch) -> WalkBatch:
    pre = None if batch.pre_edge is None else list(batch.pre_edge)
    return WalkBatch(list(batch.src), list(batch.cur), list(batch.hop), pre)


def record(ctx: ExperimentContext, dataset: str, walks: int, seed: int):
    """Run ``dataset`` once; returns (engine, advance records, board
    records).  An advance record is (batch, loaded blocks, generator
    copy), a board record (batch, scoped, partition)."""
    graph = ctx.graph(dataset)
    fw = FlashWalker(graph, ctx.flashwalker_config(dataset), seed=seed)
    advances, boards = [], []
    real_advance = engine_module.advance_batch
    real_board = fw._board_direct

    def advance(actx, batch, loaded, rng):
        advances.append((_copy(batch), list(loaded), copy.deepcopy(rng)))
        return real_advance(actx, batch, loaded, rng)

    def board(walks, scoped):
        boards.append((_copy(walks), scoped, fw.current_partition))
        return real_board(walks, scoped)

    starts = np.random.default_rng(seed).integers(0, graph.num_vertices, walks)
    engine_module.advance_batch = advance
    fw._board_direct = board
    try:
        fw.run(spec=WalkSpec(length=6), starts=starts)
    finally:
        engine_module.advance_batch = real_advance
        del fw._board_direct
    return fw, advances, boards


def _sample(records, per_bucket: int, gen) -> dict[int, list]:
    by_bucket: dict[int, list] = {}
    for rec in records:
        by_bucket.setdefault(_bucket(len(rec[0])), []).append(rec)
    return {
        b: [recs[i] for i in sorted(gen.permutation(len(recs))[:per_bucket])]
        for b, recs in sorted(by_bucket.items())
    }


def time_advance(fw, records, per_bucket: int, gen) -> dict[int, tuple]:
    """Per bucket: (calls, per-walk median s, vectorized median s)."""
    out = {}
    for b, recs in _sample(records, per_bucket, gen).items():
        times = ([], [])
        for i, (batch, loaded, rng) in enumerate(recs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for k in order:
                kernel = (advance_per_walk, advance_vectorized)[k]
                r = copy.deepcopy(rng)
                t0 = perf_counter()
                kernel(fw.ctx, batch, loaded, r)
                times[k].append(perf_counter() - t0)
        out[b] = (len(recs), statistics.median(times[0]), statistics.median(times[1]))
    return out


def time_board(fw, records, per_bucket: int, gen) -> dict[int, tuple]:
    """Per bucket: (calls, per-walk median s, vectorized median s).

    Each path runs through ``_board_direct`` with the crossover forced
    to always or never pick it, so the channel-side size rule inside
    the pass follows the path too.
    """
    fw.start_session(WalkSpec(length=6), expected_walks=fw.total_walks)
    saved = engine_module.PER_WALK_CROSSOVER
    out = {}
    try:
        for b, recs in _sample(records, per_bucket, gen).items():
            times = ([], [])
            for i, (batch, scoped, pid) in enumerate(recs):
                if fw.current_partition != pid:
                    fw._install_partition(pid, fw.sim.now)
                order = (0, 1) if i % 2 == 0 else (1, 0)
                for k in order:
                    engine_module.PER_WALK_CROSSOVER = (1 << 62, 0)[k]
                    walks = _copy(batch)
                    t0 = perf_counter()
                    fw._board_direct(walks, scoped)
                    times[k].append(perf_counter() - t0)
            out[b] = (len(recs), statistics.median(times[0]), statistics.median(times[1]))
    finally:
        engine_module.PER_WALK_CROSSOVER = saved
    return out


def crossover(rows: dict[int, tuple]) -> int | None:
    """Lower bound of the first bucket where the vectorized path is
    faster (None: it never is)."""
    for b, (_, per_walk, vectorized) in sorted(rows.items()):
        if vectorized < per_walk:
            return b
    return None


def measure(ctx: ExperimentContext, walks: int = 24_414, seed: int = 1,
            per_bucket: int = 150) -> dict:
    """Both stages on TT and R8B; returns per-stage bucket rows and
    crossovers."""
    gen = np.random.default_rng(seed)
    result = {}
    for dataset in ("TT", "R8B"):
        fw, advances, boards = record(ctx, dataset, walks, seed)
        for stage, rows in (
            ("advance", time_advance(fw, advances, per_bucket, gen)),
            ("board", time_board(fw, boards, per_bucket, gen)),
        ):
            result[f"{dataset}:{stage}"] = {
                "rows": {b: list(r) for b, r in rows.items()},
                "crossover": crossover(rows),
            }
    return result


def report(result: dict) -> str:
    lines = []
    for key, res in result.items():
        lines.append(f"{key}  (crossover in use: {PER_WALK_CROSSOVER})")
        lines.append(f"  {'bucket':>7} {'calls':>6} {'per-walk us':>12} {'vectorized us':>14}")
        for b, (calls, pw, vec) in res["rows"].items():
            lines.append(f"  {b:>7} {calls:>6} {pw * 1e6:>12.1f} {vec * 1e6:>14.1f}")
        lines.append(f"  vectorized faster from: {res['crossover']}")
    return "\n".join(lines)


def test_crossovers(benchmark, ctx):
    from conftest import run_once

    result = run_once(benchmark, measure, ctx, walks=4000, per_bucket=30)
    for res in result.values():
        assert res["rows"]
    benchmark.extra_info.update(
        crossovers={k: r["crossover"] for k, r in result.items()}
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--walks", type=int, default=24_414)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--per-bucket", type=int, default=150,
                    help="batches replayed per size bucket and stage")
    args = ap.parse_args()
    ctx = ExperimentContext.quick(seed=3)
    print(report(measure(ctx, args.walks, args.seed, args.per_bucket)))


if __name__ == "__main__":
    main()
