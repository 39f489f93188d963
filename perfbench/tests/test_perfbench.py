"""Tests of the benchmark itself, at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_program()

from layers import TARGETS  # noqa: E402
from spans import SpanLog, Wrappers, _resolve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(capsys, workload: str, trace: int) -> dict:
    rc = run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace), "--scale", "tiny"])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _current(module: str, attr: str):
    return _resolve(module, attr)[2]


def test_benchmark_json_names_known_workloads():
    gated = {w["name"] for w in SPEC["workloads"]}
    assert gated <= set(WORKLOADS)
    assert set(WORKLOADS) - gated == {"cluster-tt"}  # too chaotic to gate


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrappers_are_removed_after_the_traced_run(capsys):
    from repro.cluster.pool import ShardHosts
    from repro.sim.engine import Simulator

    originals = {(m, a): _current(m, a) for m, a, _, _ in TARGETS}
    markers = (Simulator.__init__, Simulator.run, ShardHosts.setup)
    _bench(capsys, "cluster-tt", 1)
    for key, fn in originals.items():
        assert _current(*key) is fn, key
    assert (Simulator.__init__, Simulator.run, ShardHosts.setup) == markers
    assert Simulator().profiler is None
    # Module-level functions were rebound in every importing module.
    import repro.core.advance
    import repro.core.flashwalker

    assert repro.core.flashwalker.advance_batch is repro.core.advance.advance_batch
    assert not hasattr(repro.core.advance.advance_batch, "__wrapped__")


def test_untraced_measurement_records_no_spans(capsys):
    log = SpanLog()
    with Wrappers(log, TARGETS):
        pass
    _bench(capsys, "batch-tt", 0)
    assert len(log) == 0


def test_self_times_subtract_children():
    log = SpanLog()
    outer = log.open(log.name_id("a"))
    inner = log.open(log.name_id("b"))
    log.close(inner)
    log.close(outer)
    self_t = log.self_times()
    assert self_t[1] == pytest.approx(log.end[1] - log.start[1])
    assert self_t[0] == pytest.approx(
        (log.end[0] - log.start[0]) - (log.end[1] - log.start[1]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "batch-tt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
