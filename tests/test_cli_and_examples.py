"""Smoke tests: the experiment CLI and every example script run."""

import subprocess
import sys
from pathlib import Path


REPO = Path(__file__).resolve().parent.parent


def run_script(*args, timeout=240):
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_script(
            "examples/quickstart.py", "--dataset", "R2B", "--walks", "5000"
        )
        assert proc.returncode == 0, proc.stderr
        assert "speedup" in proc.stdout

    def test_deepwalk_corpus(self):
        proc = run_script(
            "examples/deepwalk_embedding_corpus.py", "--walks-per-vertex", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert "corpus shape" in proc.stdout

    def test_ppr_ranking(self):
        proc = run_script("examples/ppr_ranking.py", "--walks", "3000")
        assert proc.returncode == 0, proc.stderr
        assert "top-10" in proc.stdout

    def test_ssd_exploration(self):
        proc = run_script("examples/ssd_exploration.py")
        assert proc.returncode == 0, proc.stderr
        assert "bandwidth asymmetry" in proc.stdout
        assert "GC runs" in proc.stdout


class TestRunnerCLI:
    def test_tables_via_cli(self):
        proc = run_script("-m", "repro.experiments.runner", "tables")
        assert proc.returncode == 0, proc.stderr
        assert "Table IV" in proc.stdout
        assert "55.80GB/s" in proc.stdout

    def test_unknown_experiment_rejected(self):
        proc = run_script("-m", "repro.experiments.runner", "fig99")
        assert proc.returncode != 0


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_subpackage_exports(self):
        import repro.baselines as baselines
        import repro.cluster as cluster
        import repro.common as c
        import repro.core as core
        import repro.durability as durability
        import repro.experiments as experiments
        import repro.faults as faults
        import repro.flash as flash
        import repro.graph as graph
        import repro.obs as obs
        import repro.parallel as parallel
        import repro.service as service
        import repro.sim as sim
        import repro.walks as walks

        for mod in (c, core, flash, graph, sim, walks, service, cluster, obs,
                    faults, durability, parallel, experiments, baselines):
            for name in mod.__all__:
                assert getattr(mod, name) is not None, f"{mod.__name__}.{name}"
