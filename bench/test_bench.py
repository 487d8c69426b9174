"""Self-checks of the benchmark.  Run: python -m pytest bench -q

The layer-separation test runs the benchmark itself (about two minutes,
dominated by the B3 subgroup lattice and one B3 `theta` call).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(workload: str, trace: int, size: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--size", str(size)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _metrics(workload: str, trace: int, size: int = 1) -> dict:
    proc = _run(workload, trace, size)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_workloads_separate_layers():
    traced = {name: _metrics(name, 1) for name in workloads.WORKLOADS}
    deep = {name: sum(m[f"maps.grad_points.d{d}"] for d in range(2, 7))
            for name, m in traced.items()}
    assert deep["b3_stack"] > 0
    assert deep["d3_circle"] == deep["box_degree"] == 0

    b3 = _metrics("b3_stack", 0)
    assert traced["b3_stack"]["groups.lattice_s"] > 0.5 * b3["setup_s"]

    # dedupe_points costs about dedupe_in * dedupe_out distance checks.  Box
    # feeds it more points (its 4096 seeds nearly all converge) but keeps a
    # handful, while the D3 circle keeps about 800.
    assert (traced["d3_circle"]["degree.dedupe_out"]
            >= 10 * traced["box_degree"]["degree.dedupe_out"])


def test_box_pool_matches_verify_generator():
    from egdeg import PolynomialPotential
    from egdeg.verify import _random_confined

    for k in range(workloads.BOX_POOL):
        seed = workloads.BOX_STREAM_BASE + k
        ours = workloads.confined_terms(np.random.default_rng(seed), 3)
        theirs = _random_confined(np.random.default_rng(seed), 3)
        assert PolynomialPotential(ours, 3).terms == theirs.terms


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first = wl.generate(3, wl.default_size)
    assert wl.generate(3, wl.default_size) == first
    assert wl.generate(4, wl.default_size) != first
    assert len(first) == wl.default_size


def test_tracer_self_time_and_restore():
    degree = workloads._degree
    original = degree.dedupe_points
    tracer = Tracer()
    pts = np.array([[0.0, 0.0], [0.0, 1e-6], [1.0, 0.0]])
    with tracer.installed():
        assert degree.dedupe_points is not original
        out = degree.dedupe_points(pts, 1e-3)
    assert degree.dedupe_points is original
    assert len(out) == 2
    m = tracer.metrics()
    assert m["degree.dedupe_in"] == 3 and m["degree.dedupe_out"] == 2
    (span,) = tracer.spans
    assert m["degree.self_s"] == pytest.approx(span[2] - span[1])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("d3_circle", 0, 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
