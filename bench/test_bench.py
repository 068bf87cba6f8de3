"""Self-test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Every workload runs end to end in both modes and prints every metric of
BENCHMARK.json with its unit; the output checks accept the library's real
outputs and reject deliberately corrupted ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from eigenweight import (  # noqa: E402
    build_grid,
    cli,
    count_comonotone_violations,
    principal_eigenpair,
    weight_field,
)
from workloads import WORKLOADS, make_jobs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(job, directory: Path) -> Path:
    config = job.write_config(directory)
    out = directory / job.name
    assert cli.main([job.command, "--config", str(config), "--out",
                     str(out), "--quiet"]) == 0
    return out


def tiny_jobs(workload: str, directory: Path, seed: int = 5) -> list:
    directory.mkdir(parents=True, exist_ok=True)

    def lambda1_of(job):
        out = run_cli(job, directory)
        return json.loads((out / "eigenpair.json").read_text())["lambda1"]
    return make_jobs(workload, seed, True, lambda1_of)


def rewrite_field(path: Path, values) -> None:
    """Replace a field file's values, keeping its header and row layout."""
    lines = path.read_text().splitlines()
    n1 = len(lines[1].split(","))
    rows = np.asarray(values).reshape(-1, n1)
    path.write_text("\n".join([lines[0]] + [
        ",".join(repr(float(v)) for v in row) for row in rows]) + "\n")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
    assert any(line.startswith("fail_frac") for line in lines)


def test_dense_reference_agrees_with_library():
    grid = build_grid("rectangle", [2.0, 1.0], [12, 6])
    values = np.random.default_rng(1).uniform(-1.5, 1.0, grid.n_cells)
    values[0] = 1.0
    expected = principal_eigenpair(weight_field(grid, values)).lambda1
    got = checks.dense_lambda1(values, (12, 6), (2.0, 1.0))
    assert abs(got - expected) <= 1e-10 * expected


def test_violation_count_agrees_with_library():
    rng = np.random.default_rng(2)
    grid = build_grid("interval", [1.0], [300])
    m = rng.integers(0, 4, 300).astype(float)
    u = np.round(rng.standard_normal(300), 1)  # ties in u
    assert checks.comonotone_violations(m, u) == \
        count_comonotone_violations(m, u, grid)


def test_optimize_check_rejects_shuffled_final_m(tmp_path):
    job, = tiny_jobs("cylinder-optimize", tmp_path)
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, out).ok
    m, _ = checks.read_field(out / "final_m.csv")
    rewrite_field(out / "final_m.csv",
                  np.random.default_rng(0).permutation(m))
    assert not checks.check_job(job, out).ok


@pytest.mark.parametrize("dense_limit", [checks.DENSE_REFERENCE_LIMIT, 0])
def test_solve_check_rejects_perturbed_lambda1(tmp_path, monkeypatch,
                                               dense_limit):
    """Both the dense-reference and the residual path catch 1e-6."""
    monkeypatch.setattr(checks, "DENSE_REFERENCE_LIMIT", dense_limit)
    for job in tiny_jobs("solve-mix", tmp_path):
        out = run_cli(job, tmp_path)
        assert checks.check_job(job, out).ok, job.name
        path = out / "eigenpair.json"
        pair = json.loads(path.read_text())
        pair["lambda1"] *= 1.0 + 1e-6
        path.write_text(json.dumps(pair))
        assert not checks.check_job(job, out).ok, job.name


def test_simulate_check_rejects_wrong_outcome(tmp_path):
    for job in tiny_jobs("logistic-threshold", tmp_path):
        out = run_cli(job, tmp_path)
        assert checks.check_job(job, out).ok, job.name
        path = out / "simulation.json"
        report = json.loads(path.read_text())
        report["outcome"] = "undecided"
        path.write_text(json.dumps(report))
        assert not checks.check_job(job, out).ok, job.name


def test_rearrange_check_rejects_moved_cells(tmp_path):
    job, = tiny_jobs("stripes-rearrange", tmp_path)
    out = run_cli(job, tmp_path)
    assert checks.check_job(job, out).ok
    k1, _ = checks.read_field(out / "oscillating_k1.csv")
    rewrite_field(out / "oscillating_k1.csv", k1[::-1])
    assert not checks.check_job(job, out).ok


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS:
        a = tiny_jobs(workload, tmp_path / "a")
        b = tiny_jobs(workload, tmp_path / "b")
        assert [j.config for j in a] == [j.config for j in b]


def test_reference_scale_is_nominal_over_measured():
    from reference import CHUNK_NOMINAL_S, Reference
    ref = Reference()
    chunks, seconds = ref.run(0.0)
    assert chunks == 1 and seconds > 0.0
    assert ref.scale() == CHUNK_NOMINAL_S / seconds
