"""Tests of the benchmark itself (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest benchmarks -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import multiwell.cli  # noqa: E402,F401  (binds every module the tracer wraps)
import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from multiwell.crossings import TABLE_PAIRS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path)
    assert wl.generate(5) == wl.generate(5)
    assert wl.generate(5) != wl.generate(6)


def test_workload_names_match_driver_and_benchmark_json():
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOAD_NAMES)


def test_alc_pass_is_a_balanced_design(tmp_path):
    inputs = workloads.AlcNumeric(tmp_path).generate(1)
    assert sorted((q.m, q.n) for q in inputs) == sorted(TABLE_PAIRS)
    for alpha in workloads.ALC_ALPHAS:
        assert sum(q.alpha == alpha for q in inputs) == 3


def test_alc_tolerance_is_recorded_in_benchmark_json():
    why = next(w["why"] for w in BENCHMARK["workloads"] if w["name"] == "alc_numeric")
    stated = re.search(r"<= ([0-9.eE+-]+)", why)
    assert stated and float(stated.group(1)) == workloads.ALC_TOL


def test_reference_covers_menu_and_matches_converged_value():
    ref = workloads.load_reference()
    assert set(ref) == {(a, m, n) for a in workloads.ALC_ALPHAS for m, n in TABLE_PAIRS}
    assert abs(ref[(4.0, 0, 0)] - 2.60162849e-3) <= 1e-9


def test_tail_is_highest_capped_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values, cap=99.9) == (90.0, 90.0)
    assert run.tail(values, cap=75.0) == (75.0, 75.0)
    assert run.tail(values[:15], cap=99.9) == (50.0, 8.0)


def test_speed_factor_uses_the_samples_around_an_op():
    cal = calibration.Calibration(python_share=0.5)
    cal.python_s = [calibration.PYTHON_REF_S * f for f in (1.0, 2.0, 4.0, 8.0)]
    cal.lapack_s = [calibration.LAPACK_REF_S] * 4
    # op between samples 2 and 3: window 1..3 -> python median 4.0
    assert cal.factor(2) == pytest.approx(2.0)
    # op before sample 1: window 0..1 -> python median 1.5
    assert cal.factor(0) == pytest.approx(1.5 ** 0.5)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_wraps_every_binding_and_restores_it():
    import multiwell.crossings as crossings
    original = crossings.solve_numerical
    tracer = tracing.Tracer()
    bound = set(tracer.bound_names)
    for name in ("multiwell.crossings.solve_numerical", "multiwell.cli.solve_numerical",
                 "multiwell.spectrum.critical_points", "multiwell.wells.real_roots",
                 "multiwell.cli.main", "multiwell.solve_crossing"):
        assert name in bound
    with tracer.installed(0):
        assert crossings.solve_numerical is not original
        multiwell.crossings.asym_locus_cubic(0.5, 4.0)
    assert crossings.solve_numerical is original
    summary = tracer.summary(ops=1)
    assert summary["crossings.asym_locus_cubic.calls"] == 1
    assert summary["crossings.solve_crossing.calls"] == 0


def _run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace):
    proc = _run_benchmark(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                          "--ops", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end"] if trace == "0" else BENCHMARK["per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    # Only untraced runs report setup_s, so only they probe fresh setups.
    expected_setups = 1 + (run.SETUP_PROBES if trace == "0" else 0)
    assert len(info["setup_samples_s"]) == expected_setups


def test_setup_time_is_divided_by_its_speed_factor():
    ref = run.SetupSample(1.0, calibration.PYTHON_REF_S, calibration.LAPACK_REF_S)
    assert ref.normalized() == pytest.approx(1.0)
    slow = run.SetupSample(1.0, 4.0 * calibration.PYTHON_REF_S, calibration.LAPACK_REF_S)
    assert slow.normalized(python_share=0.5) == pytest.approx(0.5)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "harmonic_study", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
