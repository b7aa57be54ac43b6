"""Smoke tests for the runnable experiment scripts."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from multiwell.cli import main
from multiwell.spectrum import resolve_solver
from multiwell.wells import triple_well

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *argv, timeout=180):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, timeout=timeout)


def test_reproduce_crossing_table():
    proc = run_script("reproduce_crossing_table.py")
    assert proc.returncode == 0
    assert "max_abs_deviation=" in proc.stdout
    assert float(proc.stdout.split("max_abs_deviation=")[1].split()[0]) <= 2e-5


def test_run_relocalization_scan(tmp_path):
    proc = run_script("run_relocalization_scan.py",
                      "--outdir", str(tmp_path),
                      "--grid-step", "0.02", "--steps", "5")
    assert proc.returncode == 0
    manifest = json.loads((tmp_path / "relocalization_manifest.json")
                          .read_text())
    assert len(manifest["results"]) == 5
    assert (tmp_path / "relocalization.csv").exists()


def test_run_relocalization_scan_resolves_the_grid(tmp_path):
    # no --half-width: the library sizes the domain for the alpha = 6
    # outer wells near x = +-10.4
    proc = run_script("run_relocalization_scan.py",
                      "--outdir", str(tmp_path),
                      "--alpha", "6", "--delta-max", "0.006")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "relocalization_manifest.json")
                          .read_text())
    assert manifest["solver"]["half_width"] == 13.0
    assert manifest["crossing"] is not None


def test_make_reference_fine_config():
    # benchmarks/make_reference.py builds its fine grid from the library's
    # default crossing config; import it (without running it) to keep that
    # private import working
    code = ("import json, sys; sys.path.insert(0, 'benchmarks'); "
            "from make_reference import fine_config; "
            "c = fine_config(0, 0, 4.0, 0.0025); "
            "print(json.dumps([c.half_width, c.grid_points, c.num_levels]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    half_width, grid_points, num_levels = json.loads(proc.stdout)
    default = resolve_solver(triple_well(4.0, 0.05), 5)
    assert (half_width, num_levels) == (default.half_width, 5)
    assert 2.0 * half_width / (grid_points - 1) == pytest.approx(0.0025)


def test_benchmark_tracer_binds_every_traced_function():
    # benchmarks/tracing.py wraps functions by their `module.function` names;
    # build its Tracer (without running a benchmark) so that renaming a
    # traced function fails here
    code = ("import json, sys; sys.path.insert(0, 'benchmarks'); "
            "import multiwell.cli; "
            "from tracing import TRACED, Tracer; "
            "print(json.dumps([TRACED, Tracer().bound_names]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced, bound = json.loads(proc.stdout)
    assert traced
    assert [name for name in traced if f"multiwell.{name}" not in bound] == []


def test_make_density_figures(tmp_path):
    proc = run_script("make_density_figures.py",
                      "--outdir", str(tmp_path), "--grid-step", "0.02")
    assert proc.returncode == 0
    for tag in ("below", "at", "above"):
        svg = (tmp_path / f"density_{tag}.svg").read_text()
        assert svg.startswith("<?xml") and "</svg>" in svg


def test_readme_library_tour():
    # the README's first Python block runs against the current API and
    # gives the values its comments state
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    namespace = {}
    exec(tour.split("```", 1)[0], namespace)
    assert [family for family, _ in namespace["families"]] == \
        ["central", "offcentral"]
    assert namespace["e_central"] == pytest.approx(48.0, abs=1e-9)
    assert namespace["cfg"].half_width == 9.5
    assert [lv.label for lv in namespace["levels"][:3]] == \
        ["central-0", "offcentral-0", "offcentral-0"]
    assert namespace["harmonic"].delta == pytest.approx(0.0026042, abs=5e-8)
    assert namespace["numerical"].delta == pytest.approx(0.00260162, abs=5e-9)
    assert len(namespace["table"]) == 12


def test_readme_command_line(tmp_path):
    # every command of the README's "Command line" block exits 0; sweep is
    # left out (it needs a config file), and files are written to tmp_path
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    ran = []
    for line in block.replace("\\\n", " ").splitlines():
        prog, command, *options = shlex.split(line, comments=True)
        assert prog == "multiwell"
        if command == "sweep":
            continue
        if "--output" in options:
            i = options.index("--output") + 1
            options[i] = str(tmp_path / options[i])
            assert not Path(options[i]).exists()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, *options]) == 0, line
        if "--output" in options:
            assert Path(options[i]).stat().st_size > 0
        ran.append(command)
    assert len(ran) >= 5
