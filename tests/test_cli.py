"""CLI surface: formats, exit codes, determinism, config handling."""

import csv
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from multiwell import cli, spectrum
from multiwell.cli import main
from multiwell.crossings import AlcQuery, relocalization_scan, solve_crossing
from multiwell.spectrum import SolverConfig
from multiwell.wells import triple_well

EXIT_OK, EXIT_NUMERIC, EXIT_USAGE = 0, 2, 64
DATA = Path(__file__).parent / "data"
REFERENCE_DELTAS = (Path(__file__).parent.parent / "benchmarks"
                    / "reference_deltas.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_compare_table(self, capsys):
        code, out, err = run_cli(capsys, "table1", "--alpha", "4", "--compare")
        assert code == EXIT_OK
        assert "max_abs_deviation=" in out
        # no wall time: stdout repeats byte for byte
        assert "solved" not in out and err == ""
        max_dev = float(out.split("max_abs_deviation=")[1].split()[0])
        assert max_dev <= 2e-5
        assert "pairing gaps" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--alpha", "4",
                               "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) == 12
        assert set(payload[0].keys()) == {"m", "n", "delta", "residual"}
        deltas = [row["delta"] for row in payload]
        assert deltas == sorted(deltas)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--alpha", "4",
                               "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "m,n,delta,residual"
        assert len(lines) == 13

    def test_negative_alpha_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--alpha", "-1")
        assert code == EXIT_USAGE
        assert "alpha" in err

    @pytest.mark.parametrize("command, alpha", [
        ("table1", "nan"), ("table1", "inf"), ("locus", "nan"),
        ("spectrum", "nan")])
    def test_alpha_not_finite_usage_error(self, capsys, command, alpha):
        code, _, err = run_cli(capsys, command, "--alpha", alpha)
        assert code == EXIT_USAGE
        assert "alpha must be finite and positive" in err

    def test_compare_requires_alpha_four(self, capsys):
        code, _, err = run_cli(capsys, "table1", "--alpha", "3", "--compare")
        assert code == EXIT_USAGE

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--format", "csv",
                               "--output", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("m,n,delta,residual")


class TestSpectrum:
    def test_harmonic_reference(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "4",
                               "--mu2", "2", "--backend", "harmonic",
                               "--levels", "2", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        energies = {(r["family"], r["index"]): r["energy"]
                    for r in payload["levels"]}
        assert energies[("central", 0)] == pytest.approx(48.0, abs=1e-6)
        assert energies[("central", 1)] == pytest.approx(144.0, abs=1e-6)
        assert energies[("offcentral", 0)] == pytest.approx(96.0, abs=1e-6)
        assert energies[("offcentral", 1)] == pytest.approx(288.0, abs=1e-6)
        assert payload["spring_central"] == pytest.approx(48.0, abs=1e-9)

    def test_numerical_with_compare(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--potential", "1,0,-96,0,2304,0,0",
            "--backend", "numerical", "--levels", "4", "--compare",
            "--grid-step", "0.01", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "label,family,index,energy,w_central,w_outer," \
                           "energy_harmonic,diff"
        assert len(lines) == 5
        energies = [float(line.split(",")[3]) for line in lines[1:]]
        assert energies == sorted(energies)
        assert lines[1].startswith("central-0,")

    def test_conflicting_sources(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--alpha", "4",
                               "--shape", "16,48")
        assert code == EXIT_USAGE
        assert "exactly one" in err

    def test_missing_source(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum")
        assert code == EXIT_USAGE

    def test_shape_source(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--shape", "16,48",
                               "--levels", "1", "--format", "csv")
        assert code == EXIT_OK
        assert "central,0,4.8" in out

    def test_wellless_potential_needs_half_width(self, capsys):
        # linear potential: no wells to size the domain from
        code, _, err = run_cli(capsys, "spectrum", "--potential", "5,0",
                               "--backend", "numerical")
        assert code == EXIT_USAGE
        assert "half-width" in err

    def test_well_left_of_the_origin_sizes_the_grid(self, capsys):
        # x^4 + 2x has its only well near x = -0.79; E0 is the value of an
        # explicit --half-width 4 run
        code, out, _ = run_cli(capsys, "spectrum", "--potential", "1,0,0,2,0",
                               "--backend", "numerical", "--format", "json")
        assert code == EXIT_OK
        e0 = json.loads(out)["levels"][0]["energy"]
        assert e0 == pytest.approx(0.5621309600, abs=1e-6)

    def test_harmonic_lone_well_left_of_the_origin(self, capsys):
        # x^4 + 2x: the well near x = -0.79, with V = -1.19 and
        # sqrt(V''/2) = sqrt(6) * 0.79 there, is the only one
        code, out, _ = run_cli(capsys, "spectrum", "--potential", "1,0,0,2,0",
                               "--backend", "harmonic", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        x = -(0.5 ** (1.0 / 3.0))
        assert doc["spring_offcentral"] == [pytest.approx(math.sqrt(6.0) * -x)]
        assert doc["levels"][0] == {
            "family": "offcentral", "index": 0,
            "energy": pytest.approx(x ** 4 + 2.0 * x + math.sqrt(6.0) * -x)}

    def test_harmonic_lists_the_deeper_left_well(self, capsys):
        # x^4 - 8x^2 + 0.5x: the well near x = -2.02 is deeper than the one
        # near x = 1.98 and holds the numerical ground state, E0 = -13.088
        code, out, _ = run_cli(capsys, "spectrum", "--potential", "1,0,-8,0.5,0",
                               "--backend", "harmonic", "--format", "json")
        assert code == EXIT_OK
        grounds = {lv["family"]: lv["energy"] for lv in json.loads(out)["levels"]
                   if lv["index"] == 0}
        assert sorted(grounds) == ["offcentral0", "offcentral1"]
        assert grounds["offcentral0"] < grounds["offcentral1"]
        assert grounds["offcentral0"] == pytest.approx(-13.088, abs=0.2)

    @staticmethod
    def _compared(capsys, *source):
        code, out, _ = run_cli(capsys, "spectrum", *source, "--backend",
                               "numerical", "--levels", "6", "--compare",
                               "--format", "json")
        assert code == EXIT_OK
        return json.loads(out)["levels"]

    def test_compare_names_asymmetric_wells_like_the_harmonic_backend(
            self, capsys):
        # x^4 - 8x^2 + 0.5x: the origin is no well; the deeper x = -2.02
        # well is offcentral0 on both backends
        levels = self._compared(capsys, "--potential", "1,0,-8,0.5,0")
        assert [lv["label"] for lv in levels] == [
            "offcentral0-0", "offcentral1-0", "offcentral0-1",
            "offcentral1-1", "offcentral0-2", "offcentral1-2"]
        assert all(lv["w_central"] == 0.0 for lv in levels)
        assert all(math.isfinite(lv["energy_harmonic"]) for lv in levels)
        assert levels[0]["diff"] == pytest.approx(-0.130, abs=1e-3)

    def test_compare_matches_each_well_of_a_tilted_sextic(self, capsys):
        # x^6 + 0.01x^5 - 96x^4 + 2304x^2: the ground state sits in the
        # deeper left well and is compared with that well, not the right one
        levels = self._compared(capsys, "--potential", "1,0.01,-96,0,2304,0,0")
        assert [lv["label"] for lv in levels] == [
            "offcentral0-0", "central-0", "offcentral0-1", "central-1",
            "central-2", "offcentral1-0"]
        assert levels[0]["diff"] == pytest.approx(-0.09, abs=0.01)
        assert all(abs(lv["diff"]) < 1.0 for lv in levels)

    def test_compare_separates_the_doublets_of_an_n3_shape(self, capsys):
        # the maximally degenerate N = 3 shape: the outer and the inner
        # ground doublets lie 25 apart and belong to different families
        levels = self._compared(capsys, "--shape", "16,53.796,91.598")
        assert [lv["label"] for lv in levels[:4]] == \
            ["offcentral1-0"] * 2 + ["offcentral0-0"] * 2
        assert levels[2]["diff"] == pytest.approx(-0.61, abs=0.01)

    def test_compare_lone_left_well_is_offcentral(self, capsys):
        # x^4 + 2x: the harmonic backend calls its one well offcentral
        levels = self._compared(capsys, "--potential", "1,0,0,2,0")
        assert [lv["label"] for lv in levels] == \
            [f"offcentral-{i}" for i in range(6)]
        code, out, _ = run_cli(capsys, "spectrum", "--potential", "1,0,0,2,0",
                               "--backend", "harmonic", "--format", "json")
        harmonic = {(lv["family"], lv["index"]): lv["energy"]
                    for lv in json.loads(out)["levels"]}
        assert levels[0]["energy_harmonic"] == harmonic[("offcentral", 0)]

    def test_numerical_json_carries_error_estimates(self, capsys):
        args = ("spectrum", "--alpha", "4", "--delta", "0",
                "--backend", "numerical", "--levels", "3")
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == EXIT_OK
        levels = json.loads(out)["levels"]
        # grid energies sit below the continuum ones by O(h^2)
        assert all(0.0 < lv["error_estimate"] < 1e-3 * abs(lv["energy"])
                   for lv in levels)
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert out.splitlines()[0] == \
            "label,family,index,energy,w_central,w_outer"

    def test_grid_short_of_the_outer_wells_exits_2(self, capsys):
        # the outer minima sit at x = +-sqrt(48) = +-6.9282, off the grid
        # [-2, 2], so no level can be labelled by well
        code, out, err = run_cli(capsys, "spectrum", "--alpha", "4",
                                 "--delta", "0", "--backend", "numerical",
                                 "--levels", "3", "--half-width", "2")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "6.9282" in err and "window=2 too small" in err

    @pytest.mark.parametrize("routine", ["dstebz", "dstein"])
    def test_eigensolver_failure_exits_2(self, capsys, fail_lapack, routine):
        # seven levels of a tilted quartic, one block whose rungs refuse
        # it, so it takes full-precision stebz/stein
        fail_lapack(routine)
        code, out, err = run_cli(capsys, "spectrum", "--potential",
                                 "1,0,-8,0.5,0", "--backend", "numerical",
                                 "--levels", "7")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err.startswith("error: tridiagonal eigensolver failed: "
                              f"{routine} info=1 (grid_points=")

    def test_numeric_failure_exit_code(self, capsys):
        # degenerate quartic: harmonic backend has no non-degenerate wells
        code, _, err = run_cli(capsys, "spectrum", "--potential", "1,0,0,0,0",
                               "--backend", "harmonic")
        assert code == EXIT_NUMERIC
        assert "degenerate" in err


class TestDensity:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "density", "--alpha", "4",
                               "--delta", "0", "--level", "0",
                               "--half-width", "9", "--grid-step", "0.02",
                               "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,rho"
        rows = [line.split(",") for line in lines[1:]]
        xs = [float(r[0]) for r in rows]
        rho = [float(r[1]) for r in rows]
        assert xs[0] == -9.0 and xs[-1] == 9.0
        h = xs[1] - xs[0]
        assert sum(rho) * h == pytest.approx(1.0, abs=1e-8)

    def test_svg_output(self, capsys, tmp_path):
        target = tmp_path / "density.svg"
        code, _, _ = run_cli(capsys, "density", "--alpha", "4",
                             "--delta", "0.005", "--level", "0",
                             "--half-width", "9", "--grid-step", "0.02",
                             "--output", str(target))
        assert code == EXIT_OK
        svg = target.read_text()
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        assert svg.count("w=") >= 3  # one weight annotation per region
        assert "</svg>" in svg

    def test_outer_doublet_even_member_first(self, capsys):
        # at delta = 0.003 the outer doublet is split far below machine
        # precision; its even member must still come first and the odd
        # one vanish at x = 0 exactly
        code, out, _ = run_cli(capsys, "spectrum", "--alpha", "4",
                               "--delta", "0.003", "--backend", "numerical",
                               "--format", "json")
        assert code == EXIT_OK
        labels = [lv["label"] for lv in json.loads(out)["levels"]]
        doublet = [i for i, label in enumerate(labels)
                   if label == "offcentral-0"]
        assert len(doublet) == 2
        rho0 = []
        for level in doublet:
            code, out, _ = run_cli(capsys, "density", "--alpha", "4",
                                   "--delta", "0.003", "--level", str(level),
                                   "--format", "csv")
            assert code == EXIT_OK
            rows = [line.split(",") for line in out.splitlines()[1:]]
            rho0 += [float(r[1]) for r in rows if float(r[0]) == 0.0]
        assert rho0[0] > 0.0 and rho0[1] == 0.0


class TestLocus:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "locus", "--alpha", "4",
                               "--eps-min", "0", "--eps-max", "0.1",
                               "--steps", "11", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,delta_lin,delta_cubic,gap"
        first = lines[1].split(",")
        assert [float(v) for v in first] == [0.0, 0.0, 0.0, 0.0]
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.1)
        assert float(last[1]) == pytest.approx(-1.8042e-3, abs=1e-7)
        gaps = [float(line.split(",")[3]) for line in lines[2:]]
        assert gaps == sorted(gaps)  # gap shrinks towards eps -> 0

    def test_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "locus", "--alpha", "4",
                             "--eps-min", "1", "--eps-max", "0")
        assert code == EXIT_USAGE


class TestSweep:
    def write_config(self, tmp_path, text, name="scan.conf"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_relocalization_sweep(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "\n".join([
            "# relocalization scan",
            "kind = relocalization",
            "alpha = 4",
            "delta_min = 0.0",
            "delta_max = 0.005",
            "steps = 11",
            "half_width = 9.0",
            "grid_step = 0.02",
        ]))
        outdir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "sweep", "--config", config,
                               "--outdir", str(outdir))
        assert code == EXIT_OK
        csv_text = (outdir / "relocalization.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "delta,E0,w_central,w_outer,label"
        assert len(lines) == 12
        manifest = json.loads((outdir / "relocalization_manifest.json")
                              .read_text())
        assert manifest["command"] == "sweep"
        assert len(manifest["results"]) == 11
        assert manifest["tool_version"]
        assert "started" in manifest
        assert 0.001 <= manifest["crossing"] <= 0.005
        assert manifest["solver"] == {"half_width": 9.0, "grid_points": 901,
                                      "num_levels": 1, "lam": 1.0}
        # the bracket is the pair of CSV rows that straddle w_central = 0.5
        rows = [line.split(",") for line in lines[1:]]
        lo, hi = manifest["crossing_bracket"]
        i = [float(r[0]) for r in rows].index(lo)
        assert float(rows[i + 1][0]) == hi
        assert float(rows[i][2]) > 0.5 >= float(rows[i + 1][2])
        assert lo < manifest["crossing"] <= hi

    @pytest.mark.parametrize("kind", ["relocalization", "alc"])
    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_bad_alpha_usage_error(self, capsys, tmp_path, kind, alpha):
        keys = {"relocalization": ["delta_min = 0.0", "delta_max = 0.005",
                                   "steps = 5"],
                "alc": ["pairs = 0:0"]}[kind]
        config = self.write_config(tmp_path, "\n".join(
            [f"kind = {kind}", f"alpha = {alpha}"] + keys))
        code, _, err = run_cli(capsys, "sweep", "--config", config,
                               "--outdir", str(tmp_path / "out"))
        assert code == EXIT_USAGE
        assert "alpha must be finite and positive" in err

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "\n".join([
            "kind = relocalization", "alpha = 4", "delta_min = 0.0",
            "delta_max = 0.004", "steps = 5", "half_width = 9.0",
            "grid_step = 0.02",
        ]))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "sweep", "--config", config,
                       "--outdir", str(out_a))[0] == EXIT_OK
        assert run_cli(capsys, "sweep", "--config", config,
                       "--outdir", str(out_b))[0] == EXIT_OK
        assert (out_a / "relocalization.csv").read_bytes() == \
            (out_b / "relocalization.csv").read_bytes()
        m_a = json.loads((out_a / "relocalization_manifest.json").read_text())
        m_b = json.loads((out_b / "relocalization_manifest.json").read_text())
        m_a.pop("started")
        m_b.pop("started")
        assert m_a == m_b

    def test_alc_sweep(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "\n".join([
            "kind = alc", "alpha = 4", "pairs = 0:0,1:2",
        ]))
        outdir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", config,
                             "--outdir", str(outdir))
        assert code == EXIT_OK
        lines = (outdir / "alc.csv").read_text().strip().splitlines()
        assert lines[0] == "m,n,delta,residual"
        assert len(lines) == 3
        assert float(lines[1].split(",")[2]) == pytest.approx(0.0026042,
                                                              abs=1e-5)
        manifest = json.loads((outdir / "alc_manifest.json").read_text())
        # the manifest rounds delta to the CSV's 11 significant digits
        got = [(r["delta"], r["evaluations"], r["harmonic_delta"],
                r["newton_step"]) for r in manifest["results"]]
        expected = [solve_crossing(AlcQuery(m, n, 4.0)) for m, n in [(0, 0), (1, 2)]]
        # on the harmonic backend the harmonic delta is the solution itself,
        # and no Newton step is taken
        assert got == [(float(f"{s.delta:.10e}"), s.evaluations,
                        float(f"{s.delta:.10e}"), None) for s in expected]

    def test_numerical_alc_sweep_records_the_newton_step(self, capsys,
                                                         tmp_path):
        config = self.write_config(tmp_path, "\n".join([
            "kind = alc", "alpha = 4", "pairs = 0:0", "backend = numerical",
        ]))
        outdir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", config,
                             "--outdir", str(outdir))
        assert code == EXIT_OK
        lines = (outdir / "alc.csv").read_text().strip().splitlines()
        assert lines[0] == "m,n,delta,residual"
        (record,) = json.loads(
            (outdir / "alc_manifest.json").read_text())["results"]
        sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert record["evaluations"] == sol.evaluations == 1
        assert record["newton_step"] == float(f"{sol.newton_step:.10e}")

    def test_tilt_sweep_smooth_contrast(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "\n".join([
            "kind = tilt", "s1 = 2.0", "tilt_min = -0.3", "tilt_max = 0.3",
            "steps = 7", "half_width = 6.0", "grid_step = 0.02",
        ]))
        outdir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", config,
                             "--outdir", str(outdir))
        assert code == EXIT_OK
        lines = (outdir / "tilt.csv").read_text().strip().splitlines()
        assert lines[0] == "tilt,E0,w_left,w_right"
        weights = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(abs(b - a) for a, b in zip(weights, weights[1:])) < 0.3
        manifest = json.loads((outdir / "tilt_manifest.json").read_text())
        assert manifest["crossing"] is None
        assert manifest["solver"] == {"half_width": 6.0, "grid_points": 601,
                                      "num_levels": 1, "lam": 1.0}

    def test_relocalization_default_grid_holds_the_outer_wells(self, capsys,
                                                              tmp_path):
        # at alpha = 6 the outer minima sit near x = +-10.4, outside the
        # fixed half-width 9 an earlier default used (the sweep exited 2)
        config = self.write_config(tmp_path, "\n".join([
            "kind = relocalization", "alpha = 6", "delta_min = 0.0",
            "delta_max = 0.006", "steps = 21", "levels = 3",
        ]))
        outdir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "sweep", "--config", config,
                             "--outdir", str(outdir))
        assert code == EXIT_OK
        manifest = json.loads((outdir / "relocalization_manifest.json")
                              .read_text())
        assert manifest["solver"]["half_width"] == 13.0
        ref = next(e["delta_ref"] for e in
                   json.loads(REFERENCE_DELTAS.read_text())["entries"]
                   if (e["alpha"], e["m"], e["n"]) == (6.0, 0, 0))
        assert abs(manifest["crossing"] - ref) <= 0.006 / 20

    def test_tilt_default_grid_holds_the_wells(self, capsys, tmp_path):
        # the minima of x^4 - 100 x^2 sit at +-7.07; an earlier fixed
        # half-width of 6 cut them off and gave E0 = -2186.53
        def ground_energies(*extra):
            config = self.write_config(tmp_path, "\n".join([
                "kind = tilt", "s1 = 50", "tilt_min = -0.3", "tilt_max = 0.3",
                "steps = 3", *extra]))
            outdir = tmp_path / f"out{len(extra)}"
            assert run_cli(capsys, "sweep", "--config", config,
                           "--outdir", str(outdir))[0] == EXIT_OK
            manifest = json.loads((outdir / "tilt_manifest.json").read_text())
            return [r["E0"] for r in manifest["results"]]

        default, wide = ground_energies(), ground_energies("half_width = 11")
        assert default == pytest.approx(wide, rel=1e-6)
        assert default[0] == pytest.approx(-2487.99, abs=0.01)

    def test_malformed_config_line_diagnostics(self, capsys, tmp_path):
        config = self.write_config(tmp_path,
                                   "kind = relocalization\nbogus line\n")
        code, _, err = run_cli(capsys, "sweep", "--config", config)
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_missing_required_key(self, capsys, tmp_path):
        config = self.write_config(tmp_path, "kind = relocalization\n")
        code, _, err = run_cli(capsys, "sweep", "--config", config)
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_jobs_other_than_one_exits_64(self, capsys, tmp_path):
        # sweeps run in one process; --jobs keeps 1 for the benchmark harness
        config = self.write_config(tmp_path, "\n".join([
            "kind = relocalization", "alpha = 4", "delta_min = 0.0",
            "delta_max = 0.005", "steps = 5"]))
        code, out, err = run_cli(capsys, "sweep", "--config", config,
                                 "--outdir", str(tmp_path / "out"),
                                 "--jobs", "2")
        assert (code, out) == (EXIT_USAGE, "")
        assert "--jobs: invalid choice: 2" in err
        assert not (tmp_path / "out").exists()

    def test_numeric_failure_exit(self, capsys, tmp_path):
        # bracket excludes every crossing -> solver failure -> exit 2
        config = self.write_config(tmp_path, "\n".join([
            "kind = alc", "alpha = 4", "pairs = 0:0",
            "bracket_lo = 0.03", "bracket_hi = 0.05",
        ]))
        code, _, err = run_cli(capsys, "sweep", "--config", config,
                               "--outdir", str(tmp_path / "out"))
        assert code == EXIT_NUMERIC
        assert "no crossing" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multiwell", "table1", "--alpha", "4",
             "--format", "json"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)) == 12

    def test_unknown_command_exits_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "multiwell", "frobnicate"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_USAGE

    def test_main_keeps_one_parser(self, capsys):
        # main builds its parser once per process; a call leaves nothing
        # behind for the next: help, version and usage errors come out as
        # from a fresh build_parser(), and defaults stay defaults
        assert cli._parser() is cli._parser()

        def fresh(*argv):
            with pytest.raises(SystemExit) as exit_:
                cli.build_parser().parse_args(list(argv))
            captured = capsys.readouterr()
            return exit_.value.code or EXIT_OK, captured.out, captured.err
        for argv in (["--help"], ["sweep", "--help"], ["--version"],
                     ["locus", "--steps", "3"], ["frobnicate"]):
            assert run_cli(capsys, *argv) == fresh(*argv)
        code, out, _ = run_cli(capsys, "locus", "--alpha", "4", "--steps",
                               "3", "--format", "csv")
        assert code == EXIT_OK and out.startswith("epsilon,")
        code, out, _ = run_cli(capsys, "locus", "--alpha", "4", "--steps",
                               "3")
        assert code == EXIT_OK and not out.startswith("epsilon,")


# Reference CSVs written by an earlier version of the CLI.  None of these
# commands calls LAPACK, so their bytes do not depend on the machine; a
# refactor that moves a printed digit shows up here.
@pytest.mark.parametrize("name, argv", [
    ("table1.csv", ["table1", "--format", "csv"]),
    ("locus_alpha4.csv", ["locus", "--alpha", "4", "--format", "csv"]),
    ("locus_alpha4_wide.csv", ["locus", "--alpha", "4", "--eps-min", "-60",
                               "--eps-max", "60", "--steps", "41",
                               "--format", "csv"]),
    ("spectrum_alpha4_delta-0.0001_harmonic.csv",
     ["spectrum", "--alpha", "4", "--delta", "-0.0001",
      "--backend", "harmonic", "--format", "csv"]),
    ("spectrum_shape_16_48_96_harmonic.csv",
     ["spectrum", "--shape", "16,48,96", "--backend", "harmonic",
      "--format", "csv", "--levels", "4"]),
    ("spectrum_quartic_tilt_0.5_harmonic.csv",
     ["spectrum", "--potential", "1,0,-8,0.5,0", "--backend", "harmonic",
      "--format", "csv", "--levels", "4"]),
    ("table1_alpha3.5.csv", ["table1", "--alpha", "3.5", "--format", "csv"]),
    ("table1_alpha7.25.csv",
     ["table1", "--alpha", "7.25", "--format", "csv"]),
    # a sweep writes <name>.csv into --outdir, name set by its config
    ("sweep_alc_alpha4.csv",
     ["sweep", "--config", "{data}/sweep_alc_alpha4.conf", "--outdir", "{tmp}"]),
])
def test_golden_csv_bytes(capsys, tmp_path, name, argv):
    code, out, _ = run_cli(capsys, *(arg.format(data=DATA, tmp=tmp_path)
                                     for arg in argv))
    assert code == EXIT_OK
    if argv[0] == "sweep":
        out = (tmp_path / name).read_text(encoding="utf-8")
    assert out.encode("utf-8") == (DATA / name).read_bytes()


# Reference CSVs of sweeps that solve numerically, on the grid the resolver
# sizes.  The solver block comes from closed forms and Sturm isolation, and
# the lattice and the labels do not depend on the last bits of a level, so
# they are pinned exactly; E0 and the weights come from LAPACK, whose last
# bits vary by machine, and are pinned to 1e-9 relative, with no absolute
# floor: a weight of 1e-100 would be checked as closely as one of 0.5, and
# one below its angle bound prints as exactly 0.
@pytest.mark.parametrize("name, exact, solver", [
    ("sweep_relocalization_alpha4", {"delta", "label"},
     {"half_width": 9.5, "grid_points": 3801, "num_levels": 2, "lam": 1.0}),
    ("sweep_tilt_s1_8", {"tilt"},
     {"half_width": 5.5, "grid_points": 2201, "num_levels": 1, "lam": 1.0}),
])
def test_golden_sweep_columns(capsys, tmp_path, name, exact, solver):
    code, _, _ = run_cli(capsys, "sweep", "--config", str(DATA / f"{name}.conf"),
                         "--outdir", str(tmp_path))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert manifest["solver"] == solver
    got, want = ((path / f"{name}.csv").read_text().splitlines()
                 for path in (tmp_path, DATA))
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(csv.DictReader(got), csv.DictReader(want)):
        for column, value in ref.items():
            if column in exact:
                assert row[column] == value
            else:
                assert float(row[column]) == pytest.approx(
                    float(value), rel=1e-9, abs=0.0)


def _canon(obj):
    """obj with each float rounded through %.10e, the manifest's floats."""
    if isinstance(obj, float):
        return float(format(obj + 0.0, ".10e"))
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


_NO_CROSSING = ("kind = relocalization\nalpha = 4\ndelta_min = 0.0\n"
                "delta_max = 0.001\nsteps = 3\nhalf_width = 9.0\n"
                "grid_step = 0.02\n")


@pytest.mark.parametrize("config", [
    "sweep_alc_alpha4.conf", "sweep_relocalization_alpha4.conf",
    "sweep_tilt_s1_8.conf", _NO_CROSSING])
def test_manifest_bytes_equal_json_dumps(capsys, tmp_path, monkeypatch,
                                         config):
    # the manifest writer gives the bytes of json.dumps(indent=2) on the
    # rounded floats, for the three golden sweeps and a scan without a
    # crossing (null), and for the values no sweep writes
    if config == _NO_CROSSING:
        (tmp_path / "scan.conf").write_text(config)
        config = tmp_path / "scan.conf"
    else:
        config = DATA / config
    dumped, dump = [], cli._dump_json

    def spy(obj):
        dumped.append(obj)
        return dump(obj)
    monkeypatch.setattr(cli, "_dump_json", spy)
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config),
                           "--outdir", str(tmp_path / "out"))
    assert code == EXIT_OK and len(dumped) == 1
    if config == tmp_path / "scan.conf":
        assert dumped[0]["crossing"] is None and "no crossing" in out
    odd = {"nan": math.nan, "inf": [math.inf, -math.inf, -0.0, 1e-320],
           "text": "µ \"quoted\"\n\t\\", "empty": [{}, [], ()],
           "flags": (True, False, None, 0, -7, 2 ** 70)}
    for obj in (dumped[0], odd):
        assert cli._dump_json(obj) == json.dumps(_canon(obj), indent=2) + "\n"
    manifest = (tmp_path / "out" / next(
        p.name for p in (tmp_path / "out").iterdir()
        if p.name.endswith("_manifest.json"))).read_text()
    assert manifest == json.dumps(_canon(dumped[0]), indent=2) + "\n"
    with pytest.raises(TypeError):
        cli._dump_json({1: 2.0})


@pytest.mark.parametrize("name, value", [("_GUESS_MARGIN", 0.02),
                                         ("_POLISH", 3)])
def test_relocalization_weights_do_not_record_iteration_history(
        capsys, tmp_path, monkeypatch, name, value):
    # a weight below its resolution prints as 0, so another first shift of
    # _ground, or one inverse iteration more, leaves every weight cell of
    # the relocalization golden byte for byte, and E0 within twice stebz's
    # tolerance on the even block; without the rule, one more iteration
    # moves the delta = 0 cell of w_outer from 9.2e-111 to 5.7e-136
    cfg = SolverConfig(9.5, 3801, 2)
    before = relocalization_scan(4.0, (0.0, 0.005), 11, cfg).rows
    monkeypatch.setattr(spectrum, name, value)
    after = relocalization_scan(4.0, (0.0, 0.005), 11, cfg).rows
    x, c, off = cfg.grid(), (cfg.grid_points - 1) // 2, -1.0 / cfg.step ** 2
    for a, b in zip(before, after, strict=True):
        diag = triple_well(4.0, a.delta)(x[c:-1]) - 2.0 * off
        tol = spectrum._tolerance(
            diag, spectrum._off_diagonal(c - 1, off, math.sqrt(2.0)))
        assert abs(a.e0 - b.e0) <= 2.0 * tol
    code, _, _ = run_cli(capsys, "sweep", "--config",
                         str(DATA / "sweep_relocalization_alpha4.conf"),
                         "--outdir", str(tmp_path))
    assert code == EXIT_OK
    golden = "sweep_relocalization_alpha4.csv"
    got, want = ([line.split(",")[2:4] for line in
                  (path / golden).read_text().splitlines()]
                 for path in (tmp_path, DATA))
    assert got == want


# Bad input exits 64 whichever layer rejects it: the library raises
# ParameterError for its own arguments, and the CLI maps that one type.
_RELOC = "kind = relocalization\nalpha = 4\ndelta_max = 0.005\n"
_ALC = "kind = alc\nalpha = 4\npairs = 0:0\n"
_TILT = "kind = tilt\ns1 = 2\ntilt_min = -0.3\ntilt_max = 0.3\nsteps = 3\n"


@pytest.mark.parametrize("argv, config, named", [
    pytest.param(["spectrum", "--alpha", "4", "--backend", "numerical",
                  "--half-width", "-1"], None, "got -1.0", id="half-width"),
    pytest.param(["spectrum", "--alpha", "4", "--delta", "nan"], None,
                 "(16.0, nan)", id="delta-nan"),
    pytest.param(["spectrum", "--potential", "1,nan,0"], None,
                 "got [0.0, nan, 1.0]", id="potential-nan"),
    pytest.param(["spectrum", "--alpha", "4", "--backend", "numerical",
                  "--grid-step", "-0.01"], None,
                 "step must be positive and finite, got -0.01", id="grid-step"),
    pytest.param(["spectrum", "--alpha", "4", "--backend", "numerical",
                  "--lambda", "0"], None,
                 "lam must be positive and finite, got 0.0",
                 id="lambda-numerical"),
    pytest.param(["spectrum", "--alpha", "4", "--lambda", "-1"], None,
                 "lam must be positive and finite, got -1.0",
                 id="lambda-harmonic"),
    pytest.param(["spectrum", "--alpha", "4", "--lambda", "inf"], None,
                 "lam must be positive and finite, got inf",
                 id="lambda-infinite"),
    pytest.param(["locus", "--alpha", "4", "--eps-max", "70"], None,
                 "epsilon=70", id="locus-epsilon"),
    pytest.param(["spectrum", "--alpha", "4", "--backend", "numerical",
                  "--half-width", "1e300"], None,
                 "half_width=1e+300 at step=0.005 needs 4e+302 grid points",
                 id="half-width-unsizable"),
    pytest.param(["table1", "--alpha", "1e60"], None,
                 "alpha=1e+60 is too large", id="table1-alpha-overflow"),
    pytest.param(["locus", "--alpha", "1e200"], None,
                 "alpha=1e+200 is too large", id="locus-alpha-overflow"),
    pytest.param(None, _ALC + "bracket_hi = 1e300\n",
                 "alpha=4.0 is too large", id="sweep-bracket-overflow"),
    pytest.param(None, _TILT.replace("s1 = 2", "s1 = nan"), "nan",
                 id="sweep-s1"),
    pytest.param(None, _RELOC + "delta_min = nan\nsteps = 5\n",
                 "got (nan, 0.005)", id="sweep-delta-min"),
    pytest.param(None, _RELOC + "delta_min = 0\nsteps = 2\n",
                 "steps must be at least 3, got 2", id="sweep-steps"),
    pytest.param(None, _RELOC + "delta_min = -2\nsteps = 5\n",
                 "well maps at delta = -2 and 0.005 differ",
                 id="sweep-delta-min-degenerate"),
    pytest.param(None, _ALC + "backend = numerical\nbracket_lo = -1.9999999\n",
                 "well maps at delta = -2 and 0.05 differ",
                 id="sweep-bracket-near-minus-two"),
    pytest.param(None, _ALC + "backend = numeric\n",
                 "unknown backend 'numeric'", id="sweep-backend"),
    pytest.param(None, _ALC + "bracket_lo = 0.05\nbracket_hi = -0.05\n",
                 "got (0.05, -0.05)", id="sweep-bracket"),
    pytest.param(None, _ALC + "bracket_lo = -3\n",
                 "bracket must lie above delta = -2", id="sweep-bracket-lo"),
    pytest.param(None, _RELOC + "delta_min = 0\nsteps = 5\ngrid_stpe = 0.5\n",
                 "'grid_stpe'", id="sweep-key-typo"),
    # sweeps run in one process: jobs is a config key of no sweep kind
    pytest.param(None, _RELOC + "delta_min = 0\nsteps = 5\njobs = 2\n",
                 "unknown config key for sweep kind 'relocalization': 'jobs'",
                 id="sweep-jobs-key-relocalization"),
    pytest.param(None, _ALC + "jobs = 1\n",
                 "unknown config key for sweep kind 'alc': 'jobs'",
                 id="sweep-jobs-key-alc"),
    pytest.param(None, _TILT + "jobs = 1\n",
                 "unknown config key for sweep kind 'tilt': 'jobs'",
                 id="sweep-jobs-key-tilt"),
    pytest.param(["table1", "--output", "{tmp}/missing/table.txt"], None,
                 "cannot write", id="table1-output-directory-missing"),
    # the last --outdir wins: the config file itself, an existing file
    pytest.param(["--outdir", "{tmp}/bad.conf"], _ALC, "cannot write",
                 id="sweep-outdir-is-a-file"),
    # a sweep name must be one file name: a path would write outside outdir
    pytest.param(None, _ALC + "name = ../escaped\n", "'../escaped'",
                 id="sweep-name-parent"),
    pytest.param(None, _ALC + "name = sub/escaped\n", "'sub/escaped'",
                 id="sweep-name-separator"),
    pytest.param(None, _ALC + "name = ..\n", "'..'", id="sweep-name-dotdot"),
    pytest.param(None, _ALC + "name = a\0b\n", "'a\\x00b'",
                 id="sweep-name-nul"),
    pytest.param(["spectrum", "--potential", "1,x,0"], None,
                 "could not parse --potential", id="potential-unparsable"),
    pytest.param(["spectrum", "--potential", "5"], None,
                 "--potential needs at least two coefficients",
                 id="potential-constant"),
    pytest.param(["spectrum", "--alpha", "4", "--mu2", "2", "--delta", "0"],
                 None, "give --mu2 or --delta, not both", id="mu2-and-delta"),
    pytest.param(["spectrum", "--alpha", "4", "--mu2", "-1"], None,
                 "mu^2 must be positive", id="mu2-negative"),
    # -x^2 has no minimum, so no harmonic well
    pytest.param(["spectrum", "--potential=-1,0,0"], None,
                 "no harmonic wells found", id="potential-no-wells"),
    pytest.param(["spectrum", "--alpha", "4", "--levels", "0"], None,
                 "--levels must be at least 1", id="spectrum-levels"),
    pytest.param(["density", "--alpha", "4", "--level", "-1"], None,
                 "--level must be non-negative", id="density-level"),
    pytest.param(["locus", "--alpha", "4", "--steps", "1"], None,
                 "--steps must be at least 2", id="locus-steps"),
    pytest.param(["sweep", "--config", "{tmp}/missing.conf", "--outdir",
                  "{tmp}/o"], None, "cannot read config",
                 id="sweep-config-missing"),
    pytest.param(None, "kind = alc\nalpha =\npairs = 0:0\n",
                 "line 2: empty key or value", id="sweep-empty-value"),
    pytest.param(None, "# comments only\n\n  # and blank lines\n",
                 "empty config", id="sweep-comments-only"),
    pytest.param(None, _RELOC + "delta_min = 0\nsteps = five\n",
                 "config key 'steps'", id="sweep-steps-not-a-number"),
    pytest.param(None, "kind = alc\nalpha = 4\npairs = 0-0\n",
                 "bad pairs entry '0-0'", id="sweep-pairs-entry"),
    pytest.param(None, "kind = scan\nalpha = 4\n",
                 "unknown sweep kind 'scan'", id="sweep-kind"),
])
def test_bad_input_exits_64(capsys, tmp_path, argv, config, named):
    argv = [arg.format(tmp=tmp_path) for arg in argv or ()]
    if config is not None:
        path = tmp_path / "bad.conf"
        path.write_text(config)
        argv = ["sweep", "--config", str(path), "--outdir",
                str(tmp_path / "o"), *argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o").exists()
    assert list(tmp_path.iterdir()) in ([], [tmp_path / "bad.conf"])


@pytest.mark.parametrize("argv", [["table1", "--alpha", "1e51"],
                                  ["locus", "--alpha", "1e102"]])
def test_largest_closed_form_alpha_still_runs(capsys, argv):
    # just below the overflow bound of require_alpha: beta^6 at the default
    # bracket's delta = 0.05 is 8.6e306, alpha^3 of the locus 1e306
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (EXIT_OK, "") and out


def test_benchmark_sweep_config_is_accepted(capsys, tmp_path, monkeypatch):
    # the reloc_sweep benchmark writes its configs with SweepInput; every
    # key it writes must stay a relocalization key
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).parent.parent / "benchmarks"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    path = tmp_path / "sweep.conf"
    path.write_text(workloads.RelocSweep.warmup.config_text())
    code, out, err = run_cli(capsys, "sweep", "--config", str(path),
                             "--outdir", str(tmp_path / "out"), "--jobs", "1")
    assert (code, err) == (EXIT_OK, "")
    assert "(21 results, crossing=" in out


def test_memory_error_exits_2(capsys, monkeypatch):
    # a step of 1e-9 asks numpy for about 142 GiB; the solve is replaced
    # so that nothing is allocated
    def exhausted(p, cfg):
        raise MemoryError(f"grid of {cfg.grid_points} points")

    monkeypatch.setattr(cli, "solve_numerical", exhausted)
    code, out, err = run_cli(capsys, "density", "--alpha", "4",
                             "--grid-step", "1e-9")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err.startswith("error: grid of ")


# No command imports the scipy package or a process pool: every command,
# a relocalization sweep too, runs in the calling process.  A closed-form
# command loads no LAPACK; a numerical one loads SciPy's LAPACK extension
# alone, on its first solve.
@pytest.mark.parametrize("argv, loaded", [
    (["table1"], []),
    (["table1", "--compare"], []),
    (["locus", "--alpha", "4"], []),
    (["spectrum", "--alpha", "4"], []),
    (["spectrum", "--alpha", "4", "--backend", "numerical"], []),
    (["sweep", "--config", "{tmp}/reloc.conf", "--outdir", "{tmp}/out"], []),
])
def test_closed_form_commands_do_not_import_scipy(tmp_path, argv, loaded):
    (tmp_path / "reloc.conf").write_text(
        _RELOC + "delta_min = 0\nsteps = 5\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code = ("import sys\n"
            "from multiwell.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted({'scipy', 'scipy.linalg',"
            " 'concurrent.futures'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} {loaded!r}"


# Reference stdout of the table format.  The numerical spectrum calls
# LAPACK, but its six printed decimals sit far above the solver tolerance.
@pytest.mark.parametrize("name, argv", [
    ("table1_compare.txt", ["table1", "--compare"]),
    ("locus_alpha4.txt", ["locus", "--alpha", "4"]),
    ("spectrum_alpha4_harmonic.txt", ["spectrum", "--alpha", "4"]),
    ("spectrum_alpha4_levels5_numerical_compare.txt",
     ["spectrum", "--alpha", "4", "--levels", "5", "--compare",
      "--backend", "numerical"]),
])
def test_golden_table_bytes(capsys, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert out.encode("utf-8") == (DATA / name).read_bytes()
