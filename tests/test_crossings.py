"""Crossing conditions, degeneracy tuning, asymmetric locus, scans."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multiwell import crossings, spectrum
from multiwell.crossings import (PAIRED_ROWS, REFERENCE_DELTAS_ALPHA4,
                                 TABLE_PAIRS, AlcQuery, LabelsUnresolvedError,
                                 NewtonError,
                                 asym_locus_cubic, asym_locus_linearized,
                                 crossing_table, left_well_shift, pairing_gaps,
                                 relocalization_scan, solve_crossing, tilt_scan,
                                 tune_maximal_degeneracy)
from multiwell.polynomial import (ParameterError, Polynomial, bracket_scan,
                                  brent_root, lattice)
from multiwell.spectrum import (SolverConfig, classify_levels, resolve_solver,
                                solve_numerical, well_weights)
from multiwell.wells import (PerturbationRangeError, WellShape, build_symmetric,
                             critical_points, tilted_double_well, triple_well)


REFERENCE_DELTAS = (Path(__file__).parent.parent / "benchmarks"
                    / "reference_deltas.json")


def harmonic_residual(delta, m, n, alpha=4.0):
    """Independent residual oracle built from the closed forms."""
    a2 = alpha * alpha
    b2 = (2.0 + delta) * a2
    v_outer = a2 ** 3 + 1.5 * a2 * a2 * b2 - 0.5 * b2 ** 3
    omega = math.sqrt(6.0 * a2 * b2 + 6.0 * b2 * b2)
    spring = math.sqrt(3.0 * a2 * (a2 + b2))
    return v_outer + (2 * m + 1) * omega - (2 * n + 1) * spring


class TestSolveCrossing:
    def test_ground_pair(self):
        sol = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-12)
        assert sol.delta == pytest.approx(0.0026041648, abs=1e-9)
        assert abs(sol.residual) < 1e-6
        assert sol.beta == pytest.approx(4.0 * math.sqrt(2.0 + sol.delta))
        assert sol.mu == pytest.approx(math.sqrt(2.0 + sol.delta))
        assert sol.harmonic_delta == sol.delta

    def test_linear_sanity(self):
        # slope of the outer-bottom term at delta=0 is -18432 and the
        # intercept is 96 - 48, so delta ~ 48/18432 = 0.0026042
        h = 1e-7
        def v_outer(delta):
            b2 = (2.0 + delta) * 16.0
            return 4096.0 + 1.5 * 256.0 * b2 - 0.5 * b2 ** 3
        slope = (v_outer(h) - v_outer(-h)) / (2.0 * h)
        assert slope == pytest.approx(-18432.0, rel=1e-6)
        sol = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-12)
        assert sol.delta == pytest.approx(48.0 / 18432.0, abs=1e-5)

    def test_residual_vanishes_at_solution(self):
        for m, n in ((0, 1), (2, 0), (3, 2)):
            sol = solve_crossing(AlcQuery(m, n, 4.0), delta_tol=1e-12)
            assert harmonic_residual(sol.delta, m, n) == \
                pytest.approx(0.0, abs=1e-5)

    def test_no_crossing_in_bracket(self):
        with pytest.raises(ValueError, match="no crossing"):
            solve_crossing(AlcQuery(0, 0, 4.0, bracket=(0.03, 0.05)))

    @pytest.mark.parametrize("lo", [-3.0, -2.0, -math.inf])
    def test_bracket_at_or_below_delta_minus_2_is_rejected(self, lo):
        # beta^2 = (2 + delta) * alpha^2 is not positive there
        with pytest.raises(ParameterError, match="above delta = -2"):
            AlcQuery(0, 0, 4.0, bracket=(lo, 0.05))

    def test_residual_monotone_on_default_bracket(self):
        # strict monotonicity makes any root in the bracket unique; the
        # delta(m,n) scale shrinks like alpha^-4, so the sign change for
        # every table pair is only guaranteed at alpha >= 4
        for alpha in (3.0, 4.0, 5.0):
            for m, n in ((0, 0), (3, 3), (2, 0)):
                values = [harmonic_residual(-0.05 + 0.1 * i / 20, m, n, alpha)
                          for i in range(21)]
                assert all(b < a for a, b in zip(values, values[1:]))

    def test_default_bracket_brackets_every_table_pair_at_alpha4(self):
        for m, n in TABLE_PAIRS:
            lo = harmonic_residual(-0.05, m, n, 4.0)
            hi = harmonic_residual(0.05, m, n, 4.0)
            assert (lo < 0.0) != (hi < 0.0)

    def test_numerical_backend_agrees(self):
        harmonic = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-12)
        numeric = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"),
                                 delta_tol=1e-8)
        assert abs(numeric.delta - harmonic.delta) <= 5e-4
        assert numeric.backend == "numerical"

    def test_bad_query(self):
        with pytest.raises(ValueError):
            AlcQuery(0, 0, -1.0)
        with pytest.raises(ValueError):
            AlcQuery(-1, 0, 4.0)
        with pytest.raises(ValueError):
            AlcQuery(0, 0, 4.0, bracket=(0.1, -0.1))


def _residual(delta, q, cfg):
    """_numeric_residual at delta, labelled by the well map of q.bracket."""
    well_map = crossings._line_map(q.alpha, *q.bracket, cfg.half_width)
    return crossings._numeric_residual(delta, q, cfg, well_map)


class TestNumericalSearch:
    @pytest.mark.parametrize("m,n", [(0, 0), (3, 3), (1, 3)])
    def test_residual_changes_sign_once_on_default_bracket(self, m, n):
        # the numerical solve brackets its root from the harmonic lattice
        # instead of scanning its own residual; this is the invariant that
        # makes that safe at alpha = 4
        q = AlcQuery(m, n, 4.0, backend="numerical")
        cfg = crossings._default_numeric_config(q)
        values = [_residual(-0.05 + 0.1 * i / 8, q, cfg)[0] for i in range(9)]
        changes = sum((a < 0.0) != (b < 0.0) for a, b in zip(values, values[1:]))
        assert changes == 1
        assert 0.0 not in values

    def test_no_crossing_in_bracket(self):
        with pytest.raises(ValueError, match="no crossing"):
            solve_crossing(AlcQuery(0, 0, 4.0, bracket=(0.03, 0.05),
                                    backend="numerical"))

    def test_unsolved_levels_raise_labels_unresolved(self):
        # one level cannot hold central-3 or doublet 3: the residual has no
        # sign to give, and the search must say so, not report no crossing
        cfg = SolverConfig(half_width=10.0, grid_points=2001, num_levels=1)
        with pytest.raises(LabelsUnresolvedError, match="central-3"):
            solve_crossing(AlcQuery(3, 3, 4.0, backend="numerical",
                                    solver=cfg))

    def test_ground_pair_takes_few_eigensolves(self, monkeypatch):
        calls = []
        def counting(p, cfg, **window):
            calls.append(cfg)
            return solve_numerical(p, cfg, **window)
        monkeypatch.setattr(crossings, "solve_numerical", counting)
        sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert len(calls) == 1
        assert sol.evaluations == len(calls)
        # the corrected energies put delta at the converged value, not at
        # the O(h^2)-shifted crossing of the raw grid energies
        assert sol.delta == pytest.approx(2.601628516e-3, abs=1e-8)

    # the three first cases, then the rest of alpha = 3.5, where the menu's
    # Newton steps are longest
    @pytest.mark.parametrize("m,n,alpha", list(dict.fromkeys(
        [(0, 0, 4.0), (3, 3, 3.5), (1, 3, 6.0)]
        + [(m, n, 3.5) for m, n in TABLE_PAIRS])))
    def test_hellmann_feynman_slope_matches_central_difference(self, m, n,
                                                               alpha):
        q = AlcQuery(m, n, alpha, backend="numerical")
        cfg = crossings._default_numeric_config(q)
        delta = solve_crossing(q).delta
        _, slope = _residual(delta, q, cfg)
        h = 1e-5
        up, down = (_residual(delta + s, q, cfg)[0] for s in (h, -h))
        difference = (up - down) / (2 * h)
        assert slope == pytest.approx(difference, rel=1e-3)

    def test_newton_agrees_with_brent_on_every_table_pair(self):
        # the same residual refined by Brent's method over the candidate
        # bracket solve_crossing would fall back to
        tol = 1e-8
        for m, n in TABLE_PAIRS:
            q = AlcQuery(m, n, 4.0, backend="numerical")
            cfg = crossings._default_numeric_config(q)
            a, b, _ = bracket_scan(
                lambda d: crossings._harmonic_residual(d, m, n, 4.0),
                -0.05, 0.05)[0]
            width = b - a
            a, b = max(-0.05, a - width), min(0.05, b + width)

            def residual(d):
                return _residual(d, q, cfg)[0]
            reference = brent_root(residual, a, b, residual(a), residual(b),
                                   tol)[0]
            assert solve_crossing(q, delta_tol=tol).delta == \
                pytest.approx(reference, abs=tol), (m, n)

    def test_nan_slope_falls_back_to_brent(self, monkeypatch):
        true_residual = crossings._numeric_residual
        def no_slope(d, q, cfg, well_map):
            return true_residual(d, q, cfg, well_map)[0], math.nan
        monkeypatch.setattr(crossings, "_numeric_residual", no_slope)
        sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert sol.delta == pytest.approx(2.601628516e-3, abs=1e-8)
        # one eigensolve finds the slope unusable, then the bracket ends and
        # Brent's method
        assert sol.evaluations > 3

    def test_harmonic_delta_is_the_closed_form_start(self):
        harmonic = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-8)
        numeric = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert numeric.harmonic_delta == harmonic.delta

    def test_harmonic_delta_none_without_a_cell(self, monkeypatch):
        # a closed form with no sign change leaves Brent's method on the
        # whole bracket, and no harmonic root to report
        monkeypatch.setattr(crossings, "_harmonic_residual",
                            lambda d, m, n, a: d * 0.0 + 1.0)
        sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert sol.harmonic_delta is None
        assert sol.delta == pytest.approx(2.601628516e-3, abs=1e-8)

    def test_harmonic_evaluations_count_scan_and_refinement(self, monkeypatch):
        points = 0
        true_residual = crossings._harmonic_residual
        def counting(d, m, n, a):
            nonlocal points
            points += np.size(d)  # the lattice comes as one array
            return true_residual(d, m, n, a)
        monkeypatch.setattr(crossings, "_harmonic_residual", counting)
        sol = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-8)
        assert sol.evaluations == points
        # 33 lattice points, then Brent's method in the sign-change cell;
        # bisecting that cell to 1e-8 would take ceil(log2(0.1/32 / 1e-8))
        # = 19 more
        assert 33 < points < 33 + 19

    def test_far_harmonic_cell_falls_back_and_warns(self, monkeypatch):
        expected = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        true_residual = crossings._harmonic_residual
        monkeypatch.setattr(crossings, "_harmonic_residual",
                            lambda d, m, n, a: true_residual(d - 0.02, m, n, a))
        with pytest.warns(UserWarning, match="outside the widened harmonic cell"):
            sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert sol.delta == pytest.approx(expected.delta, abs=1e-8)

    def test_several_harmonic_cells_warn_and_take_the_root_nearest_zero(
            self, monkeypatch):
        monkeypatch.setattr(crossings, "_harmonic_residual",
                            lambda d, m, n, a: (d - 0.01) * (d + 0.03))
        with pytest.warns(UserWarning, match="multiple residual sign changes"):
            sol = solve_crossing(AlcQuery(0, 0, 4.0))
        assert sol.delta == pytest.approx(0.01, abs=1e-8)

    def test_newton_giving_up_falls_back_to_brent(self, monkeypatch):
        # a slope of the wrong sign doubles the distance to the root at
        # every Newton step; from the harmonic root of (3, 3), 1.2e-4 away,
        # no step is short enough to accept before one leaves the window,
        # and Brent's method takes over
        q = AlcQuery(3, 3, 4.0, backend="numerical")
        expected = solve_crossing(q)
        true_residual = crossings._numeric_residual

        def wrong_sign(d, q, cfg, well_map):
            r, slope = true_residual(d, q, cfg, well_map)
            return r, -slope
        monkeypatch.setattr(crossings, "_numeric_residual", wrong_sign)
        monkeypatch.setattr(crossings, "_anharmonic_residual",
                            lambda d, m, n, a: 1.0)
        sol = solve_crossing(q)
        assert sol.delta == pytest.approx(expected.delta, abs=1e-8)
        assert sol.newton_step is None and sol.evaluations > 6

    def test_newton_gives_up_after_six_evaluations(self):
        # at the triple root of x^3 each Newton step shrinks x by only a
        # third, so from x = 1 no step is short enough to accept at tol
        # 1e-12, and _newton returns None after its sixth evaluation
        evaluations = []

        def cube(x):
            evaluations.append(x)
            return x ** 3, 3.0 * x * x
        assert crossings._newton(cube, 1.0, -1.0, 2.0, 1e-12) is None
        assert len(evaluations) == 6
        assert evaluations[-1] == pytest.approx((2.0 / 3.0) ** 5)

    def test_brent_fallback_matches_cold_solves(self, monkeypatch):
        # with no usable slope, Brent's method takes over after the first
        # solve and lands within delta_tol of Newton's delta
        queries = [AlcQuery(m, n, alpha, backend="numerical")
                   for m, n, alpha in ((0, 0, 4.0), (3, 2, 3.5), (1, 3, 6.0))]
        newton = [solve_crossing(q) for q in queries]
        true_residual = crossings._numeric_residual
        monkeypatch.setattr(crossings, "_numeric_residual",
                            lambda d, q, cfg, well_map:
                            (true_residual(d, q, cfg, well_map)[0], math.nan))
        for q, want in zip(queries, newton):
            sol = solve_crossing(q)
            assert sol.evaluations > 3 and sol.newton_step is None
            assert abs(sol.delta - want.delta) <= 1e-8, (q.m, q.n, q.alpha)

    def test_one_well_map_per_crossing(self, monkeypatch):
        # the stationary points of the bracket's ends are isolated once
        # each: the hi end's size the grid and both make the well map; no
        # eigensolve is labelled by a fresh classify_levels
        from multiwell import spectrum
        calls, classified = [], []

        def counting(poly, window):
            calls.append(window)
            return critical_points(poly, window)
        monkeypatch.setattr(crossings, "critical_points", counting)
        monkeypatch.setattr(spectrum, "critical_points", counting)
        monkeypatch.setattr(spectrum, "classify_levels",
                            lambda *args: classified.append(args))
        sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
        assert sol.evaluations >= 1
        assert len(calls) == 2 and classified == []
        assert not hasattr(crossings, "classify_levels")

    def test_one_pair_of_ends_per_numerical_table(self, monkeypatch):
        # the twelve queries of one alpha and bracket share the stationary
        # points of its two ends: 2 isolations in all, not 2 per pair
        from multiwell import spectrum
        calls = []

        def counting(poly, window):
            calls.append(window)
            return critical_points(poly, window)
        monkeypatch.setattr(crossings, "critical_points", counting)
        monkeypatch.setattr(spectrum, "critical_points", counting)
        queries = [AlcQuery(m, n, 4.0, backend="numerical")
                   for m, n in TABLE_PAIRS]
        assert len(crossings._crossings(queries, 1e-8)) == 12
        assert len(calls) == 2

    @pytest.mark.parametrize("alpha", [3.5, 6.0])
    def test_shared_ends_solve_each_pair_as_it_is_solved_alone(self, alpha):
        queries = [AlcQuery(m, n, alpha, backend="numerical")
                   for m, n in TABLE_PAIRS]
        shared = crossings._crossings(queries, 1e-8)
        assert [repr(s) for s in shared] == \
            [repr(solve_crossing(q)) for q in queries]

    def test_shared_ends_check_each_query_window(self):
        # the points of the ends are shared, the window check is not: a
        # query whose grid is too narrow for the outer minima raises, as
        # critical_points on that grid would
        narrow = SolverConfig(half_width=6.0, grid_points=1201, num_levels=9)
        queries = [AlcQuery(0, 0, 4.0, backend="numerical"),
                   AlcQuery(1, 2, 4.0, backend="numerical", solver=narrow)]
        with pytest.raises(ValueError, match="window=6 too small"):
            crossings._crossings(queries, 1e-8)

    def test_bracket_near_minus_two_raises(self):
        # as delta approaches -2 the maxima at +-alpha degenerate, and the
        # well maps of the bracket's two ends differ
        q = AlcQuery(0, 0, 4.0, bracket=(-1.9999999, 0.05),
                     backend="numerical")
        with pytest.raises(ParameterError,
                           match="well maps at delta = -2 and 0.05 differ"):
            solve_crossing(q)

    def test_warm_solves_move_no_menu_crossing(self, monkeypatch):
        # the 48 menu crossings (the table pairs at alpha in {3.5, 4, 5, 6})
        # with Newton started at the harmonic root, not the second-order
        # one: 25 of them take a second eigensolve, and every delta lies
        # within 1e-9 of the default one-solve delta (3.9e-10 is measured)
        queries = [AlcQuery(m, n, alpha, backend="numerical")
                   for alpha in (3.5, 4.0, 5.0, 6.0) for m, n in TABLE_PAIRS]
        default = [solve_crossing(q).delta for q in queries]
        monkeypatch.setattr(crossings, "_anharmonic_residual",
                            lambda d, m, n, a: 1.0)
        sols = [solve_crossing(q) for q in queries]
        assert sum(sol.evaluations for sol in sols) == 48 + 25
        for q, sol, delta in zip(queries, sols, default):
            assert abs(sol.delta - delta) <= 1e-9, (q.m, q.n, q.alpha)

    def test_menu_crossings_take_48_eigensolves(self):
        # Newton from the second-order root: one eigensolve per menu
        # crossing, whose step is taken without another, the same count on
        # every run
        queries = [AlcQuery(m, n, alpha, backend="numerical")
                   for alpha in (3.5, 4.0, 5.0, 6.0) for m, n in TABLE_PAIRS]
        counts = [[solve_crossing(q).evaluations for q in queries]
                  for _ in range(2)]
        assert sum(counts[0]) == 48 and counts[0] == counts[1]

    def test_menu_crossings_solve_only_their_window(self, monkeypatch):
        # every menu crossing solves levels n + 2m .. n + 2m + 2 alone, with
        # no full solve and no full-precision bisection, and lands within
        # 1e-12 of the delta of the full solve (the window route off)
        spectrum._load_lapack()
        stebz, tolerances = spectrum.dstebz, []

        def spy_stebz(*args):
            tolerances.append(args[7])
            return stebz(*args)
        monkeypatch.setattr(spectrum, "dstebz", spy_stebz)
        solves = []

        def counting(p, cfg, **window):
            solves.append((cfg.num_levels, window))
            return solve_numerical(p, cfg, **window)
        monkeypatch.setattr(crossings, "solve_numerical", counting)
        queries = [AlcQuery(m, n, alpha, backend="numerical")
                   for alpha in (3.5, 4.0, 5.0, 6.0) for m, n in TABLE_PAIRS]
        window = []
        for q in queries:
            solves.clear()
            window.append(solve_crossing(q).delta)
            assert solves == [(3, {"first": q.n + 2 * q.m})], (q.m, q.n)
        assert 0.0 not in tolerances
        monkeypatch.setattr(crossings, "_window_solve", lambda *args: None)
        for q, delta in zip(queries, window):
            assert abs(solve_crossing(q).delta - delta) <= 1e-12, (q.m, q.n)

    @pytest.mark.parametrize("alpha", [3.5, 4.0, 5.0, 6.0])
    def test_window_labels_equal_the_full_solve_labels(self, alpha):
        # at each menu crossing the window's three labels are those that
        # _labels gives the same levels of the full solve
        for m, n in TABLE_PAIRS:
            q = AlcQuery(m, n, alpha, backend="numerical")
            cfg = crossings._default_numeric_config(q)
            well_map = crossings._line_map(alpha, *q.bracket, cfg.half_width)
            delta = solve_crossing(q).delta
            _, labeled = crossings._window_solve(delta, q, cfg, well_map)
            full = crossings._line_solve(alpha, delta, cfg, well_map)[1]
            first = n + 2 * m
            assert [(lv.family, lv.index, lv.label) for lv in labeled] == \
                [(lv.family, lv.index, lv.label)
                 for lv in full[first:first + 3]], (m, n)
            for a, b in zip(labeled, full[first:first + 3]):
                assert a.energy == pytest.approx(b.energy, abs=1e-9)
                assert a.w_central == pytest.approx(b.w_central, abs=1e-9)

    @pytest.mark.parametrize("m,n", [(0, 0), (2, 1), (3, 2)])
    def test_window_mismatch_falls_back_to_the_full_solve(self, monkeypatch,
                                                           m, n):
        # second-order levels moved by more than a quarter of either
        # family's spacing (96 and 192 at alpha = 4) disagree with the
        # window's energies: the window is solved, refused, and the full
        # solve gives the delta of the route without the window bit for bit
        second_order = spectrum._n2_second_order
        monkeypatch.setattr(crossings, "_n2_second_order",
                            lambda *args: tuple(e + 100.0 for e in
                                                second_order(*args)))
        solves = []

        def counting(p, cfg, **window):
            solves.append((cfg.num_levels, window))
            return solve_numerical(p, cfg, **window)
        monkeypatch.setattr(crossings, "solve_numerical", counting)
        q = AlcQuery(m, n, 4.0, backend="numerical")
        fallback = solve_crossing(q)
        full_levels = crossings._default_numeric_config(q).num_levels
        assert solves == [(3, {"first": n + 2 * m}), (full_levels, {})] \
            * fallback.evaluations
        monkeypatch.setattr(crossings, "_window_solve", lambda *args: None)
        assert solve_crossing(q) == fallback

    @pytest.mark.parametrize("m,n", TABLE_PAIRS)
    def test_one_step_lands_within_its_slope_error_of_the_root(self, m, n):
        # at alpha = 3.5, the menu's longest steps (up to 4.8e-6): delta,
        # one step from the first eigensolve, lies within 2e-4 of that step
        # of the root of the same residual refined by Brent's method to
        # 1e-14 over the widened harmonic cell (8.3e-5 of it is measured)
        q = AlcQuery(m, n, 3.5, backend="numerical")
        sol = solve_crossing(q)
        assert sol.evaluations == 1 and sol.newton_step is not None
        cfg = crossings._default_numeric_config(q)
        a, b, _ = bracket_scan(
            lambda d: crossings._harmonic_residual(d, m, n, 3.5),
            -0.05, 0.05)[0]
        a, b = a - (b - a), b + (b - a)

        def residual(d):
            return _residual(d, q, cfg)[0]
        root = brent_root(residual, a, b, residual(a), residual(b), 1e-14)[0]
        assert abs(sol.delta - root) <= 2e-4 * abs(sol.newton_step)

    def test_newton_starts_at_the_second_order_root(self, monkeypatch):
        # the first eigensolve lies at the second-order root; with no sign
        # change of that residual in the window, at the harmonic root
        seen = []
        true_residual = crossings._numeric_residual

        def recording(d, *args):
            seen.append(d)
            return true_residual(d, *args)
        monkeypatch.setattr(crossings, "_numeric_residual", recording)
        q = AlcQuery(0, 0, 4.0, backend="numerical")
        solve_crossing(q)
        assert seen[0] == pytest.approx(_second_order_root(0, 0, 4.0),
                                        abs=1e-8)
        seen.clear()
        monkeypatch.setattr(crossings, "_anharmonic_residual",
                            lambda d, m, n, a: 1.0)
        sol = solve_crossing(q)
        assert seen[0] == sol.harmonic_delta
        assert sol.delta == pytest.approx(2.601628516e-3, abs=1e-8)

    def test_numerical_solve_does_not_import_scipy_optimize(self):
        code = ("import sys\n"
                "from multiwell.crossings import AlcQuery, solve_crossing\n"
                "solve_crossing(AlcQuery(0, 0, 4.0, backend='numerical'))\n"
                "print('scipy.optimize' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def _second_order_root(m, n, alpha, residual=None):
    """The root of the second-order residual (or of residual) on the
    default bracket, by Brent's method to 1e-13."""
    def f(d):
        return (residual or crossings._anharmonic_residual)(d, m, n, alpha)
    return brent_root(f, -0.05, 0.05, f(-0.05), f(0.05), 1e-13)[0]


def _taylor_level(p, x0, k):
    """Level k of the well of p at x0 to second order, from p's derivatives:
    w = sqrt(2 V''), s = 1/w, a = V'''/6, b = V''''/24."""
    d = [p]
    for _ in range(4):
        d.append(d[-1].derivative())
    v0, v2, v3, v4 = (float(d[i](x0)) for i in (0, 2, 3, 4))
    w = math.sqrt(2.0 * v2)
    s, a, b = 1.0 / w, v3 / 6.0, v4 / 24.0
    return (v0 + w * (k + 0.5) + b * s * s * (6 * k * k + 6 * k + 3)
            - a * a / w * s ** 3 * (30 * k * k + 30 * k + 11))


class TestSecondOrderLevels:
    @pytest.mark.parametrize("alpha,delta", [(1.5, -0.3), (4.0, 0.0026),
                                             (6.0, 0.05)])
    @pytest.mark.parametrize("k", [0, 3])
    def test_closed_form_matches_the_polynomial_derivatives(self, alpha,
                                                            delta, k):
        p = triple_well(alpha, delta)
        central, outer = spectrum._n2_second_order(alpha, delta, k, k)
        assert math.isclose(central, _taylor_level(p, 0.0, k), rel_tol=1e-12)
        assert math.isclose(outer, _taylor_level(
            p, alpha * math.sqrt(3.0 + delta), k), rel_tol=1e-12)

    @pytest.mark.parametrize("m,n,alpha", [(0, 0, 4.0), (3, 2, 3.5),
                                           (1, 3, 6.0)])
    def test_array_and_float_residuals_agree_in_sign(self, m, n, alpha):
        deltas = np.linspace(-0.05, 0.05, 401)
        values = crossings._anharmonic_residual(deltas, m, n, alpha)
        assert [v < 0.0 for v in values] == \
            [crossings._anharmonic_residual(float(d), m, n, alpha) < 0.0
             for d in deltas]

    def test_second_order_root_is_50_times_closer_than_the_harmonic(self):
        # against the 48 converged reference deltas of the benchmark
        entries = json.loads(REFERENCE_DELTAS.read_text())["entries"]
        assert len(entries) == 48
        for e in entries:
            key = (e["m"], e["n"], e["alpha"])
            harmonic = _second_order_root(*key, crossings._harmonic_residual)
            second = _second_order_root(*key)
            assert abs(e["delta_ref"] - second) <= \
                abs(e["delta_ref"] - harmonic) / 50, key


class TestCrossingTable:
    def test_reference_values(self):
        sols = crossing_table(4.0)
        assert len(sols) == 12
        assert sorted(s.delta for s in sols) == [s.delta for s in sols]
        for s in sols:
            assert s.delta == pytest.approx(
                REFERENCE_DELTAS_ALPHA4[(s.m, s.n)], abs=2e-5)

    def test_residual_changes_sign_across_tabulated_delta(self):
        # an oracle independent of the root-finder: at alpha = 4 the
        # closed-form residual brackets each tabulated delta within 1e-12
        for s in crossing_table(4.0):
            below = crossings._harmonic_residual(s.delta - 1e-12, s.m, s.n, 4.0)
            above = crossings._harmonic_residual(s.delta + 1e-12, s.m, s.n, 4.0)
            assert (below < 0.0) != (above < 0.0), (s.m, s.n)
            assert abs(s.residual) <= max(abs(below), abs(above))

    def test_all_pairs_present(self):
        sols = crossing_table(4.0)
        assert {(s.m, s.n) for s in sols} == set(TABLE_PAIRS)

    def test_pairing_gaps(self):
        gaps = pairing_gaps(crossing_table(4.0))
        assert len(gaps) == len(PAIRED_ROWS)
        for g in gaps:
            assert g.gap <= 1e-4

    @pytest.mark.parametrize("alpha", [3.5, 4.0, 4.7, 7.25, 8.0, 1e3])
    def test_one_lattice_gives_each_pair_its_own_solve(self, alpha):
        # the twelve pairs scanned as one array: every field, evaluations
        # included, equals that of the pair's own solve_crossing
        alone = sorted((solve_crossing(AlcQuery(m, n, alpha), 1e-12)
                        for m, n in TABLE_PAIRS), key=lambda s: s.delta)
        table = crossing_table(alpha)
        assert table == alone
        assert all(s.evaluations > 33 for s in table)

    def test_a_pair_without_a_cell_raises_its_own_error(self):
        # at alpha = 3 the first pair in table order whose residual has no
        # sign change on the bracket is (2, 1): the table raises its error
        with pytest.raises(ValueError, match=r"^no crossing in bracket "
                           r"\[-0\.05, 0\.05\] for \(m=2, n=1\)$"):
            crossing_table(3.0)
        queries = [AlcQuery(m, n, 3.5, bracket=(0.001, 0.003))
                   for m, n in TABLE_PAIRS]
        with pytest.raises(ValueError) as alone:
            for q in queries:
                solve_crossing(q)
        with pytest.raises(ValueError) as shared:
            crossings._crossings(queries, 1e-8)
        assert str(shared.value) == str(alone.value) == (
            "no crossing in bracket [0.001, 0.003] for (m=1, n=3)")

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            crossing_table(0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_must_be_finite(self, alpha):
        for call in (lambda: AlcQuery(0, 0, alpha),
                     lambda: crossing_table(alpha),
                     lambda: asym_locus_cubic(0.5, alpha),
                     lambda: asym_locus_linearized(0.5, alpha)):
            with pytest.raises(ValueError, match="finite and positive"):
                call()

    # at 1e80 alpha^6 overflows; at 2e51 only beta^6 does: require_alpha
    # rejects both before the lattice, with an AlphaOverflowError
    @pytest.mark.parametrize("alpha", [1e80, 2e51])
    def test_overflow_raises_without_numpy_warnings(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                crossing_table(alpha)


@settings(deadline=None)
@given(alpha=st.floats(0.5, 20.0), m=st.integers(0, 5), n=st.integers(0, 5),
       lo=st.floats(-0.2, 0.2), hi=st.floats(-0.2, 0.2))
@example(alpha=4.0, m=0, n=0, lo=-0.05, hi=0.05)
def test_array_scan_finds_the_scalar_cells(alpha, m, n, lo, hi):
    # the lattice evaluated as one array against a per-point scan of the
    # float residual: same cell ends to the bit, f(a) of the same sign
    assume(lo < hi)
    def residual(d):
        return crossings._harmonic_residual(d, m, n, alpha)
    xs = [lo + (hi - lo) * i / 32 for i in range(33)]
    fs = [residual(x) for x in xs]
    expected = [(xs[i], xs[i + 1], fs[i]) for i in range(32)
                if fs[i] == 0.0 or (fs[i] < 0.0) != (fs[i + 1] < 0.0)]
    got = bracket_scan(residual, lo, hi)
    assert [(a.hex(), b.hex()) for a, b, _ in got] == \
        [(a.hex(), b.hex()) for a, b, _ in expected]
    for (_, _, fa), (_, _, ea) in zip(got, expected):
        assert type(fa) is float
        assert (fa < 0.0, fa == 0.0) == (ea < 0.0, ea == 0.0)


def test_row_scan_gives_each_row_its_own_cells():
    # a (rows, 33) result is scanned row by row: exact zeros, +-inf and
    # nan give each row the cells its 1-D scan gives, bit for bit
    lo, hi = -0.05, 0.05
    xs = lattice(lo, hi, 33)
    rng = np.random.default_rng(7)
    rows = np.array([
        xs - xs[5],                                  # an exact zero
        np.where(xs > 0.01, np.inf, -1.0),
        np.where(xs < -0.02, -np.inf, np.where(xs > 0.03, np.inf, 0.0)),
        np.where(np.abs(xs) < 0.02, np.nan, xs),
        np.where(xs > 0.0, np.nan, -1.0),
        rng.choice([-1.0, -0.0, 0.0, 1.0, np.inf, -np.inf, np.nan], 33),
        np.ones(33),
    ])

    def bits(cells):
        return [tuple(float.hex(v) for v in cell) for cell in cells]
    together = bracket_scan(lambda d: rows, lo, hi)
    assert len(together) == len(rows)
    for row, cells in zip(rows, together):
        assert bits(cells) == bits(bracket_scan(lambda d: row, lo, hi))
    assert [len(cells) for cells in together[:5]] == [2, 1, 17, 1, 1]
    assert together[-1] == []


class TestTuneMaximalDegeneracy:
    def test_triple_well_lands_on_ground_crossing(self):
        fit = tune_maximal_degeneracy(WellShape((16.0, 48.0)), tol=1e-9)
        delta = fit.shape.increments[1] / fit.shape.increments[0] - 3.0
        reference = solve_crossing(AlcQuery(0, 0, 4.0), delta_tol=1e-12).delta
        assert delta == pytest.approx(reference, abs=1e-7)
        assert fit.max_residual <= 1e-8

    def test_double_well_trivially_degenerate(self):
        shape = WellShape((4.0,))
        fit = tune_maximal_degeneracy(shape, tol=1e-9)
        assert fit.shape == shape
        assert fit.max_residual == 0.0

    def test_four_wells_converge(self):
        # absolute tol sized to the ~1e6 energy scale of this shape
        fit = tune_maximal_degeneracy(WellShape((16.0, 48.0, 80.0)), tol=1e-6)
        assert fit.max_residual <= 1e-6
        assert len(fit.ground_energies) == 2
        spread = max(fit.ground_energies) - min(fit.ground_energies)
        assert abs(spread) <= 1e-5  # within 10*tol, every pairwise constraint

    def test_unreachable_tolerance_errors(self):
        with pytest.raises(NewtonError, match="residuals"):
            tune_maximal_degeneracy(WellShape((16.0, 48.0)), tol=1e-30)

    def test_shallow_shape_warns(self):
        with pytest.warns(UserWarning, match="deep-well"):
            tune_maximal_degeneracy(WellShape((0.25, 0.5)), tol=1e-3)


class TestAsymLocus:
    def test_linearized_zero(self):
        assert asym_locus_linearized(0.0, 4.0).delta == 0.0

    def test_linearized_reference(self):
        pt = asym_locus_linearized(0.1, 4.0)
        assert pt.delta == pytest.approx(-0.2 / (math.sqrt(3.0) * 64.0),
                                         rel=1e-12)
        assert pt.delta == pytest.approx(-1.8042e-3, abs=1e-7)
        assert pt.method == "linearized"

    def test_linearized_gate(self):
        with pytest.raises(PerturbationRangeError, match="cubic"):
            asym_locus_linearized(10.0, 4.0)

    @given(st.floats(1e-6, 0.05), st.floats(1.0, 6.0))
    def test_positive_tilt_lowers_mu(self, scale, alpha):
        eps = scale * alpha ** 3
        assert asym_locus_linearized(eps, alpha).delta < 0.0
        assert asym_locus_cubic(eps, alpha).delta < 0.0

    def test_cubic_zero(self):
        assert asym_locus_cubic(0.0, 4.0).delta == 0.0

    def test_cubic_approaches_linearized(self):
        ratios = []
        for eps in (0.128, 0.064, 0.032):
            lin = asym_locus_linearized(eps, 4.0).delta
            cub = asym_locus_cubic(eps, 4.0).delta
            ratios.append(abs(cub - lin) / abs(lin))
        assert ratios[1] <= 0.6 * ratios[0]
        assert ratios[2] <= 0.6 * ratios[1]

    def test_strong_tilt_order_one_shift(self):
        pt = asym_locus_cubic(0.5 * 64.0, 4.0)
        assert -1.0 < pt.delta < -0.4

    def test_two_root_regime_picks_nearest_zero(self):
        pt = asym_locus_cubic(0.9 * 64.0, 4.0)
        assert -2.0 < pt.delta < 0.0

    @pytest.mark.parametrize("eps", [1e-100, -1e-100, 1e-300, -1e-300])
    def test_tiny_tilt_keeps_sign(self, eps):
        delta = asym_locus_cubic(eps, 4.0).delta
        lin = asym_locus_linearized(eps, 4.0).delta
        assert math.copysign(1.0, delta) == -math.copysign(1.0, eps)
        assert abs(delta - lin) <= 1e-12 * abs(lin)

    def test_unreachable_epsilon(self):
        with pytest.raises(ValueError, match="no catastrophe"):
            asym_locus_cubic(1.5 * 64.0, 4.0)

    def test_range_ends_are_attainable(self):
        # eps = -+alpha^3 is solved exactly by the branch ends delta = 1, -2
        assert asym_locus_cubic(-64.0, 4.0).delta == 1.0
        assert asym_locus_cubic(64.0, 4.0).delta == -2.0

    @settings(max_examples=80)
    @given(st.floats(-0.9, 0.9).filter(lambda s: abs(s) > 1e-8),
           st.floats(0.8, 6.0))
    def test_cubic_roundtrip(self, scale, alpha):
        eps = scale * alpha ** 3
        delta = asym_locus_cubic(eps, alpha).delta
        back = -0.5 * alpha ** 3 * delta * math.sqrt(3.0 + delta)
        assert back == pytest.approx(eps, rel=1e-9)

    @given(st.floats(-1.0, 1.0), st.floats(0.8, 8.0))
    @example(1.0, 4.0)
    @example(-1.0, 4.0)
    @example(1e-300, 8.0)
    def test_cubic_on_branch_with_roundoff_residual(self, scale, alpha):
        cube = alpha ** 3
        eps = scale * cube
        delta = asym_locus_cubic(eps, alpha).delta
        assert -2.0 <= delta <= 1.0
        back = -0.5 * cube * delta * math.sqrt(3.0 + delta)
        assert abs(back - eps) <= 2e-15 * cube

    @given(st.floats(-0.99, 0.99), st.floats(0.8, 8.0))
    def test_cubic_matches_brent_oracle(self, scale, alpha):
        # Brent's method on the branch [-2, 1] run to tol = 0; near the
        # fold at eps -> alpha^3 the two drift apart by tens of ulps
        eps = scale * alpha ** 3

        def excess(d):
            return -0.5 * alpha ** 3 * d * math.sqrt(3.0 + d) - eps

        oracle = brent_root(excess, -2.0, 1.0, excess(-2.0), excess(1.0),
                            0.0)[0]
        assert abs(asym_locus_cubic(eps, alpha).delta - oracle) <= 1e-13

    def test_cubic_decreases_along_epsilon(self):
        deltas = [asym_locus_cubic(eps, 4.0).delta
                  for eps in lattice(-64.0, 64.0, 2001).tolist()]
        assert deltas[0] == 1.0 and deltas[-1] == -2.0
        assert all(b <= a for a, b in zip(deltas, deltas[1:]))

    def test_cubic_needs_no_root_finder(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("brent_root called")

        monkeypatch.setattr(crossings, "brent_root", refuse)
        assert -1.0 < asym_locus_cubic(0.5 * 64.0, 4.0).delta < -0.4


class TestLeftWellShift:
    def test_zero(self):
        assert left_well_shift(4.0, math.sqrt(32.0), 0.0) == (0.0, 0.0)

    def test_reference_rates(self):
        depth, curv = left_well_shift(4.0, math.sqrt(32.0), 1.0)
        assert depth == pytest.approx(-48.0 ** 1.5, rel=1e-12)
        assert depth == pytest.approx(-332.5538, abs=1e-3)
        assert curv == pytest.approx(3.0 * math.sqrt(48.0) * 224.0 / 32.0,
                                     rel=1e-12)
        assert curv == pytest.approx(145.4923, abs=1e-3)

    def test_numeric_differencing_oracle(self):
        # the tilted potential's left minimum, located independently via
        # critical_points, reproduces both rates to O(eps^2)
        alpha, beta = 4.0, math.sqrt(32.0)
        base = build_symmetric(WellShape.from_widths(alpha, beta))
        ddp = base.derivative().derivative()
        r = math.sqrt(48.0)
        v0, c0 = base(-r), ddp(-r)
        residual_v, residual_c = [], []
        for eps in (1e-3, 5e-4):
            tilted = base + Polynomial.monomial(3, eps)
            left = critical_points(tilted, 9.0)[0]
            depth, curv = left_well_shift(alpha, beta, eps)
            residual_v.append(abs((left.value - v0) - depth))
            residual_c.append(abs((left.curvature - c0) - curv))
        # halving eps should cut the O(eps^2) residual by ~4
        assert residual_v[0] / residual_v[1] == pytest.approx(4.0, abs=1.0)
        assert residual_v[0] < 1e-3
        assert residual_c[0] < 5e-4


@pytest.fixture(scope="module")
def scan():
    cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=1)
    return relocalization_scan(4.0, (0.0, 0.005), 11, cfg)


class TestRelocalizationScan:
    def test_crossing_in_expected_window(self, scan):
        assert scan.crossing is not None
        assert 0.001 <= scan.crossing <= 0.005
        assert scan.crossing == pytest.approx(0.0026, abs=0.001)

    def test_bracket_is_the_straddling_lattice_step(self, scan):
        lo, hi = scan.bracket
        deltas = [r.delta for r in scan.rows]
        i = deltas.index(lo)
        assert deltas[i + 1] == hi
        assert scan.rows[i].w_central > 0.5 >= scan.rows[i + 1].w_central
        assert lo < scan.crossing <= hi

    def test_weights_flip_sharply(self, scan):
        before = [r for r in scan.rows if r.delta <= scan.crossing - 0.002]
        after = [r for r in scan.rows if r.delta >= scan.crossing + 0.002]
        assert before and after
        assert all(r.w_central > 0.9 for r in before)
        assert all(r.w_central < 0.1 for r in after)

    def test_labels_follow_weights(self, scan):
        for r in scan.rows:
            if r.w_central > 0.9:
                assert r.label.startswith("central")
            elif r.w_central < 0.1:
                assert r.label.startswith("offcentral")

    def test_no_crossing_reported_as_none(self):
        cfg = SolverConfig(half_width=9.0, grid_points=1201, num_levels=1)
        result = relocalization_scan(4.0, (0.0035, 0.005), 4, cfg)
        assert result.crossing is None
        assert result.bracket is None

    def test_step_validation(self):
        cfg = SolverConfig(half_width=9.0, grid_points=1201, num_levels=1)
        with pytest.raises(ValueError):
            relocalization_scan(4.0, (0.0, 0.005), 2, cfg)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("alpha, delta_range", [
        (1.5, (-0.35, 0.5)), (3.5, (0.0, 0.008)), (4.0, (0.0, 0.005)),
        (5.0, (0.0, 0.004)), (6.0, (0.0, 0.003))])
    def test_rows_equal_per_point_labels(self, levels, alpha, delta_range):
        # one well map per scan labels every point as classify_levels does
        # on the point's own solve and its own stationary points, bit for bit
        cfg = resolve_solver(triple_well(alpha, delta_range[1]), levels)
        scan = relocalization_scan(alpha, delta_range, 5, cfg)
        assert {r.label[:7] for r in scan.rows} == {"central", "offcent"}
        for row in scan.rows:
            p = triple_well(alpha, row.delta)
            pairs = solve_numerical(p, cfg)
            ground = classify_levels(pairs, p)[0]
            assert row == crossings.ScanRow(
                row.delta, ground.energy, ground.w_central, ground.w_outer,
                ground.label, pairs[0].angle_bound)

    @pytest.mark.parametrize("steps", [3, 11, 41])
    def test_stationary_points_found_twice_per_scan(self, monkeypatch, steps):
        # once at each end of the lattice, whatever its size
        calls = []

        def counting(poly, window):
            calls.append(window)
            return critical_points(poly, window)

        from multiwell import spectrum
        monkeypatch.setattr(crossings, "critical_points", counting)
        monkeypatch.setattr(spectrum, "critical_points", counting)
        cfg = SolverConfig(half_width=9.0, grid_points=1201, num_levels=1)
        scan = relocalization_scan(4.0, (0.0, 0.005), steps, cfg)
        assert len(scan.rows) == steps
        assert calls == [9.0, 9.0]

    @pytest.mark.parametrize("delta_min", [-2.0, math.nextafter(-2.0, 0.0),
                                           -1.9999999])
    def test_degenerate_end_raises(self, delta_min):
        # at delta = -2 the maxima at +-alpha meet the outer minima: the
        # low end has one region, the high end three
        cfg = resolve_solver(triple_well(4.0, -1.9), 1)
        with pytest.raises(ParameterError, match="well maps at delta"):
            relocalization_scan(4.0, (delta_min, -1.9), 3, cfg)

    def test_outer_weight_is_never_negative(self):
        # w_outer sums the outer regions: as 1 - w_central it read
        # -2.2e-16 on six rows of this scan, the first at delta = 0.0002
        cfg = resolve_solver(triple_well(3.5, 0.006), 1)
        scan = relocalization_scan(3.5, (0.0, 0.006), 61, cfg)
        assert all(r.w_outer >= 0.0 for r in scan.rows)

def _origin_weight(pair, p):
    return [r.weight for r in well_weights(pair, p) if r.contains_origin][0]


@settings(max_examples=10, deadline=None)
@given(st.floats(3.5, 6.0), st.floats(0.0026 - 0.01, 0.0026 + 0.01))
def test_level_weights_match_well_weights(alpha, delta):
    # classify_levels finds the region edges once per call and the scan
    # once per scan; every weight must still equal well_weights' central
    # region bit for bit
    half = 0.5 * math.ceil(2.0 * (math.sqrt(3.2) * alpha + 2.5))
    cfg = SolverConfig(half_width=half, grid_points=801, num_levels=5)
    p = triple_well(alpha, delta)
    pairs = solve_numerical(p, cfg)
    for level, pair in zip(classify_levels(pairs, p), pairs):
        assert level.w_central == _origin_weight(pair, p)
    scan = relocalization_scan(alpha, (delta - 1e-3, delta + 1e-3), 3, cfg)
    for row in scan.rows:
        q = triple_well(alpha, row.delta)
        assert row.w_central == _origin_weight(solve_numerical(q, cfg)[0], q)


class TestTiltScan:
    def test_double_well_response_is_smooth(self):
        # contrast case: no abrupt jump at lattice resolution, yet the
        # weight moves substantially across the tilt range
        cfg = SolverConfig(half_width=6.0, grid_points=1201, num_levels=1)
        rows = tilt_scan(2.0, (-0.3, 0.3), 13, cfg)
        weights = [r.w_left for r in rows]
        jumps = [abs(b - a) for a, b in zip(weights, weights[1:])]
        assert max(jumps) < 0.2
        assert weights[-1] - weights[0] > 0.5
        mid = weights[len(weights) // 2]
        assert mid == pytest.approx(0.5, abs=0.02)

    def test_tilt_below_roundoff_scale_is_not_symmetrized(self):
        # |b| = 1e-11 is below 1e-12 times the largest coefficient (2*s1 =
        # 16): a parity test with a relative tolerance of that size would
        # solve the tilted well as a symmetric one, at w_left = 0.5
        cfg = resolve_solver(tilted_double_well(8.0, -1e-9), 1)
        rows = tilt_scan(8.0, (-2e-11, 2e-11), 5, cfg)
        weights = [r.w_left for r in rows]
        assert all(a < b for a, b in zip(weights, weights[1:]))
        assert abs(weights[1] - 0.5) > 0.4 and abs(weights[3] - 0.5) > 0.4

    def test_grid_point_on_the_edge_counts_half_to_each_side(self):
        # x = 0 is a grid point: half of psi(0)^2 h goes to each side, so
        # w_left(0) = 1/2 and the mirror b -> -b swaps the weights
        cfg = SolverConfig(half_width=6.0, grid_points=1201, num_levels=1)
        rows = tilt_scan(2.0, (-0.5, 0.5), 5, cfg)
        assert rows[2].tilt == 0.0
        assert rows[2].w_left == pytest.approx(0.5, abs=1e-9)
        for row, mirror in zip(rows, reversed(rows)):
            assert row.w_left == pytest.approx(mirror.w_right, abs=1e-9)

    def test_mirror_tilts_print_equal_weights(self):
        # V(x; b) = V(-x; -b) and each half's weight is its own region sum,
        # so rows j and 6 - j swap their weights to all ten printed digits;
        # as 1 - w_left, w_right(0.3) read 2.2426505097e-14 against
        # w_left(-0.3) = 2.2677614449e-14
        cfg = resolve_solver(tilted_double_well(8.0, -0.3), 1)
        rows = tilt_scan(8.0, (-0.3, 0.3), 7, cfg)
        for row, mirror in zip(rows, reversed(rows)):
            assert f"{row.w_right:.10e}" == f"{mirror.w_left:.10e}"
            assert row.w_left >= 0.0 and row.w_right >= 0.0

    @pytest.mark.parametrize("tilt_range", [(0.5, -0.5), (0.2, 0.2)])
    def test_empty_tilt_range_rejected(self, tilt_range):
        cfg = SolverConfig(half_width=6.0, grid_points=601, num_levels=1)
        with pytest.raises(ValueError, match="lo < hi"):
            tilt_scan(2.0, tilt_range, 5, cfg)
