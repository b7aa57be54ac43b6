"""Well-shape builders, closed forms, critical points, and perturbation shifts."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiwell.polynomial import Polynomial
from multiwell.wells import (DegenerateWellError, PerturbationRangeError,
                             WellShape, _isolation_tol, build_symmetric,
                             closed_form_n2, closed_form_n3, critical_points,
                             harmonic_wells, perturbed_extrema_n2,
                             stationary_window, tilted_well_minimum,
                             triple_well)

widths = st.floats(0.3, 4.0)


class TestWellShape:
    def test_from_widths_accumulates_squares(self):
        shape = WellShape.from_widths(4.0, math.sqrt(32.0))
        assert shape.increments == pytest.approx((16.0, 48.0))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            WellShape((4.0, 2.0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WellShape((-1.0, 2.0))

    def test_deep_gate(self):
        assert WellShape((16.0, 48.0)).is_deep
        assert not WellShape((0.5, 48.0)).is_deep
        assert not WellShape((16.0, 16.5)).is_deep

    def test_scaled(self):
        assert WellShape((1.0, 2.0)).scaled(3.0).increments == \
            pytest.approx((9.0, 18.0))


class TestBuildSymmetric:
    def test_triple_well(self):
        p = build_symmetric(WellShape((16.0, 48.0)))
        assert p.coeffs == pytest.approx(
            (0.0, 0.0, 2304.0, 0.0, -96.0, 0.0, 1.0), rel=1e-14)

    def test_triple_well_family(self):
        assert triple_well(4.0, 0.0) == build_symmetric(WellShape((16.0, 48.0)))
        assert triple_well(4.0, 0.5) == build_symmetric(WellShape((16.0, 56.0)))

    def test_quad_well(self):
        p = build_symmetric(WellShape((1.0, 2.0, 3.0)))
        assert p.coeffs == pytest.approx(
            (0.0, 0.0, -24.0, 0.0, 22.0, 0.0, -8.0, 0.0, 1.0), rel=1e-14)

    def test_degenerate_single_increment(self):
        assert build_symmetric(WellShape((0.0,))) == \
            Polynomial([0.0, 0.0, 0.0, 0.0, 1.0])

    def test_derivative_roots_match_shape(self):
        shape = WellShape((2.0, 5.0, 9.0))
        p = build_symmetric(shape)
        dv = p.derivative()
        assert dv(0.0) == 0.0
        for s in shape.increments:
            assert dv(math.sqrt(s)) == pytest.approx(0.0, abs=1e-9)

    @given(st.lists(st.floats(0.2, 9.0), min_size=1, max_size=5))
    def test_derivative_equals_factorized_product(self, raw):
        # independent oracle: expand (2N+2) x prod (x^2 - s_k) with numpy
        import numpy.polynomial.polynomial as npoly
        increments = []
        total = 0.0
        for step in raw:
            total += step
            increments.append(total)
        shape = WellShape(tuple(increments))
        got = build_symmetric(shape).derivative().coeffs
        want = [0.0, 2.0 * shape.order + 2.0]
        for s in shape.increments:
            want = list(npoly.polymul(want, [-s, 0.0, 1.0]))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


class TestClosedForms:
    def test_n2_zero(self):
        assert closed_form_n2(0.0, 0.0) == (0.0, 0.0)

    def test_n2_reference_point(self):
        a, c = closed_form_n2(4.0, math.sqrt(32.0))
        assert a == pytest.approx(-96.0, rel=1e-14)
        assert c == pytest.approx(2304.0, rel=1e-14)

    @given(widths, widths)
    def test_n2_matches_builder(self, alpha, beta):
        a, c = closed_form_n2(alpha, beta)
        p = build_symmetric(WellShape.from_widths(alpha, beta))
        assert p.coeffs[4] == pytest.approx(a, rel=1e-12)
        assert p.coeffs[2] == pytest.approx(c, rel=1e-12)
        assert p.coeffs[6] == 1.0

    def test_n3_unit_point(self):
        forms = closed_form_n3(1.0, 1.0, 1.0)
        assert forms.a == pytest.approx(-8.0, rel=1e-14)
        assert forms.c == pytest.approx(22.0, rel=1e-14)
        assert forms.f == pytest.approx(-24.0, rel=1e-14)
        assert forms.inner_value == pytest.approx(-9.0, rel=1e-14)
        assert forms.inner_curvature == pytest.approx(32.0, rel=1e-14)
        assert forms.outer_value == pytest.approx(-9.0, rel=1e-14)
        # term-by-term: 16 + 16 + 32 + 16 + 16
        assert forms.outer_curvature == pytest.approx(96.0, rel=1e-14)

    def test_n3_degenerate_widths(self):
        forms = closed_form_n3(2.0, 0.0, 0.0)
        assert forms.inner_curvature == 0.0

    @given(widths, widths, widths)
    def test_n3_matches_builder(self, alpha, beta, gamma):
        forms = closed_form_n3(alpha, beta, gamma)
        p = build_symmetric(WellShape.from_widths(alpha, beta, gamma))
        assert p.coeffs[6] == pytest.approx(forms.a, rel=1e-12, abs=1e-12)
        assert p.coeffs[4] == pytest.approx(forms.c, rel=1e-12, abs=1e-12)
        assert p.coeffs[2] == pytest.approx(forms.f, rel=1e-12, abs=1e-12)

    @given(widths, widths, widths)
    def test_n3_diagnostics_against_evaluation(self, alpha, beta, gamma):
        forms = closed_form_n3(alpha, beta, gamma)
        p = build_symmetric(WellShape.from_widths(alpha, beta, gamma))
        ddp = p.derivative().derivative()
        x_in = alpha
        x_out = math.sqrt(alpha ** 2 + beta ** 2 + gamma ** 2)
        scale = 1.0 + p.magnitude_at(x_out)
        assert p(x_in) == pytest.approx(forms.inner_value, abs=1e-11 * scale)
        assert p(x_out) == pytest.approx(forms.outer_value, abs=1e-11 * scale)
        dscale = 1.0 + ddp.magnitude_at(x_out)
        assert ddp(x_in) == pytest.approx(forms.inner_curvature,
                                          abs=1e-11 * dscale)
        assert ddp(x_out) == pytest.approx(forms.outer_curvature,
                                           abs=1e-11 * dscale)


def _random_even_potentials(count: int, seed: int) -> list[Polynomial]:
    """Half with random even coefficients up to degree 8, half with V' =
    k x prod (x^2 - s_j), some s_j < 0 (no real root), some close (an
    ill-conditioned pair of stationary points)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            coeffs = [0.0] * (2 * rng.randint(1, 4) + 1)
            coeffs[0::2] = [rng.uniform(-10.0, 10.0) for _ in coeffs[0::2]]
            coeffs[-1] = rng.uniform(0.1, 2.0)
            out.append(Polynomial(coeffs))
        else:
            dv = Polynomial([0.0, rng.uniform(0.5, 8.0)])
            for _ in range(rng.randint(1, 3)):
                dv = dv * Polynomial([-rng.uniform(-20.0, 60.0), 0.0, 1.0])
            out.append(dv.antiderivative()
                       + Polynomial([rng.uniform(-5.0, 5.0)]))
    return out


class TestCriticalPoints:
    def test_pure_quartic_degenerate(self):
        pts = critical_points(Polynomial([0.0, 0.0, 0.0, 0.0, 1.0]), 2.0)
        assert len(pts) == 1
        assert pts[0].x == 0.0
        assert pts[0].kind == "degenerate"

    def test_even_without_a_quadratic_term_flags_the_origin(self):
        # x^6 - 3x^4: V' = 6x^3 (x^2 - 2), a triple root at 0 and minima at
        # +-sqrt(2); with no x^2 term V'/x vanishes at 0, so the general
        # isolation runs and flags the origin
        pts = critical_points(Polynomial([0.0, 0.0, 0.0, 0.0, -3.0, 0.0, 1.0]),
                              3.0)
        assert [c.kind for c in pts] == ["min", "degenerate", "min"]
        assert abs(pts[1].x) <= 3e-11    # unpolished: the isolation tolerance
        assert [pts[0].x, pts[2].x] == pytest.approx(
            [-math.sqrt(2.0), math.sqrt(2.0)], abs=1e-15)

    @pytest.mark.parametrize("p", [triple_well(4.0, 0.0),
                                   triple_well(3.5, 0.0026),
                                   build_symmetric(WellShape((1.0, 2.0, 3.0))),
                                   Polynomial([0.0, 0.0, -1.0, 0.0, 1.0]),
                                   Polynomial([0.0, 0.0, 1.0])])
    def test_even_potential_gives_exact_mirror_pairs(self, p):
        # V'(x) = x q(x^2) on the parity path: the points at x < 0 are the
        # bit-exact mirrors of those at x > 0 (the general isolation put
        # the barrier tops of triple_well(4, 0) at -4.0 and 4.000000000000001)
        pts = critical_points(p, 9.0)
        assert len(pts) % 2 == 1 and pts[len(pts) // 2].x == 0.0
        for a, b in zip(pts, reversed(pts)):
            assert (a.x, a.value, a.curvature, a.kind) == \
                (-b.x, b.value, b.curvature, b.kind)
        if p == triple_well(4.0, 0.0):
            assert [c.x for c in pts if c.kind == "max"] == [-4.0, 4.0]

    def test_parity_path_agrees_with_the_general_path(self, monkeypatch):
        # same count and kinds on 2,000 random even potentials (6,138
        # points, none degenerate); x within 2 ulps, or within twice the
        # rounding noise eps * |V'|_terms / |V''| of an ill-conditioned
        # root, where both paths' Newton steps stop at an arbitrary point
        # of that noise band
        potentials = _random_even_potentials(2000, seed=2021)
        parity = [critical_points(p, stationary_window(p)) for p in potentials]
        monkeypatch.setattr(Polynomial, "is_even", property(lambda p: False))
        eps = 2.0 ** -52
        for p, got in zip(potentials, parity):
            want = critical_points(p, stationary_window(p))
            assert [c.kind for c in got] == [c.kind for c in want], p
            dv = p.derivative()
            for a, b in zip(got, want):
                noise = eps * dv.magnitude_at(b.x) / abs(b.curvature)
                assert abs(a.x - b.x) <= max(2.0 * math.ulp(b.x),
                                             2.0 * noise), (p, a, b)

    def test_triple_well_classification(self):
        p = build_symmetric(WellShape((16.0, 48.0)))
        pts = critical_points(p, 9.0)
        kinds = [(round(c.x, 6), c.kind) for c in pts]
        r = round(math.sqrt(48.0), 6)
        assert kinds == [(-r, "min"), (-4.0, "max"), (0.0, "min"),
                         (4.0, "max"), (r, "min")]
        # V'' = 30x^4 - 1152x^2 + 4608 at the maxima
        for c in pts:
            if c.kind == "max":
                assert c.curvature == pytest.approx(
                    30 * c.x ** 4 - 1152 * c.x ** 2 + 4608, rel=1e-9)

    def test_tilted_stationary_pattern(self):
        eps = 0.01
        base = build_symmetric(WellShape((16.0, 48.0)))
        p = base + Polynomial.monomial(3, eps)
        xs = [c.x for c in critical_points(p, 9.0)]
        r = math.sqrt(48.0)
        shift = eps / 128.0
        assert len(xs) == 5
        assert xs[0] == pytest.approx(-r - shift, abs=1e-6)
        assert xs[1] == pytest.approx(-4.0 + shift, abs=1e-6)
        assert abs(xs[2]) < 1e-4
        assert xs[3] == pytest.approx(4.0 + shift, abs=1e-6)
        assert xs[4] == pytest.approx(r - shift, abs=1e-6)

    def test_window_precondition(self):
        p = build_symmetric(WellShape((16.0, 48.0)))
        with pytest.raises(ValueError, match="window"):
            critical_points(p, 3.0)  # stationary points at 4 and sqrt(48) outside

    def test_point_far_beyond_the_window_raises(self):
        # stationary points at 0, +-3 and +-20: the pair at +-20 lies twice
        # as far out as the window
        p = build_symmetric(WellShape((9.0, 400.0)))
        with pytest.raises(ValueError, match="window"):
            critical_points(p, 10.0)
        with pytest.raises(ValueError, match="window"):
            harmonic_wells(p, 10.0)

    @settings(max_examples=60, deadline=None)
    @given(first=st.floats(0.25, 30.0),
           gaps=st.lists(st.floats(0.25, 30.0), max_size=2),
           margin=st.floats(0.0, 20.0), short=st.floats(1e-6, 1.0))
    def test_every_stationary_point_or_a_window_error(self, first, gaps,
                                                      margin, short):
        # V' = (2N+2) x prod (x^2 - s_k): 2N+1 stationary points, at 0 and
        # +-sqrt(s_k), whatever window holds them all
        increments = [first]
        for gap in gaps:
            increments.append(increments[-1] + gap)
        p = build_symmetric(WellShape(tuple(increments)))
        radii = [math.sqrt(s) for s in increments]
        window = radii[-1] + margin
        xs = [c.x for c in critical_points(p, window)]
        expected = sorted([-r for r in radii] + [0.0] + radii)
        assert xs == pytest.approx(expected, abs=1e-11 * max(1.0, window))
        tight = radii[-1] - 1e-6 - short * radii[-1]
        if tight > 0.0:
            with pytest.raises(ValueError, match="window"):
                critical_points(p, tight)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1.0, 8.0), st.floats(-0.5, 0.5))
    def test_maxima_polished_onto_the_barrier_tops(self, alpha, delta):
        # region edges sit on the root to a few ulps, not anywhere within
        # the 1e-11 * window isolation tolerance
        p = triple_well(alpha, delta)
        tops = [c.x for c in critical_points(p, alpha * math.sqrt(3.0 + delta)
                                             + 1.0) if c.kind == "max"]
        assert len(tops) == 2
        assert all(abs(abs(x) - alpha) <= 8 * math.ulp(alpha) for x in tops)

    @pytest.mark.parametrize("delta, error", [
        (-1.99999, 8.7e-12), (-1.999, 7.3e-13), (-1.9, 4.5e-15)])
    def test_maxima_beside_minima_reach_the_roundoff_floor(self, delta,
                                                           error):
        # near delta = -2 the outer minima close in on the maxima at +-4,
        # V'' shrinks there, and the polished maxima stop at the roundoff
        # floor ulp * |V'|(x) / |V''(x)| the docstring states, still inside
        # the isolation tolerance that region edges allow
        p = triple_well(4.0, delta)
        dv = p.derivative()
        tops = [c for c in critical_points(p, 10.0) if c.kind == "max"]
        assert len(tops) == 2
        for top in tops:
            off = abs(abs(top.x) - 4.0)
            assert off <= error
            assert off <= math.ulp(1.0) * dv.magnitude_at(top.x) / abs(
                top.curvature)
            assert off <= _isolation_tol(10.0)

    @pytest.mark.parametrize("alpha, delta", [(3.5, -0.05), (4.0, 0.0),
                                              (6.0, 0.05), (4.0, -1.9)])
    def test_quadratic_q_needs_no_sturm_chain(self, monkeypatch, alpha,
                                              delta):
        # V' = x q(x^2) with q a quadratic: the closed form places its
        # roots, and the points are the same on every window that holds them
        from multiwell import polynomial

        def refused(p):
            raise AssertionError("Sturm chain built")
        monkeypatch.setattr(polynomial, "_sturm_chain", refused)
        p = triple_well(alpha, delta)
        reach = alpha * math.sqrt(3.0 + delta)
        lists = [critical_points(p, reach + margin)
                 for margin in (0.5, 10.0, 1e3)]
        assert len(lists[0]) == 5
        assert lists[0] == lists[1] == lists[2]

    def test_harmonic_wells_read_the_polished_minima(self):
        p = build_symmetric(WellShape((16.0, 48.0)))
        minima = [c for c in critical_points(p, 9.0) if c.kind == "min"]
        assert [(w.x, w.v, w.g) for w in harmonic_wells(p, 9.0)] == \
            [(c.x, c.value, 0.5 * c.curvature) for c in minima]

    def test_sorted_ascending(self):
        p = build_symmetric(WellShape((1.0, 2.0, 3.0)))
        xs = [c.x for c in critical_points(p, 4.0)]
        assert xs == sorted(xs)


class TestHarmonicWells:
    def test_triple_well_data(self):
        p = build_symmetric(WellShape((16.0, 48.0)))
        wells = harmonic_wells(p, 9.0)
        assert len(wells) == 3
        r = math.sqrt(48.0)
        assert [w.x for w in wells] == pytest.approx([-r, 0.0, r], abs=1e-9)
        assert [w.v for w in wells] == pytest.approx([0.0, 0.0, 0.0], abs=1e-7)
        assert [w.g for w in wells] == pytest.approx([9216.0, 2304.0, 9216.0],
                                                     rel=1e-9)

    def test_single_well(self):
        wells = harmonic_wells(Polynomial([0.0, 0.0, 1.0, 0.0, 1.0]), 3.0)
        assert len(wells) == 1
        assert wells[0].x == pytest.approx(0.0, abs=1e-10)
        assert wells[0].v == pytest.approx(0.0, abs=1e-10)
        assert wells[0].g == pytest.approx(1.0, rel=1e-10)

    def test_degenerate_minimum_refused(self):
        with pytest.raises(DegenerateWellError, match="x=0"):
            harmonic_wells(Polynomial([0.0, 0.0, 0.0, 0.0, 1.0]), 2.0)

    @pytest.mark.parametrize("base", [WellShape((1.0, 2.0)),
                                      WellShape((1.0, 2.0, 3.0))])
    def test_scaling_exponents(self, base):
        # widths scaled by lam: outermost well has v ~ lam^(2N+2),
        # g ~ lam^(2N), x ~ lam; fit the log-log slopes
        n = base.order
        lams = [2.0, 4.0, 8.0, 16.0]
        logs_v, logs_g, logs_x = [], [], []
        for lam in lams:
            shape = base.scaled(lam)
            window = math.sqrt(shape.increments[-1]) + 2.0
            outer = harmonic_wells(build_symmetric(shape), window)[-1]
            logs_v.append(math.log(abs(outer.v)))
            logs_g.append(math.log(outer.g))
            logs_x.append(math.log(outer.x))
        def slope(ys):
            xs = [math.log(l) for l in lams]
            xm = sum(xs) / len(xs)
            ym = sum(ys) / len(ys)
            return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / \
                sum((x - xm) ** 2 for x in xs)
        assert slope(logs_v) == pytest.approx(2 * n + 2, rel=0.01)
        assert slope(logs_g) == pytest.approx(2 * n, rel=0.01)
        assert slope(logs_x) == pytest.approx(1.0, rel=0.01)


def brute_force_tilted_minimum(f, g, x, lam, m=1):
    """Oracle: staged grid minimization of t * (lam^(2m+2) f + lam^(2m) g (t-lam x)^2).

    For f <= 0 the minimum sits in [lam*x, lam*(x + sqrt(|f|/(3g)))]; the
    local maximum stays below lam*x/3, so the window is unimodal.
    """
    def func(t):
        return t * (lam ** (2 * m + 2) * f + lam ** (2 * m) * g * (t - lam * x) ** 2)
    lo = 0.9 * lam * x
    hi = lam * (x + math.sqrt(abs(f) / (3.0 * g)) + 0.1)
    for _ in range(8):
        step = (hi - lo) / 400.0
        ts = [lo + i * step for i in range(401)]
        best = min(ts, key=func)
        lo, hi = best - step, best + step
    return 0.5 * (lo + hi)


class TestTiltedWellMinimum:
    def test_flat_bottom_no_shift(self):
        x0, delta = tilted_well_minimum(0.0, 2.0, 1.5, lam=3.0)
        assert delta == 0.0
        assert x0 == pytest.approx(4.5)

    def test_worked_case(self):
        # stationary condition reduces to 3t^2 - 8t + 3 = 0; larger root
        x0, delta = tilted_well_minimum(-1.0, 1.0, 2.0)
        assert x0 == pytest.approx((8.0 + math.sqrt(28.0)) / 6.0, rel=1e-14)
        assert delta == pytest.approx(0.1076252185, abs=1e-9)

    def test_shift_is_scale_independent(self):
        _, d1 = tilted_well_minimum(-1.0, 1.0, 2.0, lam=1.0)
        _, d10 = tilted_well_minimum(-1.0, 1.0, 2.0, lam=10.0)
        assert d1 == d10

    def test_scaled_case_against_grid(self):
        lam = 10.0
        x0, _ = tilted_well_minimum(-1.0, 1.0, 2.0, lam=lam)
        assert x0 == pytest.approx(
            brute_force_tilted_minimum(-1.0, 1.0, 2.0, lam), abs=1e-5 * lam)

    def test_negative_discriminant(self):
        with pytest.raises(ValueError, match="no real extremum pair"):
            tilted_well_minimum(2.0, 1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-5.0, -0.01), st.floats(0.1, 5.0), st.floats(0.5, 3.0))
    def test_matches_grid_minimization(self, f, g, x):
        x0, _ = tilted_well_minimum(f, g, x)
        assert x0 == pytest.approx(brute_force_tilted_minimum(f, g, x, 1.0),
                                   abs=1e-6)


class TestPerturbedExtrema:
    def test_symmetric_limit(self):
        pe = perturbed_extrema_n2(4.0, math.sqrt(32.0), 0.0)
        r = math.sqrt(48.0)
        assert pe.stationary_points == pytest.approx(
            (-r, -4.0, 0.0, 4.0, r), abs=1e-9)
        assert pe.u2 == pytest.approx(1.0 / 128.0)

    def test_reference_values(self):
        pe = perturbed_extrema_n2(4.0, math.sqrt(32.0), 0.01)
        assert pe.p2 == pe.q2 == pe.u2 == pe.v2 == pytest.approx(0.0078125)
        assert pe.u2_correction == pytest.approx(96.0 / 4194304.0, rel=1e-12)
        assert pe.u2 > 0.0

    def test_richardson_second_order(self):
        # the numeric root near alpha minus (alpha + eps*u2) shrinks ~4x
        # when eps halves
        residuals = []
        for eps in (0.02, 0.01):
            pe = perturbed_extrema_n2(4.0, math.sqrt(32.0), eps)
            near = min(pe.stationary_points, key=lambda s: abs(s - 4.0))
            residuals.append(abs(near - (4.0 + eps * pe.u2)))
        ratio = residuals[0] / residuals[1]
        assert 3.0 < ratio < 5.0

    def test_gate(self):
        with pytest.raises(PerturbationRangeError, match="critical_points"):
            perturbed_extrema_n2(4.0, math.sqrt(32.0), 7.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            perturbed_extrema_n2(0.0, 1.0, 0.0)
