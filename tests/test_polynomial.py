"""Polynomial arithmetic and root-isolation tests.

Expected values are frozen from independent hand computation / explicit
factorizations noted inline.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiwell import polynomial
from multiwell.polynomial import (Polynomial, Root, RootIsolationError,
                                 brent_root, real_roots)

# V(x) = x^6 - 96 x^4 + 2304 x^2 and its derivative 6x(x^2-16)(x^2-48)
TRIPLE_WELL = Polynomial([0.0, 0.0, 2304.0, 0.0, -96.0, 0.0, 1.0])
TRIPLE_WELL_DERIV = Polynomial([0.0, 4608.0, 0.0, -384.0, 0.0, 6.0])
# x^8 - 8 x^6 + 22 x^4 - 24 x^2, derivative 8x(x^2-1)(x^2-2)(x^2-3)
QUAD_WELL = Polynomial([0.0, 0.0, -24.0, 0.0, 22.0, 0.0, -8.0, 0.0, 1.0])
QUAD_WELL_DERIV = Polynomial([0.0, -48.0, 0.0, 88.0, 0.0, -48.0, 0.0, 8.0])


def poly_from_roots(roots, lead=1.0):
    """Oracle helper: expand lead * prod (x - r) by convolution."""
    p = Polynomial([lead])
    for r in roots:
        p = p * Polynomial([-r, 1.0])
    return p


class TestEvaluate:
    def test_zero_polynomial(self):
        assert Polynomial([0.0])(5.0) == 0.0

    def test_origin_value_vanishes(self):
        assert TRIPLE_WELL(0.0) == 0.0

    def test_outer_minimum_value(self):
        # V(sqrt(48)) = 48^3 - 96*48^2 + 2304*48 = 110592 - 221184 + 110592 = 0
        assert TRIPLE_WELL(math.sqrt(48.0)) == pytest.approx(0.0, abs=1e-8)

    def test_matches_naive_sum(self):
        p = Polynomial([3.0, -2.0, 0.5, 7.0])
        for x in (-2.5, -1.0, 0.0, 0.3, 4.0):
            naive = sum(c * x ** k for k, c in enumerate(p.coeffs))
            assert p(x) == pytest.approx(naive, rel=1e-14)


@pytest.mark.parametrize("coeffs, even", [
    ([0.0, 0.0, 2304.0, 0.0, -96.0, 0.0, 1.0], True),
    ([3.0], True),
    ([0.0], True),
    ([1.0, 0.0, 1.0, 0.0], True),      # a trailing zero is normalized away
    ([0.0, 1e-300, 1.0], False),       # a tilt of any size breaks parity
    ([0.0, 0.0, 1.0, -5e-324, 1.0], False),
    ([0.0, 1.0], False),
])
def test_is_even(coeffs, even):
    assert Polynomial(coeffs).is_even is even


class TestDerivative:
    def test_zero(self):
        assert Polynomial([0.0]).derivative() == Polynomial([0.0])

    def test_triple_well(self):
        assert TRIPLE_WELL.derivative() == TRIPLE_WELL_DERIV

    def test_quad_well(self):
        assert QUAD_WELL.derivative() == QUAD_WELL_DERIV

    def test_quad_well_deriv_factorization(self):
        # 8x(x^2-1)(x^2-2)(x^2-3) expanded by the convolution oracle
        expanded = Polynomial([0.0, 8.0])
        for s in (1.0, 2.0, 3.0):
            expanded = expanded * Polynomial([-s, 0.0, 1.0])
        assert expanded == QUAD_WELL_DERIV


class TestAntiderivative:
    def test_zero(self):
        assert Polynomial([0.0]).antiderivative() == Polynomial([0.0])

    def test_triple_well_derivative_integrates_back(self):
        # 6x(x^2-16)(x^2-48) expanded, then integrated termwise
        dv = Polynomial([0.0, 6.0]) * Polynomial([-16.0, 0.0, 1.0]) \
            * Polynomial([-48.0, 0.0, 1.0])
        assert dv.antiderivative() == TRIPLE_WELL

    def test_constant_fixed_at_zero(self):
        assert Polynomial([1.0, 2.0]).antiderivative()(0.0) == 0.0

    def test_roundtrip_quad_deriv(self):
        p = QUAD_WELL_DERIV
        assert p.antiderivative().derivative() == p

    @given(st.lists(st.floats(-50, 50, allow_subnormal=False),
                    min_size=1, max_size=12))
    def test_derivative_of_antiderivative_is_identity(self, coeffs):
        p = Polynomial(coeffs)
        back = p.antiderivative().derivative()
        assert len(back.coeffs) == len(p.coeffs)
        for a, b in zip(back.coeffs, p.coeffs):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


class TestRealRoots:
    def test_triple_well_stationary_set(self):
        roots = real_roots(TRIPLE_WELL_DERIV, -10.0, 10.0, tol=1e-11)
        expected = [-math.sqrt(48.0), -4.0, 0.0, 4.0, math.sqrt(48.0)]
        assert len(roots) == 5
        for root, want in zip(roots, expected):
            assert root.x == pytest.approx(want, abs=1e-10)
            assert not root.flagged

    def test_no_real_roots(self):
        assert real_roots(Polynomial([1.0, 0.0, 1.0]), -10.0, 10.0) == []

    def test_tilted_root_near_four(self):
        # derivative of the tilted triple well: 6x^5 - 384x^3 + 3 eps x^2 + 4608x;
        # the root near 4 sits at 4 + eps/128 + O(eps^2)
        eps = 0.01
        p = TRIPLE_WELL_DERIV + Polynomial([0.0, 0.0, 3.0 * eps])
        roots = real_roots(p, 3.5, 4.5, tol=1e-12)
        assert len(roots) == 1
        assert abs(roots[0].x - (4.0 + eps / 128.0)) <= 5e-5 * eps * eps

    def test_endpoint_root_found(self):
        p = poly_from_roots([-1.0, 0.5, 2.0])
        roots = real_roots(p, -1.0, 2.0, tol=1e-10)
        assert [pytest.approx(r.x, abs=1e-9) for r in roots] == [-1.0, 0.5, 2.0]

    def test_double_root_flagged(self):
        p = poly_from_roots([1.0, 1.0, -2.0])  # (x-1)^2 (x+2)
        roots = real_roots(p, -3.0, 3.0, tol=1e-10)
        assert len(roots) == 2
        assert roots[0].x == pytest.approx(-2.0, abs=1e-9)
        assert not roots[0].flagged
        assert roots[1].x == pytest.approx(1.0, abs=1e-6)
        assert roots[1].flagged

    def test_multiple_root_at_a_bisection_midpoint(self):
        # 6x^5 - 12x^3 = 6x^3 (x^2 - 2) on [-4, 4]: the first midpoint is the
        # triple root 0, where every Sturm chain member vanishes; counted
        # there, the root at +sqrt(2) went missing
        roots = real_roots(Polynomial([0.0, 0.0, 0.0, -12.0, 0.0, 6.0]),
                           -4.0, 4.0, tol=1e-11)
        assert [r.x for r in roots] == pytest.approx(
            [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], abs=1e-10)

    def test_odd_multiplicity_root_flagged(self):
        # 6x^3 (x^2 - 2): p' = 6x^2 (5x^2 - 6) keeps its sign around the
        # triple root 0, which is a root of the chain's last member,
        # gcd(p, p') ~ x^2; the simple roots +-sqrt(2) are not
        roots = real_roots(Polynomial([0.0, 0.0, 0.0, -12.0, 0.0, 6.0]),
                           -4.0, 4.0, tol=1e-11)
        assert [r.flagged for r in roots] == [False, True, False]

    def test_triple_root_flagged(self):
        roots = real_roots(Polynomial([0.0, 0.0, 0.0, 1.0]), -2.0, 2.0)
        assert len(roots) == 1
        assert roots[0] == Root(0.0, True)

    def test_depth_budget_failure(self, monkeypatch):
        monkeypatch.setattr(polynomial, "_MAX_DEPTH", 1)
        p = poly_from_roots([-2.0, -1.0, 0.0, 1.0, 2.0])
        with pytest.raises(RootIsolationError):
            real_roots(p, -10.0, 10.0, tol=1e-10)

    @pytest.mark.parametrize("pair", [(0.7, 0.7004), (1.37, 1.3701)])
    def test_roots_closer_than_tol_come_back_as_one_flagged_root(self, pair):
        # at tol = 1e-3, 0.7 and 0.7004 share one subdivision leaf until it
        # is narrower than tol, an unresolved cluster (p at its extremum,
        # -4e-8, is too deep for a double root); 1.37 and 1.3701 land in
        # two leaves, and their two roots, within 2 tol, are merged
        roots = real_roots(poly_from_roots(pair), -3.0, 3.0, tol=1e-3)
        assert len(roots) == 1 and roots[0].flagged
        assert all(abs(roots[0].x - r) <= 1e-3 for r in pair)

    @pytest.mark.parametrize("lo", [-3.0, -2.9])
    def test_leaf_starting_on_a_root_keeps_its_own_root(self, lo):
        # x^2 - 1e-4 x, roots 0 and 1e-4, at tol = 1e-3: on [-3, 3] the first
        # midpoint is the root 0, and the leaf (0, 3.001] starts on it; a
        # step of tol inside passed the leaf's own root, and isolation
        # failed.  The step now shrinks until the leaf keeps its root, and
        # both intervals give the pair as one flagged root
        roots = real_roots(Polynomial([0.0, -1e-4, 1.0]), lo, 3.0, tol=1e-3)
        assert len(roots) == 1 and roots[0].flagged
        assert all(abs(roots[0].x - r) <= 1e-3 for r in (0.0, 1e-4))

    @pytest.mark.parametrize("lo, hi, message", [
        (1.0, 2.0, "no sign change"), (-1.0, 1.0, "does not touch zero")])
    def test_even_multiplicity_root_refuses_a_miscount(self, lo, hi, message):
        # x^2 + 1 has no root: a count that claims one in [lo, hi] is
        # refused, whether p' keeps its sign there or p at p's extremum
        # lies above 0
        p = Polynomial([1.0, 0.0, 1.0])
        with pytest.raises(RootIsolationError, match=message):
            polynomial._even_multiplicity_root(p, p.derivative(), lo, hi,
                                               1e-10)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            real_roots(TRIPLE_WELL, 1.0, -1.0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_roots(Polynomial([0.0]), -1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(raw=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5),
           lead=st.sampled_from([1.0, -0.5, 3.0]),
           q=st.none() | st.floats(0.5, 4.0))
    # 3x^2 - 0.75x + 5e-324: unit scaling flushes the constant to 0, so the
    # Sturm counts see a root at exactly 0 that p itself does not have
    @example(raw=[0.25, 5e-324], lead=3.0, q=None)
    def test_planted_roots_recovered(self, raw, lead, q):
        # tol sits above the coefficient-rounding noise of the expansion
        # oracle (~1e-9 for clustered roots near |x|=8); separation is
        # far beyond the required 10*tol
        tol = 1e-8
        roots = sorted(raw)
        for i in range(1, len(roots)):
            if roots[i] - roots[i - 1] < 0.25:
                roots[i] = roots[i - 1] + 0.25
        p = poly_from_roots(roots, lead)
        if q is not None:  # extra irreducible quadratic factor
            p = p * Polynomial([q, 0.0, 1.0])
        found = real_roots(p, -20.0, 20.0, tol=tol)
        assert len(found) == len(roots)
        for got, want in zip(found, roots):
            assert abs(got.x - want) <= tol


def sturm_roots(p, lo, hi, tol):
    """real_roots of p by the Sturm path alone, the closed form off."""
    with mock.patch.object(polynomial, "_quadratic_roots",
                           lambda p, tol: None):
        return real_roots(p, lo, hi, tol=tol)


def assert_same_roots(got, want, tol):
    """Equal counts and flags, and each root within tol of its partner."""
    assert [r.flagged for r in got] == [r.flagged for r in want]
    assert all(abs(g.x - w.x) <= tol for g, w in zip(got, want))


class TestQuadraticRoots:
    """The closed-form branch of real_roots against its Sturm path."""

    @settings(max_examples=100, deadline=None)
    @given(first=st.floats(-8.0, 8.0), gap=st.floats(0.25, 8.0),
           lead=st.sampled_from([1.0, -0.5, 3.0, 1e-6, 1e6]),
           tol=st.sampled_from([1e-12, 1e-10, 1e-6]))
    def test_separated_roots_agree_with_sturm(self, first, gap, lead, tol):
        p = poly_from_roots([first, first + gap], lead)
        assert polynomial._quadratic_roots(p, tol) is not None
        roots = real_roots(p, -20.0, 20.0, tol=tol)
        assert len(roots) == 2 and not any(r.flagged for r in roots)
        assert_same_roots(roots, sturm_roots(p, -20.0, 20.0, tol), tol)

    @pytest.mark.parametrize("coeffs", [
        (1.0, 0.0, 1.0), (5.0, 2.0, 1.0), (-3.0, 1.0, -1.0),
        (1e-300, 0.0, 1e-300), (1.0 + 1e-6, -2.0, 1.0)])
    def test_negative_discriminant_gives_no_root(self, coeffs):
        p = Polynomial(coeffs)
        assert polynomial._quadratic_roots(p, 1e-10) == []
        assert real_roots(p, -10.0, 10.0) == [] == \
            sturm_roots(p, -10.0, 10.0, 1e-10)

    @pytest.mark.parametrize("roots, lo, hi, tol, kept", [
        ((-1.0, 2.0), -1.0, 2.0, 1e-10, 2),          # on lo and hi
        ((-1.25, 2.25), -1.0, 2.0, 0.5, 2),          # within tol outside
        ((-1.0 - 3e-10, 2.0 + 3e-10), -1.0, 2.0, 1e-10, 0),  # just outside
        ((-1.0 + 3e-10, 2.0 - 3e-10), -1.0, 2.0, 1e-10, 2),  # just inside
        ((-1.0, 3.0), 0.0, 2.0, 1e-10, 0)])          # both far outside
    def test_ends_keep_and_drop_roots_as_sturm_does(self, roots, lo, hi,
                                                    tol, kept):
        # the Sturm counts cover (lo - tol, hi + tol]
        p = poly_from_roots(roots)
        assert polynomial._quadratic_roots(p, tol) is not None
        found = real_roots(p, lo, hi, tol=tol)
        assert len(found) == kept
        assert_same_roots(found, sturm_roots(p, lo, hi, tol), tol)

    @pytest.mark.parametrize("p", [
        poly_from_roots([1.0, 1.0]), poly_from_roots([1.0, 1.0 + 1e-12]),
        poly_from_roots([1.0, 1.0 + 1e-9]), poly_from_roots([1.0, 1.0 + 1e-7]),
        Polynomial([1.0 + 1e-15, -2.0, 1.0]),
        Polynomial([1.0 + 1e-14, -2.0, 1.0])],
        ids=["double", "1e-12", "1e-9", "1e-7", "complex-3e-8", "complex-1e-7"])
    def test_near_double_roots_are_left_to_sturm_and_flagged(self, p):
        # roots or a complex pair closer together than the formula's
        # rounding can resolve at tol: the Sturm path flags one root
        assert polynomial._quadratic_roots(p, 1e-10) is None
        roots = real_roots(p, -3.0, 3.0, tol=1e-10)
        assert len(roots) == 1 and roots[0].flagged
        assert abs(roots[0].x - 1.0) <= 1e-6

    @pytest.mark.parametrize("c", [1.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -51,
                                   1.0 + 2.0 ** -52])
    def test_discriminant_within_its_rounding_is_left_to_sturm(self, c):
        # x^2 - 2x + c: d = 4 - 4c lies within its rounding error of 0, so
        # its sign is unknown, however loose tol is
        p = Polynomial([c, -2.0, 1.0])
        assert polynomial._quadratic_roots(p, 1e-3) is None

    @pytest.mark.parametrize("coeffs", [(1e307, -3e307, 1e307),
                                        (1e-300, -3e-300, 1e-300)])
    def test_extreme_coefficients_are_scaled_first(self, coeffs):
        # x^2 - 3x + 1 times 1e307 or 1e-300: b^2 neither overflows nor
        # underflows once the coefficients are unit-scaled
        roots = real_roots(Polynomial(coeffs), -10.0, 10.0, tol=1e-12)
        want = [(3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0]
        assert [r.x for r in roots] == pytest.approx(want, abs=1e-12)


class Recorder:
    """Wraps f and records every point it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.f(x)


class TestBrentRoot:
    def test_smooth_function_beats_bisection(self):
        def f(x):
            return math.exp(x) - 2.0
        brent = Recorder(f)
        x, fx = brent_root(brent, 0.0, 3.0, f(0.0), f(3.0), 1e-12)
        assert abs(x - math.log(2.0)) <= 1e-12
        assert len(brent.points) <= 10
        # bisection needs ceil(log2(3 / 1e-12)) = 42 halvings
        assert 3 * len(brent.points) < math.ceil(math.log2(3.0 / 1e-12))

    def test_infinite_ends_converge_inside(self):
        def f(x):
            if x < 0.2:
                return math.inf
            if x > 0.9:
                return -math.inf
            return 0.3025 - x * x
        rec = Recorder(f)
        x, fx = brent_root(rec, 0.0, 1.0, math.inf, -math.inf, 1e-10)
        assert abs(x - 0.55) <= 1e-10
        assert all(0.0 <= p <= 1.0 for p in rec.points)

    def test_infinite_step_converges_inside(self):
        # the first secant step from (0, 0.1) and (1, -1) lands at 1/11,
        # inside the +inf plateau
        def f(x):
            if x <= 0.05:
                return 0.1
            if x < 0.6:
                return math.inf
            return (0.7 - x) * 10.0 / 3.0
        rec = Recorder(f)
        x, fx = brent_root(rec, 0.0, 1.0, 0.1, -1.0, 1e-10)
        assert math.inf in [f(p) for p in rec.points]
        assert abs(x - 0.7) <= 1e-10
        assert all(0.0 <= p <= 1.0 for p in rec.points)

    def test_zero_at_left_end_returns_it(self):
        def f(x):
            raise AssertionError("no evaluation needed")
        assert brent_root(f, 1.0, 2.0, 0.0, 5.0, 1e-9) == (1.0, 0.0)

    def test_returned_value_is_f_at_x(self):
        def f(x):
            return x ** 3 - 2.0 * x - 5.0
        x, fx = brent_root(f, 2.0, 3.0, f(2.0), f(3.0), 1e-9)
        assert fx == f(x)
        assert abs(x - 2.0945514815423265) <= 1e-9

    def test_rejects_unbracketed_interval(self):
        with pytest.raises(ValueError, match="differ in sign"):
            brent_root(math.exp, 0.0, 1.0, 1.0, math.e, 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(root=st.floats(-1.0, 1.0), left=st.floats(1e-3, 2.0),
           right=st.floats(1e-3, 2.0), p=st.floats(-2.0, 2.0),
           extra=st.floats(0.1, 3.0), lead=st.sampled_from([1.0, -0.5, 4.0]),
           tol=st.sampled_from([1e-4, 1e-8, 1e-10, 0.0]))
    @example(root=0.0, left=1.0, right=1.0, p=0.0, extra=1.0, lead=1.0,
             tol=0.0)
    @example(root=1e-300, left=1.0, right=2.0, p=1.0, extra=0.5, lead=-0.5,
             tol=0.0)
    @example(root=-1e-300, left=2.0, right=1e-3, p=-2.0, extra=3.0, lead=4.0,
             tol=0.0)
    def test_random_cubic(self, root, left, right, p, extra, lead, tol):
        # (x - root) * (x^2 + p x + q) with q > p^2/4: one real root, whose
        # sign change the factored form evaluates exactly, except that it
        # underflows to 0 within 10 subnormal steps (|lead * (x^2 + p x + q)|
        # >= 0.05) of a subnormal root; tol = 0 refines to a few ulps
        q = 0.25 * p * p + extra
        rec = Recorder(lambda x: lead * (x - root) * (x * x + p * x + q))
        a, b = root - left, root + right
        x, fx = brent_root(rec, a, b, rec.f(a), rec.f(b), tol)
        assert abs(x - root) <= tol + 4.0 * 2.0 ** -52 * abs(x) + 1e-322
        assert fx == rec.f(x)
        assert all(a <= pt <= b for pt in rec.points)
        assert len(rec.points) <= 32  # bisection to 0 from 1 takes ~1075


class TestAlgebra:
    def test_trailing_zeros_normalized(self):
        assert Polynomial([1.0, 2.0, 0.0, 0.0]) == Polynomial([1.0, 2.0])

    def test_zero_is_canonical(self):
        assert Polynomial([0.0, 0.0, 0.0]) == Polynomial([0.0])
        assert Polynomial([0.0]).is_zero

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, math.inf])

    def test_from_descending(self):
        assert Polynomial.from_descending([1, 0, -96, 0, 2304, 0, 0]) == TRIPLE_WELL

    def test_degree(self):
        assert TRIPLE_WELL.degree == 6
        assert Polynomial([0.0]).degree == 0
