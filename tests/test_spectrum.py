"""Harmonic estimates, the finite-difference eigensolver, and level labeling."""

import dataclasses
import importlib.machinery
import importlib.util
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.linalg.lapack
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf

from multiwell import crossings, spectrum, wells
from multiwell.crossings import AlcQuery, solve_crossing
from multiwell.polynomial import (ParameterError, Polynomial, brent_root,
                                  real_roots)
from multiwell.spectrum import (ConvergenceError, DomainEstimateError,
                                SolverConfig,
                                choose_domain, classify_levels,
                                grid_points_for, harmonic_families,
                                harmonic_spectrum_n2, resolve_solver,
                                solve_numerical, well_weights)
from multiwell.wells import (DegenerateWellError, HarmonicWell, WellShape,
                             build_symmetric, critical_points,
                             tilted_double_well, triple_well)

HO = Polynomial([0.0, 0.0, 1.0])  # unit harmonic oscillator x^2
TRIPLE = build_symmetric(WellShape((16.0, 48.0)))


class TestSolverConfig:
    def test_even_grid_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            SolverConfig(half_width=5.0, grid_points=1000)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError, match="201"):
            SolverConfig(half_width=5.0, grid_points=101)

    def test_bad_levels(self):
        with pytest.raises(ValueError):
            SolverConfig(half_width=5.0, grid_points=201, num_levels=0)

    def test_grid_contains_origin(self):
        cfg = SolverConfig(half_width=3.0, grid_points=301)
        assert 0.0 in cfg.grid()


class TestCentralLevels:
    """The central family of harmonic_families and its levels."""

    def test_reference_triple_well(self):
        family, well = harmonic_families(TRIPLE)[0]
        assert family == "central"
        assert [well.level(n) for n in range(3)] == \
            pytest.approx([48.0, 144.0, 240.0])

    def test_unit_well(self):
        [(family, well)] = harmonic_families(HO)
        assert family == "central"
        assert well.level(0) == pytest.approx(1.0)

    def test_lambda_scales_spacing(self):
        well = harmonic_families(TRIPLE)[0][1]
        assert well.level(1, lam=2.0) - well.level(0, lam=2.0) == \
            pytest.approx(4.0 * 48.0)

    def test_origin_not_a_well(self):
        # x^4: the origin is a degenerate minimum, refused like any other
        with pytest.raises(DegenerateWellError, match="degenerate"):
            harmonic_families(Polynomial([0.0, 0.0, 0.0, 0.0, 1.0]))
        assert issubclass(DegenerateWellError, ValueError)

    def test_origin_not_stationary(self):
        # x + x^2: the only well is at x = -0.5, so nothing is central
        [(family, well)] = harmonic_families(Polynomial([0.0, 1.0, 1.0]))
        assert family == "offcentral"
        assert well.x == pytest.approx(-0.5, abs=1e-12)


class TestOffCentralLevels:
    """The off-central families of harmonic_families and HarmonicWell.level."""

    def test_reference_doublets(self):
        family, well = harmonic_families(TRIPLE)[1]
        assert family == "offcentral"
        assert well.x == pytest.approx(math.sqrt(48.0), rel=1e-12)
        assert [well.level(m) for m in range(2)] == pytest.approx([96.0, 288.0])

    def test_plain_arithmetic(self):
        # v=-5, g=4 -> -5 + (2m+1)*2 = {-3, 1}
        well = HarmonicWell(x=0.0, v=-5.0, g=4.0)
        assert [well.level(m) for m in range(2)] == pytest.approx([-3.0, 1.0])

    def test_ground_state_closed_form(self):
        # v + sqrt(g) at the outer well equals
        # a^6 + 1.5 a^4 b^2 - 0.5 b^6 + sqrt(6 a^2 b^2 + 6 b^4)
        for alpha, beta in ((3.0, 4.0), (4.0, math.sqrt(32.0)), (2.5, 3.5)):
            p = build_symmetric(WellShape.from_widths(alpha, beta))
            family, outer = harmonic_families(p)[-1]
            assert family == "offcentral"
            a2, b2 = alpha**2, beta**2
            want = (a2**3 + 1.5 * a2**2 * b2 - 0.5 * b2**3
                    + math.sqrt(6.0 * a2 * b2 + 6.0 * b2 * b2))
            assert outer.level(0) == pytest.approx(want, rel=1e-9)

    def test_mirror_pairs_ordered_outwards(self):
        # shape (16, 48, 96): the origin is a maximum, and the wells at +-4
        # and +-sqrt(96) are two mirrored families, the inner one first
        families = harmonic_families(build_symmetric(WellShape((16.0, 48.0,
                                                                96.0))))
        assert [family for family, _ in families] == \
            ["offcentral0", "offcentral1"]
        assert [w.x for _, w in families] == \
            pytest.approx([4.0, math.sqrt(96.0)], rel=1e-12)

    def test_asymmetric_wells_each_form_a_family(self):
        # x^4 - 8x^2 + 0.5x: the well whose region holds the origin first;
        # the mirror image of the potential mirrors the names
        for tilt, sign in ((0.5, -1.0), (-0.5, 1.0)):
            families = harmonic_families(Polynomial([0.0, tilt, -8.0, 0.0, 1.0]))
            assert [family for family, _ in families] == \
                ["offcentral0", "offcentral1"]
            assert sign * families[0][1].x > 0.0 > sign * families[1][1].x

    def test_large_root_window_keeps_the_origin_central(self):
        # 1e4 x^2 + x^3 + x^4: the stationary window is about 5000, yet the
        # origin well is found and is central
        [(family, well)] = harmonic_families(Polynomial([0.0, 0.0, 1e4, 1.0,
                                                         1.0]))
        assert family == "central"
        assert abs(well.x) < 1e-15


class TestHarmonicSpectrumN2:
    def test_reference_springs(self):
        hs = harmonic_spectrum_n2(4.0, math.sqrt(32.0), 2, 1)
        assert hs.spring_central == pytest.approx(48.0)
        assert hs.spring_off_central == pytest.approx(96.0)
        assert hs.central == pytest.approx((48.0, 144.0, 240.0))
        assert hs.off_central == pytest.approx((96.0, 288.0))

    @given(st.floats(0.5, 6.0))
    def test_commensurability_on_the_critical_line(self, alpha):
        hs = harmonic_spectrum_n2(alpha, math.sqrt(2.0) * alpha, 0, 0)
        assert hs.spring_off_central / hs.spring_central == \
            pytest.approx(2.0, abs=1e-12)


class TestChooseDomain:
    def test_harmonic_oscillator(self):
        assert choose_domain(HO, 10.0) == 5.0

    def test_reference_triple_well(self):
        assert choose_domain(TRIPLE, 300.0) == 9.5

    def test_pure_sextic(self):
        assert choose_domain(Polynomial([0.0] * 6 + [1.0]), 2.0) == 2.5

    def test_non_confining_rejected(self):
        with pytest.raises(ValueError, match="confining"):
            choose_domain(Polynomial([0.0, 0.0, 0.0, 1.0]), 1.0)
        with pytest.raises(ValueError, match="confining"):
            choose_domain(Polynomial([0.0, 0.0, -1.0]), 1.0)

    def test_grid_points_for(self):
        n = grid_points_for(9.0, 0.005)
        assert n % 2 == 1 and n >= 201
        assert abs(2 * 9.0 / (n - 1) - 0.005) < 1e-5

    def test_grid_points_for_rounds_an_even_count_up(self):
        # 2 / (2/201) asks for 202 points, an even count with no point at
        # x = 0, so the grid takes one more
        assert grid_points_for(1.0, 2.0 / 201.0) == 203

    @pytest.mark.parametrize("half_width, step", [
        (1e300, 0.005), (1e16, 0.005), (1e300, 1e-10), (math.nan, 0.005)])
    def test_grid_points_for_rejects_an_unsizable_grid(self, half_width, step):
        # more points than numpy can size a float array for: 4e302, 4e18
        # (32 EB), inf and nan, each named with the inputs that asked for it
        with pytest.raises(ParameterError, match=re.escape(
                f"half_width={half_width!r} at step={step!r} needs ")):
            grid_points_for(half_width, step)


class TestResolveSolver:
    @pytest.mark.parametrize("p, half_width, grid_points", [
        (triple_well(4.0, 0.0), 9.5, 3801),
        (triple_well(6.0, 0.001), 13.0, 5201),
        (TRIPLE, 9.5, 3801),
        (HO, 4.5, 1801),
        (Polynomial.from_descending([1.0, 0.0, -8.0, 0.5, 0.0]), 5.0, 2001),
    ])
    def test_default_grid(self, p, half_width, grid_points):
        assert resolve_solver(p, 4) == SolverConfig(half_width, grid_points, 4)

    def test_overrides(self):
        # a given half-width needs no well: the linear potential has none
        cfg = resolve_solver(Polynomial([0.0, 5.0]), 2, 0.5,
                             half_width=3.0, step=0.01)
        assert cfg == SolverConfig(3.0, 601, 2, 0.5)

    def test_wellless_potential_needs_half_width(self):
        with pytest.raises(DomainEstimateError, match="half-width"):
            resolve_solver(Polynomial([0.0, 5.0]), 1)

    def test_crossing_default_resolves_the_widest_potential(self):
        q = AlcQuery(1, 2, 4.0, bracket=(-0.01, 0.03), backend="numerical")
        assert crossings._default_numeric_config(q) == \
            resolve_solver(triple_well(4.0, 0.03), 2 * 2 + 2 + 3,
                           step=crossings.CROSSING_STEP)

    def test_well_left_of_the_origin_sizes_the_domain(self):
        # x^4 + 2x: the only well sits near x = -0.79
        p = Polynomial.from_descending([1.0, 0.0, 0.0, 2.0, 0.0])
        assert resolve_solver(p, 4) == SolverConfig(3.5, 1401, 4)

    def test_isolates_the_roots_of_the_derivative_once(self, monkeypatch):
        # one critical-point list serves the wells and the domain bound
        calls = []
        def counting(*args, **kwargs):
            calls.append(args)
            return real_roots(*args, **kwargs)
        for module in (wells, spectrum):  # wherever it is looked up
            monkeypatch.setattr(module, "real_roots", counting, raising=False)
        assert resolve_solver(triple_well(6.0, 0.05), 14) == \
            SolverConfig(13.0, 5201, 14)
        assert len(calls) == 1


class TestSolveNumerical:
    def test_unit_oscillator_calibration(self):
        cfg = SolverConfig(half_width=12.0, grid_points=2401, num_levels=2)
        pairs = solve_numerical(HO, cfg)
        assert abs(pairs[0].energy - 1.0) < 2e-4
        assert abs(pairs[1].energy - 3.0) < 5e-4

    def test_second_order_convergence(self):
        errors = []
        for n in (601, 1201, 2401):
            cfg = SolverConfig(half_width=12.0, grid_points=n, num_levels=1)
            errors.append(abs(solve_numerical(HO, cfg)[0].energy - 1.0))
        assert 3.4 < errors[0] / errors[1] < 4.6
        assert 3.4 < errors[1] / errors[2] < 4.6

    def test_corrected_energy_is_fourth_order(self):
        # energy + error_estimate converges as h^4, and the estimate is the
        # leading part of the raw O(h^2) error
        errors = []
        for n in (601, 1201, 2401):
            cfg = SolverConfig(half_width=12.0, grid_points=n, num_levels=1)
            pair = solve_numerical(HO, cfg)[0]
            raw = 1.0 - pair.energy
            assert abs(pair.error_estimate - raw) <= 1e-3 * abs(raw)
            errors.append(abs(raw - pair.error_estimate))
        assert 13.0 <= errors[0] / errors[1] <= 19.0
        assert 13.0 <= errors[1] / errors[2] <= 19.0

    def test_triple_well_ground_near_harmonic(self):
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=1)
        e0 = solve_numerical(TRIPLE, cfg)[0].energy
        assert abs(e0 - 48.0) / 48.0 < 0.10

    def test_normalization_and_order(self):
        cfg = SolverConfig(half_width=9.0, grid_points=1201, num_levels=6)
        pairs = solve_numerical(TRIPLE, cfg)
        energies = [q.energy for q in pairs]
        assert energies == sorted(energies)
        for q in pairs:
            assert abs(float(q.psi @ q.psi) * q.h - 1.0) < 1e-10

    def test_node_counts(self):
        cfg = SolverConfig(half_width=12.0, grid_points=1201, num_levels=5)
        pairs = solve_numerical(HO, cfg)
        for k, q in enumerate(pairs):
            sig = q.psi[np.abs(q.psi) > 1e-8 * np.abs(q.psi).max()]
            nodes = int(np.sum(sig[:-1] * sig[1:] < 0.0))
            assert nodes == k

    def test_parity_of_symmetric_potential(self):
        # includes the numerically degenerate outer doublet at delta=0.003,
        # where full-grid inverse-iteration vectors mix left/right, and the
        # finite-difference crossing delta*(0, 0) of the h = 0.005 grid,
        # where a central level meets the doublet, as pinned and as solved
        cases = [(0.003, SolverConfig(half_width=9.0, grid_points=1801,
                                      num_levels=4))]
        fine = resolve_solver(triple_well(4.0, 0.05), 5, step=0.005)
        cases += [(0.00260104337, fine),
                  (_raw_crossing(AlcQuery(0, 0, 4.0), fine), fine)]
        for delta, cfg in cases:
            for q in solve_numerical(triple_well(4.0, delta), cfg):
                assert np.max(np.abs(np.abs(q.psi) - np.abs(q.psi[::-1]))) \
                    < 1e-12

    def test_doublet_splitting_shrinks_with_barrier(self):
        # double well x^4 - 2 s x^2: tunneling suppression with barrier growth
        splittings = []
        for s in (1.5, 2.0, 2.5, 3.0):
            p = Polynomial([0.0, 0.0, -2.0 * s, 0.0, 1.0])
            cfg = SolverConfig(half_width=6.0, grid_points=1201, num_levels=2)
            pairs = solve_numerical(p, cfg)
            splittings.append(pairs[1].energy - pairs[0].energy)
        assert all(b < a for a, b in zip(splittings, splittings[1:]))
        assert all(s > 0.0 for s in splittings)

    def test_too_many_levels(self):
        cfg = SolverConfig(half_width=5.0, grid_points=201, num_levels=200)
        with pytest.raises(ValueError, match="levels"):
            solve_numerical(HO, cfg)


def _raw_crossing(q: AlcQuery, cfg: SolverConfig) -> float:
    """delta where the raw grid energies of central-n and the mean of doublet
    m cross: the degenerate point of the discretized operator, which the
    corrected residual of solve_crossing does not land on."""
    def residual(delta: float) -> float:
        p = triple_well(q.alpha, delta)
        labeled = classify_levels(solve_numerical(p, cfg), p)
        doublet = [lv.energy for lv in labeled
                   if lv.label == f"offcentral-{q.m}"]
        central = [lv.energy for lv in labeled
                   if lv.label == f"central-{q.n}"]
        return sum(doublet) / len(doublet) - central[0]

    near = solve_crossing(AlcQuery(q.m, q.n, q.alpha,
                                   backend="numerical")).delta
    lo, hi = near - 5e-4, near + 5e-4
    return brent_root(residual, lo, hi, residual(lo), residual(hi), 1e-10)[0]


def _parity_defect(v: np.ndarray) -> float:
    """Distance of v from its nearer parity part, relative to max |v|."""
    flipped = v[::-1]
    return float(min(np.max(np.abs(v - flipped)), np.max(np.abs(v + flipped)))
                 / np.max(np.abs(v)))


def _unsplit_energies(p: Polynomial, cfg: SolverConfig) -> np.ndarray:
    """Lowest levels of the full-grid operator from one LAPACK solve."""
    x = cfg.grid()
    off = -cfg.lam * cfg.lam / (cfg.step * cfg.step)
    return eigh_tridiagonal(p(x[1:-1]) - 2.0 * off,
                            np.full(cfg.grid_points - 3, off), select="i",
                            select_range=(0, cfg.num_levels - 1),
                            lapack_driver="stebz")[0]


_SYMMETRIC = st.one_of(
    st.builds(triple_well, st.floats(3.0, 5.0), st.floats(-0.01, 0.01)),
    st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3).map(
        lambda widths: build_symmetric(WellShape.from_widths(*widths))))


@settings(max_examples=25, deadline=None)
@given(_SYMMETRIC, st.integers(1, 9))
@example(TRIPLE, 1)
@example(TRIPLE, 8)
@example(triple_well(3.8830612176125454, 0.008684097638228421), 6)
def test_parity_blocks_match_unsplit_operator(p, k):
    # the even and odd half-grid blocks reproduce the full operator's k
    # lowest levels, level j with parity (-1)^j, as an orthonormal set
    cfg = SolverConfig(half_width=choose_domain(p, 0.0), grid_points=801,
                       num_levels=k)
    pairs = solve_numerical(p, cfg)
    for pair, want in zip(pairs, _unsplit_energies(p, cfg), strict=True):
        assert abs(pair.energy - want) <= 1e-9 * max(1.0, abs(want))
    for j, pair in enumerate(pairs):
        mirrored = (-1.0) ** j * pair.psi[::-1]
        assert np.max(np.abs(pair.psi - mirrored)) \
            < 1e-14 * np.max(np.abs(pair.psi))
    psi = np.array([pair.psi for pair in pairs])
    assert np.allclose(psi @ psi.T * cfg.step, np.eye(k), rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.one_of(_SYMMETRIC, st.builds(tilted_double_well, st.floats(2.0, 6.0),
                                       st.floats(0.05, 0.5))),
       st.integers(0, 8), st.integers(1, 4))
@example(TRIPLE, 0, 3)
@example(TRIPLE, 1, 1)
@example(TRIPLE, 8, 3)
def test_window_matches_the_full_solve(p, first, k):
    # levels first .. first + k - 1 alone, of a symmetric potential (two
    # parity blocks) or a tilted one (one block), are those levels of the
    # full solve: energies within stebz's tolerance, vectors to 1e-12 in
    # |<v, v_ref>|, and the same error_estimate
    cfg = SolverConfig(half_width=choose_domain(p, 0.0), grid_points=801,
                       num_levels=first + k)
    full = solve_numerical(p, cfg)[first:]
    window = solve_numerical(p, dataclasses.replace(cfg, num_levels=k),
                             first=first)
    x = cfg.grid()
    off = -1.0 / (cfg.step * cfg.step)
    tol = spectrum._tolerance(p(x[1:-1]) - 2.0 * off,
                              np.full(cfg.grid_points - 3, off))
    for got, want in zip(window, full, strict=True):
        assert abs(got.energy - want.energy) <= tol
        assert abs(got.psi @ want.psi) * cfg.step >= 1.0 - 1e-12
        assert got.error_estimate == pytest.approx(want.error_estimate,
                                                   rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("first, k", [(-1, 3), (797, 3), (0, 800)])
def test_window_outside_the_grid_raises(first, k):
    # the levels of a window must exist on the grid's 799 interior points
    cfg = SolverConfig(half_width=9.0, grid_points=801, num_levels=k)
    with pytest.raises(ParameterError, match="interior points"):
        solve_numerical(TRIPLE, cfg, first=first)


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_window_fallback_raises_when_a_routine_reports_failure(fail_lapack,
                                                               routine):
    # a window of a block without rungs takes bisection by index
    fail_lapack(routine)
    diag, off = np.linspace(2.0, 3.0, 401), np.full(400, -1.0)
    with pytest.raises(ConvergenceError,
                       match=rf"{routine} info=1 \(grid_points=401, h="):
        spectrum._lowest(diag, off, 3, SolverConfig(1.0, 401), None, 2)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(0.5, 3.0), min_size=1, max_size=2),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_lambda_scaling_of_numerical_energies(widths, s, lam):
    # x -> s*x maps -lam^2 d2/dx2 + V on [-L, L] onto s^(2N+2) times
    # -(lam*s^-(N+2))^2 d2/dx2 + V(x/s) on [-sL, sL], point for point: the
    # grid eigenvalues and their corrections scale exactly.  A level near
    # E = 0 carries the absolute roundoff of the whole spectrum, so errors
    # are relative to its largest |E|.
    shape = WellShape.from_widths(*widths)
    order = shape.order
    base = resolve_solver(build_symmetric(shape), 4, lam * s ** -(order + 2),
                          step=0.02)
    scaled = SolverConfig(base.half_width * s, base.grid_points,
                          base.num_levels, lam)
    factor = s ** (2 * order + 2)
    small = solve_numerical(build_symmetric(shape), base)
    large = solve_numerical(build_symmetric(shape.scaled(s)), scaled)
    scale = factor * max(abs(pair.energy) for pair in small)
    for a, b in zip(small, large, strict=True):
        assert abs(b.energy - factor * a.energy) <= 1e-9 * scale
        assert abs(b.energy + b.error_estimate
                   - factor * (a.energy + a.error_estimate)) <= 1e-9 * scale


@settings(max_examples=5, deadline=None)
@given(st.floats(3.5, 6.0))
def test_parity_and_weights_at_numerical_crossing(alpha):
    # at the finite-difference delta*(0, 0) a central level meets the outer
    # doublet; every vector there and 1e-9 to either side must be
    # parity-pure and carry total region weight 1
    query = AlcQuery(0, 0, alpha, backend="numerical")
    cfg = crossings._default_numeric_config(query)
    star = _raw_crossing(query, cfg)
    for delta in (star - 1e-9, star, star + 1e-9):
        p = triple_well(alpha, delta)
        for pair in solve_numerical(p, cfg):
            assert _parity_defect(pair.psi) < 1e-12
            total = sum(r.weight for r in well_weights(pair, p))
            assert abs(total - 1.0) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(st.floats(3.5, 6.0), st.floats(-0.01, 0.01))
def test_numerical_labels_name_harmonic_families(alpha, offset):
    # near the (0, 0) crossing every label names a family of
    # harmonic_families, and an index of a mirrored family holds at most
    # one even and one odd level: one parity doublet
    delta = solve_crossing(AlcQuery(0, 0, alpha)).delta + offset
    p = triple_well(alpha, delta)
    families = harmonic_families(p)
    mirrored = {family for family, well in families if well.x > 0.0}
    pairs = solve_numerical(p, resolve_solver(p, 8, step=0.01))
    seen = set()
    for level, pair in zip(classify_levels(pairs, p), pairs, strict=True):
        assert level.family in {family for family, _ in families}
        assert level.label == f"{level.family}-{level.index}"
        if level.family in mirrored:
            flipped = pair.psi[::-1]
            even = np.max(np.abs(pair.psi - flipped)) \
                < np.max(np.abs(pair.psi + flipped))
            assert (level.family, level.index, even) not in seen
            seen.add((level.family, level.index, even))


def _spy_ground(monkeypatch) -> list:
    """Record (diag, off, result) of every call of spectrum._ground."""
    calls = []
    ground = spectrum._ground

    def spy(diag, off):
        calls.append((diag, off, ground(diag, off)))
        return calls[-1][2]
    monkeypatch.setattr(spectrum, "_ground", spy)
    return calls


def _tnorm(diag: np.ndarray, off: np.ndarray) -> float:
    """max |Gershgorin end|: stebz's tolerance is ulp times this."""
    reach = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
    return max(abs(float(np.min(diag - reach))),
               abs(float(np.max(diag + reach))))


def _single_level_cases() -> list:
    """(p, cfg, sizes of the blocks solved for one level) across the
    relocalization point, for k = 2 and 3, and for near-symmetric tilts."""
    cases = []
    for alpha in (3.5, 4.0, 6.0):
        star = solve_crossing(AlcQuery(0, 0, alpha)).delta
        cfg = resolve_solver(triple_well(alpha, star + 0.004), 1)
        half = (cfg.grid_points - 1) // 2
        cases += [(triple_well(alpha, star + d), cfg, [half])
                  for d in (-4e-3, -1e-3, -1e-4, 0.0, 1e-4, 1e-3, 4e-3)]
    for k, sizes in ((2, [900, 899]), (3, [899])):
        cases += [(p, SolverConfig(9.0, 1801, k), sizes)
                  for p in (TRIPLE, triple_well(4.0, 0.0026))]
    for s1 in (2.0, 4.0, 8.0, 16.0):
        for tilt in (1e-6, -1e-7, 1e-8, -1e-9):
            cfg = resolve_solver(tilted_double_well(s1, -abs(tilt)), 1)
            cases.append((tilted_double_well(s1, tilt), cfg,
                          [cfg.grid_points - 2]))
    return cases


def _assert_certified(calls: list, sizes: list) -> None:
    """Each spied _ground call agrees with bisection (stebz) on the same
    block to twice stebz's own tolerance, and brackets its energy E by
    E -+ that tolerance."""
    assert [diag.size for diag, _, _ in calls] == sizes
    for diag, off, (energy, _, _) in calls:
        tol = np.finfo(float).eps * _tnorm(diag, off)
        want = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                lapack_driver="stebz")[0]
        assert abs(energy[0] - want[0]) <= 2.0 * tol
        assert dpttrf(diag - (energy[0] - tol), off)[2] == 0
        assert dpttrf(diag - (energy[0] + tol), off)[2] != 0


@pytest.mark.parametrize("p, cfg, sizes", _single_level_cases())
def test_single_level_route_matches_stebz(monkeypatch, p, cfg, sizes):
    # each one-level block is certified shift-and-invert, which agrees with
    # stebz and gives the same region weights
    calls = _spy_ground(monkeypatch)
    pairs = solve_numerical(p, cfg)
    _assert_certified(calls, sizes)
    monkeypatch.setattr(spectrum, "_ground", lambda diag, off: None)
    for pair, ref in zip(pairs, solve_numerical(p, cfg), strict=True):
        for got, want in zip(well_weights(pair, p), well_weights(ref, p),
                             strict=True):
            assert abs(got.weight - want.weight) <= 1e-8


def _above_ground(diag: np.ndarray, off: np.ndarray) -> float:
    return float(eigh_tridiagonal(diag, off, select="i", select_range=(0, 0),
                                  lapack_driver="stebz")[0][0]) + 1.0


def _below_min_v(diag: np.ndarray, off: np.ndarray) -> float:
    return float(np.min(diag) + 2.0 * off[-1]) - 1.0


@pytest.mark.parametrize("guess", [_above_ground, _below_min_v])
@pytest.mark.parametrize("p, cfg, sizes", _single_level_cases())
def test_single_level_route_certifies_any_first_shift(monkeypatch, guess, p,
                                                      cfg, sizes):
    # the harmonic guess is a candidate only: one above the ground level
    # does not factor and the rounds bisect between min V and it, one below
    # min V factors and is a certified lower bound
    harmonic = spectrum._harmonic_guess
    monkeypatch.setattr(spectrum, "_harmonic_guess",
                        lambda diag, off: (guess(diag, off),
                                           harmonic(diag, off)[1]))
    calls = _spy_ground(monkeypatch)
    solve_numerical(p, cfg)
    _assert_certified(calls, sizes)


@pytest.mark.parametrize("delta", [0.0, 0.0026])
def test_harmonic_guess_lies_just_below_the_ground_level(delta):
    # the parabola through the grid well plus 99% of its zero-point energy
    # lies below E0 by less than 2% of E0 - min V; min V, the first shift
    # before it, lay below by all of it
    p = triple_well(4.0, delta)
    cfg = resolve_solver(p, 1)
    off = -1.0 / cfg.step ** 2
    diag = p(cfg.grid()[(cfg.grid_points - 1) // 2:-1]) - 2.0 * off
    block_off = np.full(diag.size - 1, off)
    block_off[0] *= math.sqrt(2.0)    # the even block of solve_numerical
    e0 = eigh_tridiagonal(diag, block_off, select="i", select_range=(0, 0),
                          lapack_driver="stebz")[0][0]
    height = e0 - float(np.min(diag) + 2.0 * off)
    guess = spectrum._harmonic_guess(diag, block_off)[0]
    assert e0 - 0.02 * height < guess < e0


def test_harmonic_guess_without_a_grid_well(monkeypatch):
    # V = -5x falls across the whole grid, so no grid point is a local
    # minimum: the guess is min V itself with no trial gap, and the block
    # still certifies
    calls = _spy_ground(monkeypatch)
    solve_numerical(Polynomial([0.0, -5.0]), SolverConfig(3.0, 601))
    diag, off, _ = calls[0]
    assert spectrum._harmonic_guess(diag, off) == \
        (float(np.min(diag) + 2.0 * off[-1]), 0.0)
    _assert_certified(calls, [599])


@pytest.mark.parametrize("k, parity, ladder", [
    (3, 0, [1, 5, 9]), (3, 1, [3, 7, 11]), (4, None, [1, 3, 5, 7])])
def test_rungs_of_a_well_at_the_origin_follow_the_parity(k, parity, ladder):
    # the unit oscillator's one grid well, read on the even half-grid block,
    # has zero-point energy 1: its even rungs 1, 5, 9 start the even block,
    # its odd ones the odd block, and an unsplit block takes every rung
    cfg = SolverConfig(6.0, 2401)
    off = -1.0 / cfg.step ** 2
    diag = HO(cfg.grid()[1200:-1]) - 2.0 * off
    wells = spectrum._grid_wells(diag, np.full(diag.size - 1, off))
    assert np.allclose(spectrum._rungs(wells, k, parity), ladder, atol=1e-4)
    assert spectrum._rungs(wells, 1, parity) is None


def _refuse(d, e, **overwrite):
    return d, e, 1


def _excited(d, e, b, **overwrite):
    """dpttrs that returns the first excited vector of the factored block
    (T - s*I = L D L^T, with D = d and the subdiagonal of L = e); like
    _refuse, it takes LAPACK's overwrite keywords and ignores them."""
    diag = d.copy()
    diag[1:] += e * e * d[:-1]
    vector = eigh_tridiagonal(diag, e * d[:-1], select="i",
                              select_range=(1, 1), lapack_driver="stebz")[1]
    return vector[:, 0], 0


@pytest.mark.parametrize("name, value", [("_GROUND_ROUNDS", 1),
                                         ("dpttrf", _refuse),
                                         ("dpttrs", _excited)])
def test_single_level_route_falls_back_to_stebz(monkeypatch, name, value):
    # out of rounds, refused the first factorization, or handed an excited
    # vector, whose Rayleigh quotient lies far above the certified lower
    # bound, _ground gives up and the block takes the stebz route
    calls = _spy_ground(monkeypatch)
    cfg = SolverConfig(9.0, 1801)
    solve_numerical(triple_well(4.0, 0.0026), cfg)
    diag, off, _ = calls[0]
    monkeypatch.setattr(spectrum, name, value)
    energy, vector, angle = spectrum._lowest(diag, off, 1, cfg)
    assert calls[-1][2] is None and np.isnan(angle[0])
    want_e, want_v = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, 0),
                                      lapack_driver="stebz")
    assert np.array_equal(energy, want_e) and np.array_equal(vector, want_v)


def test_single_level_count_refuses_an_excited_vector(monkeypatch):
    # handed the first excited vector by every solve, the rounds' quotient
    # lies above the block's two lowest levels: each Sturm count at rho + G
    # finds both below it, however far G is halved, so no gap certifies, and
    # the exit without a count refuses the quotient as well
    calls = _spy_ground(monkeypatch)
    solve_numerical(triple_well(4.0, 0.0026), SolverConfig(9.0, 1801))
    diag, off, _ = calls[0]
    counts, count = [], spectrum._count

    def spied(*args):
        counts.append(count(*args))
        return counts[-1]
    monkeypatch.setattr(spectrum, "_count", spied)
    monkeypatch.setattr(spectrum, "dpttrs", _excited)
    assert spectrum._ground(diag, off) is None
    assert counts and all(found >= 2 for found in counts)


def test_single_level_route_bounds_every_gap_it_certifies(monkeypatch):
    # all 43 one-level blocks of the cases certify on _ground, none is left
    # to stebz; every block but the tilted double wells at s1 = 8 and 16,
    # whose doublets split below _LEAST_GAP (by 8e-6 at most), certifies the
    # gap above its level by a count and carries an angle bound, and those
    # eight stop when hi - lo is within tol, with none
    calls = _spy_ground(monkeypatch)
    tilts = []
    for p, cfg, sizes in _single_level_cases():
        before = len(calls)
        pairs = solve_numerical(p, cfg)
        _assert_certified(calls[before:], sizes)
        if not p.is_even:
            tilts.append(pairs[0].angle_bound)
    assert len(calls) == 43
    bounded = [bool(np.isfinite(found[2][0])) for *_, found in calls]
    assert bounded == [True] * 35 + [False] * 8
    assert tilts[8:] == [None] * 8
    assert all(0.0 < found[2][0] < 1e-5 for *_, found in calls[:35])


@pytest.mark.parametrize("p, cfg, sizes", _single_level_cases())
def test_single_level_weights_lie_within_their_bounds(monkeypatch, p, cfg,
                                                      sizes):
    # each region weight w of a pair with an angle bound theta lies within
    # 2 sqrt(w) theta + theta^2 of the stebz route's weight, and the printed
    # weights, those below their bound written as 0, sum to 1 within the
    # sum of the bounds
    pairs = solve_numerical(p, cfg)
    monkeypatch.setattr(spectrum, "_ground", lambda diag, off: None)
    edges = spectrum._region_edges(critical_points(p, cfg.half_width))
    for pair, ref in zip(pairs, solve_numerical(p, cfg), strict=True):
        theta = pair.angle_bound
        if theta is None:
            continue
        raw = spectrum._region_weights(
            [dataclasses.replace(pair, angle_bound=None)], edges)[0]
        bounds = [(2.0 * math.sqrt(w) + theta) * theta for w in raw]
        want = spectrum._region_weights([ref], edges)[0]
        assert all(abs(w - v) <= b for w, v, b in zip(raw, want, bounds))
        shown = [r.weight for r in well_weights(pair, p)]
        assert shown == _resolved(raw, theta)
        assert abs(sum(shown) - 1.0) <= sum(bounds)


def test_single_level_iteration_history_is_pinned(monkeypatch):
    # the benchmark's warm-up scan, 21 one-level solves, takes exactly these
    # factorizations (those of the 21 Sturm counts, two each, included),
    # solves and Rayleigh quotients, one per solve: a change to _ground's
    # shifts, rounds or exits changes the counts.  The printed weights no
    # longer follow them: a weight below its angle bound prints as 0
    spectrum._load_lapack()    # bound first, so the patches stay
    counts = {"dpttrf": 0, "dpttrs": 0, "_count": 0, "_rayleigh": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(spectrum, name),
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(spectrum, name, counted)
    cfg = SolverConfig(10.0, grid_points_for(10.0, 0.005))
    crossings.relocalization_scan(4.0, (0.0006, 0.0046), 21, cfg)
    assert counts == {"dpttrf": 88, "dpttrs": 108, "_count": 21,
                      "_rayleigh": 21}


def test_window_work_is_pinned(monkeypatch):
    # the 48 menu crossings (the table pairs at alpha in {3.5, 4, 5, 6})
    # take exactly these stein calls, stein vectors, Rayleigh-quotient
    # factorizations and Sturm counts: each block's one stein call starts
    # at the rung of its own lowest level, and a change to the rungs or to
    # _located's start changes the counts; the lone odd level of each (0, 0)
    # window, solved by _ground, takes one Sturm count
    spectrum._load_lapack()    # bound first, so the patches stay
    counts = {"dstein": 0, "vectors": 0, "dgttrf": 0, "_count": 0}
    stein, dgttrf, count = spectrum.dstein, spectrum.dgttrf, spectrum._count

    def counted_stein(diag, off, w, *block):
        counts["dstein"] += 1
        counts["vectors"] += len(w)
        return stein(diag, off, w, *block)

    def counted_dgttrf(*args):
        counts["dgttrf"] += 1
        return dgttrf(*args)

    def counted_count(*args):
        counts["_count"] += 1
        return count(*args)
    monkeypatch.setattr(spectrum, "dstein", counted_stein)
    monkeypatch.setattr(spectrum, "dgttrf", counted_dgttrf)
    monkeypatch.setattr(spectrum, "_count", counted_count)
    for alpha in (3.5, 4.0, 5.0, 6.0):
        for m, n in crossings.TABLE_PAIRS:
            solve_crossing(AlcQuery(m, n, alpha, backend="numerical"))
    assert counts == {"dstein": 92, "vectors": 140, "dgttrf": 144,
                      "_count": 180}


def test_edge_indices_are_cached_per_grid_and_edges():
    # the region-edge indices are keyed by the grid's half-width and point
    # count, not by the grid array: once the grid has left every cache, a
    # pair's weights are recomputed bit for bit, and a window config shares
    # the entry of the full config it narrows
    p = triple_well(4.0, 0.0026)
    cfg = SolverConfig(9.0, 1801, 6)
    pairs = solve_numerical(p, cfg)
    weights = [well_weights(pair, p) for pair in pairs]
    for i in range(spectrum._CACHED + 1):
        well_weights(solve_numerical(p, SolverConfig(9.0, 1803 + 2 * i))[0], p)
    assert pairs[0].x is not cfg.grid()    # evicted, and built anew
    misses = spectrum._edge_indices.cache_info().misses
    assert [well_weights(pair, p) for pair in pairs] == weights
    assert spectrum._edge_indices.cache_info().misses == misses + 1
    window = solve_numerical(p, dataclasses.replace(cfg, num_levels=3),
                             first=2)
    before = spectrum._edge_indices.cache_info()
    well_weights(window[0], p)
    after = spectrum._edge_indices.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_solves_share_one_read_only_grid():
    # equal configs share one grid array, which no caller can write; a
    # later solve on it leaves an earlier solve's results as they were
    cfg = SolverConfig(9.0, 1801)
    first = solve_numerical(triple_well(4.0, 0.0026), cfg)[0]
    psi, energy = first.psi.copy(), first.energy
    weights = well_weights(first, triple_well(4.0, 0.0026))
    second = solve_numerical(triple_well(4.0, 0.003), SolverConfig(9.0, 1801))
    assert second[0].x is first.x is cfg.grid()
    assert not first.x.flags.writeable
    with pytest.raises(ValueError):
        first.x[0] = 0.0
    assert np.array_equal(first.psi, psi) and first.energy == energy
    assert well_weights(first, triple_well(4.0, 0.0026)) == weights


def test_block_off_diagonals_are_read_only(monkeypatch):
    # the cached off-diagonals of the even, odd and unsplit blocks
    blocks = []
    lowest = spectrum._lowest

    def spy(diag, off, k, cfg, *rungs):
        blocks.append(off)
        return lowest(diag, off, k, cfg, *rungs)
    monkeypatch.setattr(spectrum, "_lowest", spy)
    solve_numerical(TRIPLE, SolverConfig(9.0, 1801, 2))
    solve_numerical(tilted_double_well(4.0, 0.1), SolverConfig(5.0, 1001))
    assert [off.size for off in blocks] == [899, 898, 998]
    assert blocks[0][0] == math.sqrt(2.0) * blocks[0][1]
    for off in blocks:
        assert not off.flags.writeable
        with pytest.raises(ValueError):
            off[-1] = 0.0


def _spy_located(monkeypatch) -> list:
    """Record (diag, off, k, result) of every call of spectrum._located."""
    calls = []
    located = spectrum._located

    def spy(diag, off, k, *start):
        calls.append((diag, off, k, located(diag, off, k, *start)))
        return calls[-1][3]
    monkeypatch.setattr(spectrum, "_located", spy)
    return calls


def _spy_stebz(monkeypatch) -> list:
    """Record the arguments of every stebz call, and assert that each
    bisects to full precision (tolerance 0): spectrum._count counts by
    dpttrf, not by stebz."""
    spectrum._load_lapack()    # bound first, so the patch stays
    calls, stebz = [], spectrum.dstebz

    def spy(*args):
        assert args[7] == 0.0
        calls.append(args)
        return stebz(*args)
    monkeypatch.setattr(spectrum, "dstebz", spy)
    return calls


def _stebz(diag: np.ndarray, off: np.ndarray, k: int, first: int = 0):
    """Eigenpairs first .. first + k - 1 (the k lowest by default) by
    bisection to stebz's full precision."""
    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(first, first + k - 1),
                            lapack_driver="stebz")


def _own_rungs(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The rungs that solve_numerical gives an unsplit block of k levels."""
    return spectrum._rungs(spectrum._grid_wells(diag, off), k, None)


def test_multi_level_route_matches_stebz(monkeypatch):
    # the one-level cases re-run at k = 2..7, then strongly tilted double
    # wells at k = 7, one full-grid block each: every block certified from
    # its rungs agrees with bisection to full precision, energies within
    # stebz's tolerance, vectors to 1e-12 in |<v, v_ref>| (also at the near
    # doublets of the tilted double wells, whose Ritz vectors the rotation
    # separates), and more than half the one-level cases'
    # blocks certify; every refused block (a doublet split below 2e-4, or
    # rungs that drift from the levels of a tilted well) gives stebz's
    # eigenpairs bit for bit
    calls = _spy_located(monkeypatch)
    blocks = [block for p, cfg, _ in _single_level_cases()
              for k in range(2, 8)
              for block in _blocks(p, dataclasses.replace(cfg, num_levels=k))
              if block[2][1].shape[1] > 1]
    assert sum(call[3] is not None for call in calls) > len(calls) // 2
    for s1 in (2.0, 4.0, 8.0):
        for b in (0.5, 0.1, 1e-3):
            tilted = tilted_double_well(s1, b)
            cfg = resolve_solver(tilted, 7)
            ((diag, off, found),) = _blocks(tilted, cfg)
            assert diag.size == cfg.grid_points - 2
            blocks.append((diag, off, found))
    tail = [call[3] is not None for call in calls[-9:]]
    assert any(tail) and not all(tail)
    for (diag, off, (energy, vector, _)), (*_, k, located) in zip(
            blocks, calls, strict=True):
        want_e, want_v = _stebz(diag, off, k)
        if located is None:
            assert np.array_equal(energy, want_e)
            assert np.array_equal(vector, want_v)
            continue
        assert np.all(np.abs(energy - want_e)
                      <= spectrum._tolerance(diag, off))
        assert np.all(np.abs(np.einsum("ij,ij->j", vector, want_v))
                      >= 1.0 - 1e-12)


def test_multi_level_route_falls_back_on_a_cluster(monkeypatch):
    # at the finite-difference crossing of central-0 and the even member of
    # offcentral-0 the even block's two lowest levels lie 5.9e-11 apart:
    # the Ritz vectors of its rungs reach Rayleigh quotients within 2e-4 of
    # each other, so _refined's gap rule refuses them; the block takes the
    # full-precision route and gives its very eigenpairs, and the odd block
    # certifies from its rungs
    calls = _spy_located(monkeypatch)
    _spy_stebz(monkeypatch)
    stein, steins = spectrum.dstein, []
    refined, refinements = spectrum._refined, []

    def counted(*args):
        steins.append(len(calls))    # the _located calls finished before it
        return stein(*args)

    def spied(*args):
        refinements.append(refined(*args))
        return refinements[-1]
    monkeypatch.setattr(spectrum, "dstein", counted)
    monkeypatch.setattr(spectrum, "_refined", spied)
    p = triple_well(4.0, 0.0026010433800040303)
    (diag, off, (energy, vector, _)), _ = _blocks(p, resolve_solver(p, 6))
    (*_, k, result), odd = calls
    assert (k, result) == (3, None) and odd[3] is not None
    # one stein in the even _located, one in its fallback, one in the odd one
    assert steins == [0, 1, 1]
    assert refinements[0] is None and refinements[1] is not None
    want_e, want_v = _stebz(diag, off, k)
    assert np.array_equal(energy, want_e) and np.array_equal(vector, want_v)


def test_multi_level_route_falls_back_without_the_lowest_rung(monkeypatch):
    # rungs that miss the lowest level give Ritz values one level high, which
    # the Sturm count of _refined refuses: each block takes full-precision
    # bisection and returns stebz's eigenpairs bit for bit
    rungs = spectrum._rungs
    monkeypatch.setattr(spectrum, "_rungs",
                        lambda *args: rungs(*args)[1:])
    located = _spy_located(monkeypatch)
    stebz = _spy_stebz(monkeypatch)
    blocks = _alc_blocks(0.005)
    assert len(blocks) == 2 and [call[3] for call in located] == [None] * 2
    assert [args[7] for args in stebz].count(0.0) == 2
    for diag, off, found in blocks:
        want = _stebz(diag, off, found[1].shape[1])
        assert all(np.array_equal(a, b) for a, b in zip(found, want))


def test_multi_level_route_reorthonormalises_certified_columns(monkeypatch):
    # _refined bounds each column's angle to its own eigenvector, about
    # tol / gap after Rayleigh-quotient iteration, not the columns' angles
    # to each other: two certified columns turned 1e-9 towards each other
    # come back orthonormal to 1e-12, still within 1e-12 of stebz's vectors
    refined = spectrum._refined

    def turned(diag, off, start, *first):
        found = refined(diag, off, start, *first)
        if found is not None:
            found[1][:, 1] += 1e-9 * found[1][:, 0]
        return found
    monkeypatch.setattr(spectrum, "_refined", turned)
    located = _spy_located(monkeypatch)
    _spy_stebz(monkeypatch)
    for diag, off, (energy, vector, _) in _alc_blocks(0.005):
        k = vector.shape[1]
        assert np.allclose(vector.T @ vector, np.eye(k), rtol=0.0, atol=1e-12)
        want_e, want_v = _stebz(diag, off, k)
        assert np.all(np.abs(energy - want_e)
                      <= spectrum._tolerance(diag, off))
        assert np.all(np.abs(np.einsum("ij,ij->j", vector, want_v))
                      >= 1.0 - 1e-12)
    assert [call[3] is not None for call in located] == [True, True]


def _neighbour(vectors: np.ndarray) -> np.ndarray:
    """The next level's vector in place of the lowest one."""
    return vectors[:, 1]


def _mixed(vectors: np.ndarray) -> np.ndarray:
    """The lowest vector turned by 1e-3 towards the next one."""
    mixed = vectors[:, 0] + 1e-3 * vectors[:, 1]
    return mixed / np.linalg.norm(mixed)


def _tilted_block() -> tuple:
    """(diag, off, cfg) of tilted_double_well(4, 0.1) at three levels: one
    full-grid block, whose third column needs Rayleigh-quotient iteration
    from stein's vector at its Ritz value."""
    p = tilted_double_well(4.0, 0.1)
    cfg = resolve_solver(p, 3)
    ((diag, off, _),) = _blocks(p, cfg)
    return diag, off, cfg


@pytest.mark.parametrize("corrupt", [_neighbour, _mixed])
def test_multi_level_route_rejects_a_wrong_vector(monkeypatch, corrupt):
    # stein handing _located the next level's vector in place of the lowest
    # one (the Ritz vectors then miss the lowest level, and iterate to
    # levels 1 to 3) fails the Sturm count, and the block takes the
    # full-precision route; the lowest one turned by 1e-3 is not returned
    # either: Rayleigh-Ritz and Rayleigh-quotient iteration repair it, to
    # stebz's tolerance
    diag, off, cfg = _tilted_block()
    spectrum._load_lapack()
    stein, calls = spectrum.dstein, []

    def corrupted(*args):
        vectors, info = stein(*args)
        if len(calls) == 0:    # at the rungs
            vectors[:, 0] = corrupt(vectors)
        calls.append(args)
        return vectors, info
    monkeypatch.setattr(spectrum, "dstein", corrupted)
    located = _spy_located(monkeypatch)
    energy, vector, _ = spectrum._lowest(diag, off, 3, cfg,
                                         _own_rungs(diag, off, 3))
    want_e, want_v = _stebz(diag, off, 3)
    if corrupt is _neighbour:
        assert len(calls) == 2 and located[0][3] is None
        assert np.array_equal(energy, want_e)
        assert np.array_equal(vector, want_v)
    else:
        assert len(calls) == 1 and located[0][3] is not None
        assert np.all(np.abs(energy - want_e)
                      <= spectrum._tolerance(diag, off))
        assert np.all(np.abs(np.einsum("ij,ij->j", vector, want_v))
                      >= 1.0 - 1e-12)


def test_multi_level_route_falls_back_when_a_factorization_fails(
        monkeypatch):
    # stein's vector at the third Ritz value of a tilted double well needs
    # Rayleigh-quotient iteration to reach stebz's tolerance; when its
    # factorization reports failure, the block takes the full-precision
    # route
    diag, off, cfg = _tilted_block()
    k = 3
    rungs = _own_rungs(diag, off, k)
    assert spectrum._located(diag, off, k, rungs) is not None
    located = _spy_located(monkeypatch)
    calls = []

    def failing(*args):
        calls.append(args)
        return _fail_dgttrf(*args)
    monkeypatch.setattr(spectrum, "dgttrf", failing)
    energy, vector, _ = spectrum._lowest(diag, off, k, cfg, rungs)
    assert len(calls) == 1 and located[-1][3] is None
    want_e, want_v = _stebz(diag, off, k)
    assert np.array_equal(energy, want_e) and np.array_equal(vector, want_v)


def test_multi_level_route_needs_a_level_above(monkeypatch, capfd):
    # a block of k points has no level k + 1, and needs none: the count at
    # the top quotient plus 2e-4 bounds the gap above level k, so the block
    # certifies without asking stebz for a level out of range (LAPACK would
    # print that the index is out of range)
    calls = _spy_located(monkeypatch)
    diag, off = np.array([2.0, 3.0, 5.0]), np.array([-1.0, -1.0])
    energy, vector, _ = spectrum._lowest(diag, off, 3, SolverConfig(1.0, 401),
                                         _own_rungs(diag, off, 3))
    assert calls[0][3] is not None
    assert capfd.readouterr().out == ""
    want_e, want_v = _stebz(diag, off, 3)
    assert np.all(np.abs(energy - want_e) <= spectrum._tolerance(diag, off))
    assert np.all(np.abs(np.einsum("ij,ij->j", vector, want_v))
                  >= 1.0 - 1e-12)


def _blocks(p, cfg) -> list:
    """(diag, off, (energies, vectors, angles)) of each tridiagonal block that
    solve_numerical(p, cfg) solves: the even and odd half-grid blocks of a
    symmetric potential, or its one full-grid block."""
    calls = []
    lowest = spectrum._lowest

    def spy(diag, off, k, cfg, *rungs):
        calls.append((diag, off, lowest(diag, off, k, cfg, *rungs)))
        return calls[-1][2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_lowest", spy)
        solve_numerical(p, cfg)
    return calls


def test_multi_level_route_certifies_every_menu_block(monkeypatch):
    # every block of the 48 menu crossings (the table pairs at alpha in
    # {3.5, 4, 5, 6}) solves only its part of the window n + 2m .. n + 2m + 2
    # of its crossing, levels ceil((n + 2m) / 2) .. of the even block and
    # floor((n + 2m) / 2) .. of the odd one: the 96 blocks of the one solve
    # per crossing from the second-order root, and those of the 73 solves
    # from the harmonic root.  Each block is certified, by _refined on
    # the Ritz vectors of stein's vectors at its rungs (_located),
    # or by _ground for the lone odd level of a (0, 0) window, and agrees
    # with bisection to full precision, energies within stebz's tolerance
    # and vectors to 1e-12 in |<v, v_ref>|, each within its angle bound
    # of stebz's (|v - <v, v_ref> v_ref| is that angle's sine); no stebz
    # call bisects, and every block's vectors are orthonormal to 1e-12
    blocks, lowest = [], spectrum._lowest

    def spy(diag, off, k, cfg, rungs=None, first=0):
        blocks.append((diag, off, k, first,
                       lowest(diag, off, k, cfg, rungs, first)))
        return blocks[-1][4]
    monkeypatch.setattr(spectrum, "_lowest", spy)
    located = _spy_located(monkeypatch)
    stebz = _spy_stebz(monkeypatch)
    queries = [AlcQuery(m, n, alpha, backend="numerical")
               for alpha in (3.5, 4.0, 5.0, 6.0)
               for m, n in crossings.TABLE_PAIRS]
    for q in queries:
        solve_crossing(q)
        first = q.n + 2 * q.m
        want = [((first + 1) // 2, (first + 4) // 2 - (first + 1) // 2),
                (first // 2, (first + 3) // 2 - first // 2)]
        assert [(block[3], block[2]) for block in blocks[-2:]] == want
    assert len(blocks) == 2 * 48
    assert 0.0 not in [args[7] for args in stebz]
    monkeypatch.setattr(crossings, "_anharmonic_residual",
                        lambda d, m, n, a: 1.0)
    for q in queries:
        solve_crossing(q)
    assert len(blocks) == 2 * (48 + 73)
    assert 0.0 not in [args[7] for args in stebz]
    assert all(call[3] is not None for call in located)
    assert len(located) == sum((k, first) != (1, 0)
                               for _, _, k, first, _ in blocks)
    for diag, off, k, first, (energy, vector, angle) in blocks:
        want_e, want_v = _stebz(diag, off, k, first)
        assert np.all(np.abs(energy - want_e)
                      <= spectrum._tolerance(diag, off))
        overlap = np.einsum("ij,ij->j", vector, want_v)
        assert np.all(np.abs(overlap) >= 1.0 - 1e-12)
        assert np.all(np.linalg.norm(vector - overlap * want_v, axis=0)
                      <= angle)
        assert np.allclose(vector.T @ vector, np.eye(k), rtol=0.0, atol=1e-12)


def _alc_blocks(delta: float) -> list:
    """_blocks of the triple well at alpha = 4 and delta on the alc grid:
    an even block of three levels and an odd one of two."""
    cfg = crossings._default_numeric_config(AlcQuery(0, 0, 4.0,
                                                     backend="numerical"))
    return _blocks(triple_well(4.0, delta), cfg)


def _sturm_count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """stebz's count of the eigenvalues at or below x, bisecting nothing."""
    lo = float(diag.min() - 2.0 * np.abs(off).max()) - 1.0
    m, *_, info = scipy.linalg.lapack.dstebz(diag, off, 1, lo, x, 0, 0,
                                             1e300, "B")
    assert info == 0
    return m


@pytest.mark.parametrize("blocks", [
    lambda: _blocks(triple_well(4.0, 0.0026),
                    SolverConfig(10.0, grid_points_for(10.0, 0.005))),
    lambda: _alc_blocks(0.005)], ids=["reloc", "alc"])
def test_inertia_count_agrees_with_sturm_count(blocks):
    # the negative pivots of T - x I against stebz's Sturm count: at the
    # block's ten lowest levels +- 1e-3, at random shifts between min V and
    # the top of the spectrum, and 0 below min V and n above the top
    rng = np.random.default_rng(3)
    for diag, off, _ in blocks():
        levels = eigh_tridiagonal(diag, off, select="i", select_range=(0, 9),
                                  eigvals_only=True)
        bottom = float(diag.min() + 2.0 * off[-1])
        top = float(diag.max() + 2.0 * np.abs(off).max())
        shifts = np.concatenate((levels - 1e-3, levels + 1e-3,
                                 rng.uniform(bottom, top, 20)))
        for x in shifts:
            assert spectrum._count(diag, off, x) == \
                _sturm_count(diag, off, x), x
        assert spectrum._count(diag, off, bottom - 1.0) == 0
        assert spectrum._count(diag, off, top + 1.0) == diag.size
        assert [spectrum._count(diag, off, x) for x in levels - 1e-3] == \
            list(range(10))


@pytest.mark.parametrize("diag, off, x, want", [
    ([1.0, 2.0, 3.0], [-1.0, -1.0], 1.0, -1),    # the first pivot
    ([2.0, 0.5, 5.0], [-1.0, -1.0], 0.0, -1),    # 0.5 - 1 * (1 / 2)
    ([-1.0, -1.0], [-1.0], 0.0, -1),             # past a negative pivot
    ([-1.0, 5.0], [-1.0], 0.0, 1),
    ([3.0, -2.0, 4.0, -1.0], [0.5, -1.0, 2.0], 0.0, None),
    ([-3.0], [], 0.0, 1),
])
def test_inertia_count_of_small_blocks(diag, off, x, want):
    # an exact zero pivot, also one formed after a restart, gives -1;
    # otherwise the count of eigenvalues below x, here checked against
    # the dense eigenvalues
    spectrum._load_lapack()
    diag, off = np.array(diag), np.array(off)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if want is None:
        want = int(np.sum(np.linalg.eigvalsh(dense) < x))
        assert want == 2
    assert spectrum._count(diag, off, x) == want


def _swapped(vectors: np.ndarray) -> np.ndarray:
    """The block's two lowest vectors exchanged."""
    return vectors[:, [1, 0, *range(2, vectors.shape[1])]]


def _refuse_count(diag, off, x):
    return -1


def _fail_dgttrf(*args):
    return (*spectrum._lapack.dgttrf(*args)[:-1], 1)


@pytest.mark.parametrize("start, name, value", [
    (_swapped, None, None),
    (None, "_count", _refuse_count),
    (None, "dgttrf", _fail_dgttrf),
])
def test_multi_level_route_falls_back_to_bisection(monkeypatch, start, name,
                                                   value):
    # _refined refuses a start with its columns out of level order; in a
    # solve, a Sturm count that disagrees refuses both blocks of _located,
    # and so does a factorization that reports failure, as the Ritz
    # vectors of both blocks need Rayleigh-quotient iteration here: they
    # take full-precision stebz, its very eigenpairs
    if start is not None:
        near = _alc_blocks(0.00499)
        assert [spectrum._refined(diag, off, start(found[1]))
                for (diag, off, _), (*_, found) in
                zip(_alc_blocks(0.005), near)] == [None, None]
    else:
        spectrum._load_lapack()
        monkeypatch.setattr(spectrum, name, value)
        located = _spy_located(monkeypatch)
        got = _alc_blocks(0.005)
        assert [call[3] for call in located] == [None] * 2
        for diag, off, found in got:
            want = _stebz(diag, off, found[1].shape[1])
            assert all(np.array_equal(a, b) for a, b in zip(found, want))


@pytest.mark.parametrize("start_delta, certified", [
    (-0.05, False), (-0.005, False), (0.0, False), (0.004, True),
    (0.0049, True), (0.00499, True), (0.006, True), (0.015, False),
    (0.05, False)])
def test_multi_level_route_is_right_whenever_it_certifies(start_delta,
                                                         certified):
    # _refined on the even and odd blocks at delta = 0.005, started from
    # the block vectors at a near or a far delta: whatever it certifies
    # agrees with bisection to full precision, energies within stebz's
    # tolerance and vectors to 1e-12 in |<v, v_ref>|; from a start within
    # 1e-3 of delta both blocks are certified
    for (diag, off, _), (*_, (_, start, _)) in zip(_alc_blocks(0.005),
                                               _alc_blocks(start_delta)):
        found = spectrum._refined(diag, off, start)
        if certified:
            assert found is not None
        if found is not None:
            want_e, want_v = _stebz(diag, off, start.shape[1])
            assert np.all(np.abs(found[0] - want_e)
                          <= spectrum._tolerance(diag, off))
            assert np.all(np.abs(np.einsum("ij,ij->j", found[1], want_v))
                          >= 1.0 - 1e-12)


def test_multi_level_route_refuses_a_near_doublet():
    # the two lowest levels of a double well tilted by 1e-8 lie far closer
    # than 2e-4: from the vectors at the tilt 1.01e-8 _refined reaches
    # residuals within stebz's tolerance, but the gap of the doublet leaves
    # its vectors unresolved, so it refuses them, and the solve takes the
    # full-precision route; every vector within 1e-12 in |<v, v_ref>| of
    # stebz's, every energy within its tolerance
    p = tilted_double_well(6.0, 1e-8)
    cfg = resolve_solver(p, 2)
    ((*_, (_, start, _)),) = _blocks(tilted_double_well(6.0, 1.01e-8), cfg)
    ((diag, off, (energy, vector, _)),) = _blocks(p, cfg)
    assert spectrum._refined(diag, off, start) is None
    want_e, want_v = _stebz(diag, off, 2)
    assert np.all(np.abs(energy - want_e) <= spectrum._tolerance(diag, off))
    assert np.all(1.0 - np.abs(np.einsum("ij,ij->j", vector, want_v))
                  <= 1e-12)


def test_lowest_called_first_binds_lapack():
    # _lowest is the one entry to LAPACK: called before any solve in a fresh
    # interpreter, it binds the routines itself, on both of its routes,
    # without importing scipy.linalg; imported after it, scipy.linalg binds
    # the very same routines, and the solves repeat bit for bit.  Both
    # routes agree with stebz within its tolerance, 5 ulp here (the
    # Gershgorin ends are 0 and 5): without rungs the three levels come from
    # full-precision bisection, the one level from a certified quotient
    code = ("import sys\n"
            "import numpy as np\n"
            "from multiwell import spectrum\n"
            "diag, off = np.linspace(2.0, 3.0, 401), np.full(400, -1.0)\n"
            "cfg = spectrum.SolverConfig(1.0, 401)\n"
            "e1, v1, a1 = spectrum._lowest(diag, off, 1, cfg)\n"
            "e3, v3, a3 = spectrum._lowest(diag, off, 3, cfg)\n"
            "print('scipy' in sys.modules, 'scipy.linalg' in sys.modules)\n"
            "import scipy.linalg\n"
            "print(all(getattr(scipy.linalg.lapack, name)"
            " is getattr(spectrum, name)"
            " for name in ('dpttrf', 'dpttrs', 'dgttrf', 'dgttrs', 'dstebz',"
            " 'dstein')))\n"
            "again = spectrum._lowest(diag, off, 1, cfg)"
            " + spectrum._lowest(diag, off, 3, cfg)\n"
            "print(all(np.array_equal(a, b, equal_nan=True)"
            " for a, b in zip((e1, v1, a1, e3, v3, a3), again, strict=True)))\n"
            "want_e, want_v = scipy.linalg.eigh_tridiagonal(diag, off,"
            " select='i', select_range=(0, 2), lapack_driver='stebz')\n"
            "tol = 5.0 * np.finfo(float).eps\n"
            "print(abs(e1[0] - want_e[0]) <= 8.0 * tol,"
            " bool(np.all(np.abs(e3 - want_e) <= tol)) and bool(np.all("
            "np.abs(np.einsum('ij,ij->j', v3, want_v)) >= 1.0 - 1e-12)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True", "True",
                                   "True"]


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lowest_raises_when_a_routine_reports_failure(fail_lapack, routine):
    fail_lapack(routine)
    diag, off = np.linspace(2.0, 3.0, 401), np.full(400, -1.0)
    with pytest.raises(ConvergenceError,
                       match=rf"{routine} info=1 \(grid_points=401, h="):
        spectrum._lowest(diag, off, 3, SolverConfig(1.0, 401))


def _unbind_lapack(monkeypatch):
    """Reset spectrum's LAPACK globals for this test only."""
    for name in ("_lapack", "dpttrf", "dpttrs", "dgttrf", "dgttrs", "dstebz",
                 "dstein"):
        monkeypatch.setattr(spectrum, name, None)
    monkeypatch.delitem(sys.modules, spectrum._FLAPACK, raising=False)


def _find_scipy_as(monkeypatch, spec):
    """Make importlib.util.find_spec('scipy') return spec."""
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: spec if name == "scipy"
                        else find_spec(name, *args))


def test_loader_falls_back_to_scipy_linalg_lapack(monkeypatch, tmp_path):
    # scipy's package directory without the extension, as in an editable
    # install: the routines come from scipy.linalg.lapack, and the stebz
    # route gives the very eigenpairs of eigh_tridiagonal, also when a zero
    # off-diagonal splits T into blocks that stebz returns one by one
    _unbind_lapack(monkeypatch)
    empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    _find_scipy_as(monkeypatch, empty)
    diag, off = np.full(401, 2.0), np.full(400, -1.0)
    off[100] = 0.0
    energy, vector, _ = spectrum._lowest(diag, off, 3, SolverConfig(1.0, 401))
    assert spectrum._lapack is scipy.linalg.lapack
    assert spectrum._FLAPACK not in sys.modules
    for name in ("dpttrf", "dpttrs", "dstebz", "dstein"):
        assert getattr(spectrum, name) is getattr(scipy.linalg.lapack, name)
    want_e, want_v = eigh_tridiagonal(diag, off, select="i",
                                      select_range=(0, 2),
                                      lapack_driver="stebz")
    assert np.array_equal(energy, want_e) and np.array_equal(vector, want_v)


def test_loader_without_scipy_raises_import_error(monkeypatch):
    _unbind_lapack(monkeypatch)
    _find_scipy_as(monkeypatch, None)
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(ImportError):
        spectrum._load_lapack()


def _resolved(weights: list, theta: float | None) -> list:
    """weights with each one at or below its bound 2 sqrt(w) theta +
    theta^2, for the angle bound theta of its pair, written as 0."""
    if theta is None:
        return weights
    return [0.0 if w <= (2.0 * math.sqrt(w) + theta) * theta else w
            for w in weights]


class TestWellWeights:
    def test_single_well_single_region(self):
        p = Polynomial([0.0, 0.0, 1.0, 0.0, 1.0])
        cfg = SolverConfig(half_width=6.0, grid_points=601, num_levels=1)
        regions = well_weights(solve_numerical(p, cfg)[0], p)
        assert len(regions) == 1
        assert regions[0].weight == pytest.approx(1.0, abs=1e-9)

    def test_central_dominance_below_crossing(self):
        p = triple_well(4.0, delta=0.0)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=1)
        regions = well_weights(solve_numerical(p, cfg)[0], p)
        central = [r for r in regions if r.contains_origin][0]
        assert central.weight > 0.9
        assert sum(r.weight for r in regions) == pytest.approx(1.0, abs=1e-9)

    def test_outer_dominance_above_crossing(self):
        p = triple_well(4.0, delta=0.01)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=1)
        regions = well_weights(solve_numerical(p, cfg)[0], p)
        assert len(regions) == 3
        outer = [r for r in regions if not r.contains_origin]
        assert sum(r.weight for r in outer) > 0.9
        # symmetric doublet: equal split
        assert outer[0].weight == pytest.approx(outer[1].weight, abs=0.06)

    def test_slices_match_masks(self):
        # reference: one boolean mask per region, edge points counted half,
        # a weight below its bound counted as 0; edges 2 and 3 are grid
        # points, the others fall between them
        p = triple_well(4.0, delta=0.0026)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=4)
        edges = [-math.inf, -4.0001, 2.0, 3.0, 4.0001, math.inf]
        for pair in solve_numerical(p, cfg):
            rho = pair.psi ** 2 * pair.h
            x = pair.x
            assert 2.0 in x and 3.0 in x
            expected = _resolved([rho[(x > lo) & (x < hi)].sum()
                                  + 0.5 * rho[(x == lo) | (x == hi)].sum()
                                  for lo, hi in zip(edges, edges[1:])],
                                 pair.angle_bound)
            got = spectrum._region_weights([pair], edges)[0]
            assert got == pytest.approx(expected, abs=1e-15)
            assert got[0] == expected[0] and got[-1] == expected[-1]

    @pytest.mark.parametrize("alpha", [3.5, 4.0, 6.0])
    def test_batched_weights_equal_the_per_pair_slices(self, alpha):
        # the rows of one density matrix against each pair's own slices,
        # each below its bound counted as 0, and the labelled weights summed
        # from them, bit for bit, over one- and nine-level solves along a
        # crossing bracket
        def slices(pair, edges):
            rho = pair.psi ** 2 * pair.h
            near = wells._isolation_tol(float(pair.x[-1]))
            first = np.searchsorted(pair.x, np.subtract(edges, near), "left")
            past = np.searchsorted(pair.x, np.add(edges, near), "right")
            half = [0.5 * rho[a:b].sum() for a, b in zip(first, past)]
            return [float(rho[past[j]:first[j + 1]].sum() + half[j]
                          + half[j + 1]) for j in range(len(edges) - 1)]
        cfg = crossings._default_numeric_config(
            AlcQuery(3, 2, alpha, backend="numerical"))
        edges, families = crossings._line_map(alpha, -0.05, 0.05,
                                              cfg.half_width)
        for k in (1, 9):
            solver = dataclasses.replace(cfg, num_levels=k)
            for delta in np.linspace(-0.05, 0.05, 9):
                pairs = solve_numerical(triple_well(alpha, delta), solver)
                rows = [_resolved(slices(pair, edges), pair.angle_bound)
                        for pair in pairs]
                assert spectrum._region_weights(pairs, edges) == rows
                for lv, row in zip(spectrum._labels(pairs, edges, families),
                                   rows):
                    fam = [sum(row[j] for j in g) for _, g in families]
                    assert (lv.w_central, lv.w_outer) == (fam[0], sum(fam[1:]))

    def test_edge_an_ulp_off_a_grid_point_splits_it_alike(self):
        # the polish puts a maximum on alpha or an ulp either side; a grid
        # point on alpha must count half to each side either way
        alpha = 1.5
        cfg = SolverConfig(half_width=5.5, grid_points=2201, num_levels=2)
        for pair in solve_numerical(triple_well(alpha, -0.35), cfg):
            assert alpha in pair.x
            weights = [spectrum._region_weights(
                [pair], [-math.inf, -alpha, edge, math.inf])[0]
                for edge in (alpha, math.nextafter(alpha, math.inf))]
            assert weights[0] == weights[1]


class TestClassifyLevels:
    def test_no_pairs_no_labels(self):
        assert classify_levels([], triple_well(4.0, 0.0)) == []

    def test_below_crossing_ground_is_central(self):
        p = triple_well(4.0, delta=0.0)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=4)
        labeled = classify_levels(solve_numerical(p, cfg), p)
        assert labeled[0].label == "central-0"
        doublet = [lv for lv in labeled if lv.label == "offcentral-0"]
        assert len(doublet) == 2

    def test_above_crossing_ground_is_doublet(self):
        p = triple_well(4.0, delta=0.01)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=3)
        labeled = classify_levels(solve_numerical(p, cfg), p)
        assert labeled[0].label == "offcentral-0"
        assert labeled[1].label == "offcentral-0"
        assert labeled[2].label == "central-0"

    def test_indices_count_in_energy_order(self):
        p = triple_well(4.0, delta=0.0)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=6)
        labeled = classify_levels(solve_numerical(p, cfg), p)
        central = [lv for lv in labeled if lv.family == "central"]
        assert [lv.index for lv in central] == list(range(len(central)))

    def test_isolates_critical_points_once(self, monkeypatch):
        p = triple_well(4.0, delta=0.0)
        cfg = SolverConfig(half_width=9.0, grid_points=1801, num_levels=4)
        pairs = solve_numerical(p, cfg)
        calls = []
        def counting(poly, window):
            calls.append(window)
            return critical_points(poly, window)
        monkeypatch.setattr(spectrum, "critical_points", counting)
        labeled = classify_levels(pairs, p)
        assert calls == [9.0]
        assert [lv.label for lv in labeled] == \
            ["central-0", "offcentral-0", "offcentral-0", "central-1"]
