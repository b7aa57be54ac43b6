"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from multiwell.cli import main as cli_main
from multiwell.crossings import (PAIRED_ROWS, REFERENCE_DELTAS_ALPHA4,
                                 AlcQuery, asym_locus_cubic,
                                 asym_locus_linearized, crossing_table,
                                 relocalization_scan, solve_crossing)
from multiwell.polynomial import Polynomial
from multiwell.spectrum import (SolverConfig, harmonic_spectrum_n2,
                                solve_numerical, well_weights)
from multiwell.wells import (WellShape, build_symmetric, closed_form_n2,
                             closed_form_n3, harmonic_wells,
                             perturbed_extrema_n2, tilted_well_minimum)


def report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_01_reference_table_reproduction(capsys):
    t0 = time.perf_counter()
    solutions = crossing_table(4.0)
    elapsed = time.perf_counter() - t0
    max_dev = max(abs(s.delta - REFERENCE_DELTAS_ALPHA4[(s.m, s.n)])
                  for s in solutions)
    code = cli_main(["table1", "--alpha", "4", "--compare",
                     "--format", "json"])
    out = capsys.readouterr().out
    cli_max = max(row["deviation"] for row in json.loads(out))
    report(capsys, 1, "table-reproduction",
           max_dev <= 2e-5 and cli_max <= 2e-5 and code == 0
           and elapsed < 1.0,
           f"max|d-ref|={max_dev:.3e} <= 2e-5, cli={cli_max:.3e}, "
           f"runtime={elapsed:.3f}s < 1s")


def test_02_pairwise_degeneracy(capsys):
    deltas = {(s.m, s.n): s.delta for s in crossing_table(4.0)}
    gaps = {f"{a}~{b}": abs(deltas[a] - deltas[b]) for a, b in PAIRED_ROWS}
    worst = max(gaps.values())
    report(capsys, 2, "pairwise-degeneracy", len(gaps) == 6 and worst <= 1e-4,
           f"six pairs, worst gap {worst:.3e} <= 1e-4")


def test_03_commensurability(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for alpha in rng.uniform(0.5, 8.0, size=100):
        hs = harmonic_spectrum_n2(alpha, math.sqrt(2.0) * alpha, 0, 0)
        worst = max(worst, abs(hs.spring_off_central / hs.spring_central - 2.0))
    report(capsys, 3, "commensurability", worst <= 1e-12,
           f"max|Omega/sqrt(c) - 2| = {worst:.3e} <= 1e-12 over 100 alphas")


def test_04_closed_form_cross_checks(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        alpha, beta = rng.uniform(0.2, 4.0, size=2)
        a, c = closed_form_n2(alpha, beta)
        p = build_symmetric(WellShape.from_widths(alpha, beta))
        worst = max(worst,
                    abs(p.coeffs[4] - a) / max(abs(a), 1e-30),
                    abs(p.coeffs[2] - c) / max(abs(c), 1e-30))
    for _ in range(500):
        alpha, beta, gamma = rng.uniform(0.2, 4.0, size=3)
        forms = closed_form_n3(alpha, beta, gamma)
        p = build_symmetric(WellShape.from_widths(alpha, beta, gamma))
        for got, want in ((p.coeffs[6], forms.a), (p.coeffs[4], forms.c),
                          (p.coeffs[2], forms.f)):
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    elapsed = time.perf_counter() - t0
    forms = closed_form_n3(1.0, 1.0, 1.0)
    point_ok = (forms.a, forms.c, forms.f) == pytest.approx((-8.0, 22.0, -24.0)) \
        and (forms.inner_value, forms.outer_value) == pytest.approx((-9.0, -9.0)) \
        and (forms.inner_curvature, forms.outer_curvature) == \
        pytest.approx((32.0, 96.0))
    report(capsys, 4, "closed-form-cross-checks",
           worst <= 1e-12 and point_ok and elapsed < 1.0,
           f"worst rel dev {worst:.3e} <= 1e-12 on 1000 shapes, unit-point "
           f"diagnostics exact, runtime={elapsed:.3f}s < 1s")


def test_05_scaling_exponents(capsys):
    lams = [2.0, 4.0, 8.0, 16.0]
    log_l = np.log(lams)
    worst = 0.0
    for base in (WellShape((1.0, 2.0)), WellShape((1.0, 2.0, 3.0))):
        n = base.order
        rows = []
        for lam in lams:
            shape = base.scaled(lam)
            window = math.sqrt(shape.increments[-1]) + 2.0
            outer = harmonic_wells(build_symmetric(shape), window)[-1]
            rows.append((abs(outer.v), outer.g, outer.x))
        for column, expected in zip(range(3), (2 * n + 2, 2 * n, 1)):
            slope = np.polyfit(log_l, np.log([r[column] for r in rows]), 1)[0]
            worst = max(worst, abs(slope - expected) / expected)
    report(capsys, 5, "scaling-exponents", worst <= 0.01,
           f"worst fitted-slope rel error {worst:.2e} <= 1% for N in (2, 3)")


def test_06_tilted_minimum_oracle(capsys):
    def grid_minimum(f, g, x):
        def cubic(t):
            return t * (f + g * (t - x) ** 2)
        lo = 0.9 * x
        hi = x + math.sqrt(abs(f) / (3.0 * g)) + 0.1
        for _ in range(8):
            step = (hi - lo) / 400.0
            ts = [lo + i * step for i in range(401)]
            best = min(ts, key=cubic)
            lo, hi = best - step, best + step
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        f = -rng.uniform(0.01, 5.0)
        g = rng.uniform(0.1, 5.0)
        x = rng.uniform(0.5, 3.0)
        _, delta = tilted_well_minimum(f, g, x)
        delta_grid = grid_minimum(f, g, x) / x - 1.0
        worst = max(worst, abs(delta - delta_grid))
    x0, _ = tilted_well_minimum(-1.0, 1.0, 2.0)
    exact = (8.0 + math.sqrt(28.0)) / 6.0
    report(capsys, 6, "tilted-minimum-oracle",
           worst <= 1e-6 and abs(x0 - exact) < 1e-12,
           f"max |delta_formula - delta_grid| = {worst:.2e} <= 1e-6 on 200 "
           f"triples; worked case matches (8+sqrt(28))/6")


def test_07_perturbative_shifts(capsys):
    # the stationary point near x=4 is 4 + eps/128 + C*eps^2 with
    # C = (beta^2+4alpha^2)/(32 alpha beta^6) = 2.2888e-5; the measured
    # residual/eps^2 must stay in a factor-2 band (and sit at C)
    ratios = []
    for eps in (0.04, 0.02, 0.01):
        pe = perturbed_extrema_n2(4.0, math.sqrt(32.0), eps)
        near = min(pe.stationary_points, key=lambda s: abs(s - 4.0))
        ratios.append((near - (4.0 + eps / 128.0)) / (eps * eps))
    band = max(ratios) / min(ratios)
    centered = all(1.14e-5 <= r <= 4.58e-5 for r in ratios)
    report(capsys, 7, "perturbative-shifts", band <= 2.0 and centered,
           f"residual/eps^2 = {[f'{r:.3e}' for r in ratios]}, "
           f"band ratio {band:.2f} <= 2, all within 2x of 2.2888e-5")


def test_08_asym_locus_consistency(capsys):
    alpha = 4.0
    eps = 1e-3 * alpha ** 3
    lin = asym_locus_linearized(eps, alpha).delta
    cub = asym_locus_cubic(eps, alpha).delta
    rel = abs(cub - lin) / abs(lin)
    rng = np.random.default_rng(3)
    worst_rt = 0.0
    signs_ok = True
    for _ in range(60):
        a = rng.uniform(1.0, 6.0)
        e = rng.uniform(1e-4, 0.8) * a ** 3
        d = asym_locus_cubic(e, a).delta
        signs_ok &= d < 0.0
        back = -0.5 * a ** 3 * d * math.sqrt(3.0 + d)
        worst_rt = max(worst_rt, abs(back - e) / e)
    report(capsys, 8, "asym-locus-consistency",
           rel <= 0.01 and worst_rt <= 1e-9 and signs_ok,
           f"lin-vs-cubic rel {rel:.2e} <= 0.01 at eps=1e-3*a^3, "
           f"roundtrip {worst_rt:.2e} <= 1e-9, eps>0 => delta<0")


def test_09_eigensolver_calibration(capsys):
    ho = Polynomial([0.0, 0.0, 1.0])
    cfg = SolverConfig(half_width=12.0, grid_points=2401, num_levels=1)
    e0 = solve_numerical(ho, cfg)[0].energy
    errors = []
    for n in (601, 1201, 2401):
        c = SolverConfig(half_width=12.0, grid_points=n, num_levels=1)
        errors.append(abs(solve_numerical(ho, c)[0].energy - 1.0))
    order = 0.5 * (math.log2(errors[0] / errors[1])
                   + math.log2(errors[1] / errors[2]))
    report(capsys, 9, "eigensolver-calibration",
           abs(e0 - 1.0) <= 2e-4 and abs(order - 2.0) <= 0.2,
           f"|E0-1|={abs(e0 - 1.0):.2e} <= 2e-4 at h=0.01, "
           f"observed order {order:.3f} within 2.0 +- 0.2")


def test_10_relocalization_sharpness(capsys):
    t0 = time.perf_counter()
    cfg = SolverConfig(half_width=9.0, grid_points=3601, num_levels=1)
    result = relocalization_scan(4.0, (0.0, 0.005), 11, cfg)
    crossing = result.crossing

    def central_weight(delta):
        a2 = 16.0
        p = build_symmetric(WellShape((a2, (3.0 + delta) * a2)))
        pair = solve_numerical(p, cfg)[0]
        for region in well_weights(pair, p):
            if region.contains_origin:
                return region.weight
        return 0.0

    ok = crossing is not None and 0.001 <= crossing <= 0.005
    w_before = central_weight(crossing - 0.002) if ok else float("nan")
    w_after = central_weight(crossing + 0.002) if ok else float("nan")
    elapsed = time.perf_counter() - t0
    report(capsys, 10, "relocalization-sharpness",
           ok and w_before > 0.9 and w_after < 0.1 and elapsed < 120.0,
           f"crossing={crossing}, w_c(-0.002)={w_before:.4f} > 0.9, "
           f"w_c(+0.002)={w_after:.4f} < 0.1, runtime={elapsed:.1f}s < 120s")


def test_11_harmonic_gap_shrinks_with_scale(capsys):
    gaps = []
    for alpha in (3.0, 4.0, 5.0):
        a2 = alpha * alpha
        p = build_symmetric(WellShape((a2, 3.0 * a2)))
        half = math.ceil(2.0 * (math.sqrt(3.0) * alpha + 2.5)) / 2.0
        n = int(round(2.0 * half / 0.0025)) + 1
        if n % 2 == 0:
            n += 1
        cfg = SolverConfig(half_width=half, grid_points=n, num_levels=1)
        e0 = solve_numerical(p, cfg)[0].energy
        harmonic = 3.0 * a2  # sqrt(c) at mu^2 = 2
        gaps.append(abs(e0 - harmonic) / harmonic)
    monotone = gaps[0] > gaps[1] > gaps[2]
    report(capsys, 11, "harmonic-gap-shrinks", monotone,
           f"relative gaps {[f'{g:.3e}' for g in gaps]} strictly decreasing "
           f"over alpha in (3, 4, 5)")


def test_12_crossing_time_to_accuracy(capsys):
    # converged delta*(0, 0) at alpha = 4: the h -> 0 Richardson limit of
    # the finite-difference crossing, which corrected solves at h = 0.005
    # and 0.0025 reproduce to 3e-10 and 5e-11
    converged = 2.601628516e-3
    t0 = time.perf_counter()
    sol = solve_crossing(AlcQuery(0, 0, 4.0, backend="numerical"))
    elapsed = time.perf_counter() - t0
    err = abs(sol.delta - converged)
    report(capsys, 12, "crossing-time-to-accuracy",
           err <= 1e-8 and sol.evaluations <= 8,
           f"|delta*(0,0) - {converged}| = {err:.1e} <= 1e-8 in "
           f"{sol.evaluations} <= 8 eigensolves, {elapsed:.3f} s")
