"""Avoided-level-crossing and relocalization machinery for the triple well.

The control parameter throughout is delta in beta^2 = (2 + delta) * alpha^2
(equivalently beta = mu * alpha with mu^2 = 2 + delta); delta = 0 is the
asymptotic line where the outer minimum value vanishes and the two level
families compete.  Crossing conditions equate an outer doublet estimate
with a central level:

    V(sqrt(alpha^2+beta^2)) + (2m+1)*Omega(delta) = (2n+1)*sqrt(c(delta)).

A parity-breaking eps*x^3 coupling moves the crossing line to negative
delta; the locus is eps = -(1/2)*alpha^3*delta*sqrt(3+delta), linearized
delta = -2*eps/(sqrt(3)*alpha^3), exactly by Viete (asym_locus_cubic).

The numerical backend equates the levels' corrected energies, energy +
error_estimate, which are accurate to O(h^4); that lets its default grid
use the step CROSSING_STEP = 0.01, twice the default of the wavefunction
consumers (sweeps, densities, spectra).  V is linear in delta, so each
level's exact slope is a Hellmann-Feynman sum over its eigenvector.  Newton's
method on it starts from the second-order root (_anharmonic_residual), at
least 84 times closer to the converged crossings than the harmonic root, and
takes a step without another eigensolve once it is short enough for the
slope's error to leave it within tolerance: one eigensolve per crossing of
the benchmark menu, of only the three levels the crossing compares.  A
crossing's bracket and a scan's lattice are delta-lines, each labelled by
one well map found at its two ends (_line_map, _line_solve).

Both backends find the harmonic root first.  The closed-form residual
(_harmonic_residual) takes a float or a numpy array, so bracket_scan
evaluates its 33-point sign-change lattice as one array, of every pair
that shares the alpha and the bracket (_crossings); Brent's method
then refines each root, and the second-order one, on float evaluations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .polynomial import (_SCAN_SAMPLES, ParameterError, bracket_scan,
                         brent_root, lattice)
from .spectrum import (Eigenpair, LabeledLevel, SolverConfig, _labels,
                       _n2_closed_form, _n2_second_order, _region_weights,
                       _resolve_solver, _well_families, harmonic_families,
                       solve_numerical)
from .wells import (PerturbationRangeError, WellShape, _isolation_tol,
                    _within, build_symmetric, critical_points, require_alpha,
                    stationary_window, tilted_double_well, triple_well)

__all__ = [
    "AlcQuery", "AlcSolution", "AsymLocusPoint", "PairGap",
    "DegeneracyFit", "ScanRow", "ScanResult", "TiltRow",
    "LabelsUnresolvedError", "NewtonError",
    "TABLE_PAIRS", "PAIRED_ROWS", "REFERENCE_DELTAS_ALPHA4", "CROSSING_STEP",
    "solve_crossing", "crossing_table", "pairing_gaps",
    "tune_maximal_degeneracy", "linearized_shift", "asym_locus_linearized",
    "asym_locus_cubic",
    "left_well_shift", "relocalization_scan", "tilt_scan",
]


class LabelsUnresolvedError(RuntimeError):
    """The numerical backend could not label the requested level indices."""


class NewtonError(RuntimeError):
    """Damped Newton iteration failed to converge."""


# Independently published reference values of delta(m, n) at alpha = 4
# (5 printed decimals); embedded as comparison data for the CLI --compare.
REFERENCE_DELTAS_ALPHA4: dict[tuple[int, int], float] = {
    (1, 3): -0.00262,
    (0, 1): -0.00261,
    (0, 0): 0.00260,
    (1, 2): 0.00261,
    (1, 1): 0.00781,
    (2, 3): 0.00783,
    (1, 0): 0.01299,
    (2, 2): 0.01302,
    (2, 1): 0.01818,
    (3, 3): 0.01823,
    (2, 0): 0.02332,
    (3, 2): 0.02338,
}
# The twelve (m, n) index pairs of the reference crossing search, and the
# (m, n) ~ (m+1, n+2) near-degenerate pairing they exhibit.
TABLE_PAIRS: tuple[tuple[int, int], ...] = tuple(REFERENCE_DELTAS_ALPHA4)
PAIRED_ROWS: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    ((m, n), (m + 1, n + 2)) for m, n in TABLE_PAIRS
    if (m + 1, n + 2) in TABLE_PAIRS)


@dataclass(frozen=True)
class AlcQuery:
    """One crossing condition: off-central level m against central level n."""

    m: int
    n: int
    alpha: float
    bracket: tuple[float, float] = (-0.05, 0.05)
    backend: str = "harmonic"
    solver: SolverConfig | None = None

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ParameterError("level indices must be non-negative")
        if not (self.bracket[0] < self.bracket[1]):
            raise ParameterError("bracket must satisfy lo < hi, "
                                 f"got {tuple(self.bracket)}")
        # beta^2 = (2 + delta) * alpha^2 must stay positive on the bracket
        if not self.bracket[0] > -2.0:
            raise ParameterError("bracket must lie above delta = -2, where "
                                 "beta^2 = (2 + delta) * alpha^2 vanishes, "
                                 f"got {tuple(self.bracket)}")
        # the closed form's largest term: beta^6 = (2 + delta)^3 * alpha^6
        require_alpha(self.alpha, 6,
                      math.sqrt(max(1.0, 2.0 + self.bracket[1])))
        if self.backend not in ("harmonic", "numerical"):
            raise ParameterError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class AlcSolution:
    m: int
    n: int
    delta: float
    mu: float
    beta: float
    # the residual at delta - (newton_step or 0): at delta on the harmonic
    # backend and after Brent's method, else at the last eigensolve, from
    # which Newton's method took newton_step
    residual: float
    backend: str
    # backend residual evaluations, bracket ends included: points, so the
    # harmonic scan's one array evaluation of the lattice counts 33
    evaluations: int
    # the closed-form root refined in the lattice's sign-change cell (delta
    # itself on the harmonic backend), None when the lattice has no cell
    harmonic_delta: float | None
    # the Newton step delta - (delta of the last eigensolve); None on
    # the harmonic backend and after Brent's fallback
    newton_step: float | None


@dataclass(frozen=True)
class PairGap:
    first: tuple[int, int]
    second: tuple[int, int]
    gap: float


@dataclass(frozen=True)
class AsymLocusPoint:
    epsilon: float
    alpha: float
    delta: float
    method: str  # 'linearized' | 'cubic'


@dataclass(frozen=True)
class DegeneracyFit:
    shape: WellShape
    max_residual: float
    ground_energies: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class ScanRow:
    delta: float
    e0: float
    w_central: float
    w_outer: float
    label: str
    angle_bound: float | None    # the ground pair's (Eigenpair.angle_bound)


@dataclass(frozen=True)
class ScanResult:
    alpha: float
    rows: tuple[ScanRow, ...]
    crossing: float | None
    bracket: tuple[float, float] | None  # lattice deltas around the crossing


@dataclass(frozen=True)
class TiltRow:
    tilt: float
    e0: float
    w_left: float
    w_right: float
    angle_bound: float | None    # the ground pair's (Eigenpair.angle_bound)


def _harmonic_residual(delta, m, n, alpha: float):
    """Outer doublet m minus central level n of the closed-form spectrum,
    at delta a float or a numpy array; m and n are ints, or integer column
    arrays that give one row per pair.  A float gives the Python float that
    harmonic_spectrum_n2 gives.  An array decides signs only: numpy's
    b2 ** 3 can differ from Python's by an ulp."""
    sqrt = np.sqrt if isinstance(delta, np.ndarray) else math.sqrt
    beta = alpha * sqrt(2.0 + delta)
    spring_c, spring_o, v_outer = _n2_closed_form(alpha, beta)
    return v_outer + (2 * m + 1) * spring_o - (2 * n + 1) * spring_c


def _anharmonic_residual(delta, m: int, n: int, alpha: float):
    """Outer level m minus central level n of _n2_second_order."""
    central, outer = _n2_second_order(alpha, delta, n, m)
    return outer - central


# Grid step of the default numerical crossing config.  The corrected
# energies leave delta within 3e-7 of the converged values at this step for
# the twelve table pairs at alpha in 3.5..6; the O(h^2) wavefunctions only
# label the levels here.  At 0.02 the worst error is 4.7e-6, on the (3, 2)
# pairs.
CROSSING_STEP = 0.01


def _default_numeric_config(q: AlcQuery,
                            end: tuple | None = None) -> SolverConfig:
    """The resolved grid of the widest potential in the bracket, at
    CROSSING_STEP; end is that potential's _line_ends entry, when found."""
    p, points = end[:2] if end else (triple_well(q.alpha, q.bracket[1]), None)
    return _resolve_solver(p, points, 2 * (q.m + 1) + q.n + 3,
                           step=CROSSING_STEP)


def _line_ends(alpha: float, lo: float, hi: float,
               window: float | None = None) -> list[tuple]:
    """(p, its stationary points, its well map) of the triple wells p at
    delta = lo and hi, the points isolated on +-window or, when None, on
    p's stationary_window."""
    ends = []
    for p in (triple_well(alpha, lo), triple_well(alpha, hi)):
        points = critical_points(p, stationary_window(p) if window is None
                                 else window)
        ends.append((p, points, _well_families(p, points)))
    return ends


def _line_map(alpha: float, lo: float, hi: float, window: float,
              ends: list[tuple] | None = None
              ) -> tuple[list[float], list[tuple[str, tuple[int, ...]]]]:
    """The one well map (_well_families) of every triple well on the
    delta-line [lo, hi], from its ends (_line_ends), found on +-window
    unless given; a stationary point of either end beyond +-window raises
    ValueError, as critical_points does.

    V' = 6x(x^2 - alpha^2)(x^2 - (3 + delta) alpha^2), so for delta > -2
    the maxima sit at +-alpha and the map does not depend on delta; the
    maps of the two ends are compared to check it.  They agree when their
    families are equal and each edge of one lies within the isolation
    tolerance on window of the other's, the tolerance within which
    _region_weights treats a grid point as on an edge; otherwise
    ParameterError.
    """
    if ends is None:
        ends = _line_ends(alpha, lo, hi, window)
    for _, points, _ in ends:
        _within(points, window)
    (_, _, (e0, f0)), (_, _, (e1, f1)) = ends
    near = _isolation_tol(window)
    if f0 != f1 or not all(math.isclose(a, b, rel_tol=0.0, abs_tol=near)
                           for a, b in zip(e0, e1)):
        raise ParameterError(
            f"the well maps at delta = {lo:.6g} and {hi:.6g} differ: the "
            "maxima at +-alpha degenerate as delta approaches -2, and a "
            "delta range needs its low end further above it")
    return e0, f0


def _line_solve(alpha: float, delta: float, cfg: SolverConfig,
                well_map: tuple
                ) -> tuple[list[Eigenpair], list[LabeledLevel]]:
    """The eigenpairs of triple_well(alpha, delta) on cfg and their labels
    by a _line_map."""
    pairs = solve_numerical(triple_well(alpha, delta), cfg)
    return pairs, _labels(pairs, *well_map)


def _window_solve(delta: float, q: AlcQuery, cfg: SolverConfig,
                  well_map: tuple
                  ) -> tuple[list[Eigenpair], list[LabeledLevel]] | None:
    """Levels n + 2m .. n + 2m + 2 of triple_well(alpha, delta) on cfg,
    labelled central-n, offcentral-m, offcentral-m, or None.

    At a crossing n central levels and m doublets lie below the three it
    compares, in either parity.  The window is taken when cfg holds it and
    its levels are, by their weights on the well map, one central and two
    off-central, each within a quarter of its family's harmonic spacing
    2 sqrt(c) or 2 Omega of the family's level of _n2_second_order.
    """
    first = q.n + 2 * q.m
    if first + 3 > cfg.num_levels:
        return None
    pairs = solve_numerical(triple_well(q.alpha, delta),
                            replace(cfg, num_levels=3), first=first)
    labeled = _labels(pairs, *well_map)
    if sorted(lv.family for lv in labeled) != ["central", "offcentral",
                                                "offcentral"]:
        return None
    spring_c, spring_o, _ = _n2_closed_form(q.alpha,
                                            q.alpha * math.sqrt(2.0 + delta))
    central, outer = _n2_second_order(q.alpha, delta, q.n, q.m)
    want = {"central": (q.n, central, spring_c),
            "offcentral": (q.m, outer, spring_o)}
    named = []
    for lv, pair in zip(labeled, pairs):
        index, level, spring = want[lv.family]
        if not abs(pair.energy + pair.error_estimate - level) <= 0.5 * spring:
            return None
        named.append(replace(lv, index=index, label=f"{lv.family}-{index}"))
    return pairs, named


def _numeric_residual(delta: float, q: AlcQuery, cfg: SolverConfig,
                      well_map: tuple) -> tuple[float, float]:
    """Mean corrected energy of doublet m minus corrected central level n,
    and its delta-slope from the Hellmann-Feynman slopes sum psi^2 dV h of
    the grid energies, dV/ddelta = alpha^2 (3 alpha^2 x^2 - 1.5 x^4) exactly
    (the slope leaves out d(error_estimate)/ddelta; nan when r is +-inf),
    on the three levels of _window_solve, or when it gives None on the
    cfg.num_levels lowest, solved and labelled by _line_solve."""
    pairs, labeled = (_window_solve(delta, q, cfg, well_map)
                      or _line_solve(q.alpha, delta, cfg, well_map))
    a2, x2 = q.alpha * q.alpha, pairs[0].x ** 2
    dv = a2 * x2 * (3.0 * a2 - 1.5 * x2)
    central, doublet = ([(pair.energy + pair.error_estimate,
                          float(pair.psi ** 2 @ dv) * pair.h)
                         for lv, pair in zip(labeled, pairs) if lv.label == name]
                        for name in (f"central-{q.n}", f"offcentral-{q.m}"))
    if central and doublet:  # (energy, slope) of the doublet mean - central
        r, slope = (sum(v) / len(doublet) - c
                    for v, c in zip(zip(*doublet), central[0]))
        return r, slope
    # a family missing from the solved window still fixes the residual sign:
    # the absent level lies above every computed one
    if central:
        return math.inf, math.nan
    if doublet:
        return -math.inf, math.nan
    raise LabelsUnresolvedError(
        f"labels unresolved at delta={delta:.8g}: neither central-{q.n} nor "
        f"offcentral-{q.m} found in {[lv.label for lv in labeled]}")


# Relative error of the Hellmann-Feynman slope, the bound its test against a
# central difference allows: a Newton step s taken on it is off by at most
# |s| * _SLOPE_REL_ERR (Newton's own O(s^2) error is far smaller at the
# steps accepted), so _newton accepts a step that keeps this within tol.
_SLOPE_REL_ERR = 1e-3


def _newton(f, x: float, a: float, b: float,
            tol: float) -> tuple[float, float, float] | None:
    """Newton's method on f(x) -> (r, dr/dx) from x in [a, b]: (x + step, r,
    step) at the first step -r/(dr/dx) whose own error under a slope off by
    _SLOPE_REL_ERR, |step| * _SLOPE_REL_ERR, is at most tol, with r the
    residual at x; the step is taken without evaluating f again.  None once
    a step leaves [a, b], r or the slope is not finite or the slope is 0,
    or after six evaluations."""
    for _ in range(6):
        r, slope = f(x)
        if not (math.isfinite(r) and math.isfinite(slope)) or slope == 0.0:
            return None
        step = -r / slope
        x += step
        if not a <= x <= b:
            return None
        if abs(step) * _SLOPE_REL_ERR <= tol:
            return x, r, step
    return None


def _solved(q: AlcQuery, cells: list[tuple[float, float, float]],
            delta_tol: float, ends: list[tuple] | None) -> AlcSolution:
    """solve_crossing of q from the cells of its harmonic scan and, on the
    numerical backend, the _line_ends of its bracket."""
    evaluations = _SCAN_SAMPLES

    def harmonic(d: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _harmonic_residual(d, q.m, q.n, q.alpha)
    if len(cells) > 1:
        warnings.warn("multiple residual sign changes in bracket; "
                      "taking the root nearest zero", stacklevel=4)
        cells = sorted(cells, key=lambda iv: abs(0.5 * (iv[0] + iv[1])))
    lo, hi = q.bracket
    near, solved = (lo, hi), None
    if cells:
        a, b, _ = cells[0]
        solved = brent_root(harmonic, a, b, harmonic(a), harmonic(b),
                            delta_tol)
        near = (max(lo, a - (b - a)), min(hi, b + (b - a)))
    harmonic_delta = solved[0] if solved is not None else None
    newton_step = None
    if q.backend == "numerical":
        cfg = q.solver if q.solver is not None else \
            _default_numeric_config(q, ends[1])
        well_map = _line_map(q.alpha, lo, hi, cfg.half_width, ends)
        evaluations = 0  # from here on, eigensolves only

        def residual(d):
            nonlocal evaluations
            evaluations += 1
            return _numeric_residual(d, q, cfg, well_map)
        if solved is not None:  # from the second-order root when near has one
            fa, fb = (_anharmonic_residual(d, q.m, q.n, q.alpha) for d in near)
            if (fa < 0.0) != (fb < 0.0):
                solved = brent_root(lambda d: _anharmonic_residual(
                    d, q.m, q.n, q.alpha), *near, fa, fb, delta_tol)
            solved = _newton(residual, solved[0], *near, delta_tol)
            if solved is not None:
                *solved, newton_step = solved
        if solved is None:  # Brent's method on near, then on a wider bracket
            for a, b in dict.fromkeys((near, (lo, hi))):
                fa, fb = residual(a)[0], residual(b)[0]
                if fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0):
                    solved = brent_root(lambda d: residual(d)[0], a, b,
                                        fa, fb, delta_tol)
                    break
    if solved is None:
        raise ValueError(f"no crossing in bracket [{lo:g}, {hi:g}] for "
                         f"(m={q.m}, n={q.n})")
    delta, value = solved
    if not near[0] <= delta <= near[1]:
        warnings.warn(f"{q.backend} root delta={delta:.8g} lies outside the "
                      f"widened harmonic cell [{near[0]:.8g}, {near[1]:.8g}]",
                      stacklevel=4)
    return AlcSolution(q.m, q.n, delta, mu=math.sqrt(2.0 + delta),
                       beta=q.alpha * math.sqrt(2.0 + delta),
                       residual=value, backend=q.backend,
                       evaluations=evaluations, harmonic_delta=harmonic_delta,
                       newton_step=newton_step)


def _crossings(queries: list[AlcQuery],
               delta_tol: float) -> list[AlcSolution]:
    """solve_crossing of each query in turn, the queries sharing alpha and
    bracket and so one bracket_scan: of their (len(queries), 33) rows,
    which _harmonic_residual forms from one _n2_closed_form of the lattice
    by the array operations it does for a single pair (broadcast, so a
    residual that does not depend on (m, n) is every pair's row).  The
    numerical queries share one _line_ends of the bracket, on each end's
    stationary_window: the hi end's points size the default grid, and each
    query checks the points against its own grid's half-width.  The first
    query without a crossing raises its ValueError."""
    alpha, bracket = queries[0].alpha, queries[0].bracket
    m, n = (np.array([[q.m] for q in queries]),
            np.array([[q.n] for q in queries]))
    cells = bracket_scan(lambda d: np.broadcast_to(
        _harmonic_residual(d, m, n, alpha), (m.size, d.size)), *bracket)
    ends = _line_ends(alpha, *bracket) if any(
        q.backend == "numerical" for q in queries) else None
    return [_solved(q, c, delta_tol, ends) for q, c in zip(queries, cells)]


def solve_crossing(q: AlcQuery, delta_tol: float = 1e-8) -> AlcSolution:
    """Solve the crossing condition for delta to within delta_tol.

    Both backends scan the closed-form harmonic residual on a 33-point
    lattice of the bracket, as one array (bracket_scan, through _crossings,
    which scans all pairs of crossing_table, or of a sweep of kind alc, on
    one lattice, as they share alpha and bracket), and refine the
    sign-change cell by Brent's method: that root is harmonic_delta, and
    the harmonic backend's solution, whose evaluations count every
    closed-form point.  Several cells (not seen on the default bracket,
    where the residual is monotone) draw a warning, and the one nearest
    zero is taken.  The window near is that cell widened by its width on
    each side within q.bracket, or q.bracket when there is no cell.

    The numerical backend counts eigensolves of one residual: the corrected
    energies on q.solver, or else on the grid resolve_solver gives the
    bracket's widest triple well at step CROSSING_STEP, labelled by the
    bracket's well map (_line_map), of the three levels compared
    (_window_solve) or, when those do not match, of the grid's lowest.
    Newton's method, with the Hellmann-Feynman slope, runs within near
    from the root of the second-order residual (_anharmonic_residual),
    which Brent's method finds on near, or from the harmonic root when near
    shows that residual no sign change, and takes its last step without
    another eigensolve: one eigensolve on each of the 48 menu crossings.
    Without a harmonic root, or when Newton fails (_newton), Brent's method
    runs on near, then on q.bracket if wider; a root outside near draws a
    warning.

    Raises ValueError when no window brackets a crossing; the numerical
    backend raises ParameterError when the bracket's ends have different
    well maps.
    """
    return _crossings([q], delta_tol)[0]


def crossing_table(alpha: float) -> list[AlcSolution]:
    """All twelve reference (m, n) crossings, harmonic backend, sorted by
    delta: solve_crossing of each at delta_tol = 1e-12, the twelve
    scanned on one lattice."""
    sols = _crossings([AlcQuery(m, n, alpha) for m, n in TABLE_PAIRS], 1e-12)
    return sorted(sols, key=lambda s: s.delta)


def pairing_gaps(solutions: list[AlcSolution]) -> list[PairGap]:
    """Near-degeneracy gaps |delta(m+1, n+2) - delta(m, n)| of the table rows."""
    by_index = {(s.m, s.n): s.delta for s in solutions}
    gaps = []
    for first, second in PAIRED_ROWS:
        if first in by_index and second in by_index:
            gaps.append(PairGap(first, second,
                                abs(by_index[first] - by_index[second])))
    return gaps


def _inequivalent_ground_energies(shape: WellShape) -> list[float]:
    return [w.level(0) for _, w in harmonic_families(build_symmetric(shape))]


_TUNE_ITERATIONS = 50  # Newton steps of tune_maximal_degeneracy


def tune_maximal_degeneracy(shape: WellShape, tol: float) -> DegeneracyFit:
    """Adjust the last floor((N+1)/2) increments until every inequivalent
    well has the same ground-state harmonic energy v + sqrt(g), within tol.

    Mirror wells (+-X) are identified first, so an N-increment shape leaves
    only floor(N/2) independent constraints; the Newton step uses a
    least-squares pseudo-inverse where the system is underdetermined.
    N = 1 (double well) is trivially degenerate by symmetry and is
    returned unchanged.
    """
    if not (tol > 0.0):
        raise ParameterError(f"tol must be positive, got {tol!r}")
    n = shape.order
    if n == 1:
        energies = tuple(_inequivalent_ground_energies(shape))
        return DegeneracyFit(shape, 0.0, energies, 0)
    if not shape.is_deep:
        warnings.warn("shape below the deep-well gate (first increment or "
                      "spacing < 1); degeneracy tuning may be unreliable",
                      stacklevel=2)
    j = (n + 1) // 2
    free = list(range(n - j, n))

    def ground(inc: list[float]) -> tuple[list[float], np.ndarray]:
        energies = _inequivalent_ground_energies(WellShape(tuple(inc)))
        return energies, np.array([e - energies[0] for e in energies[1:]])

    def valid(inc: list[float]) -> bool:
        return inc[0] > 0.0 and all(b > a for a, b in zip(inc, inc[1:]))

    inc = list(shape.increments)
    energies, res = ground(inc)
    for iteration in range(1, _TUNE_ITERATIONS + 1):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return DegeneracyFit(WellShape(tuple(inc)),
                                 max(energies) - min(energies),
                                 tuple(energies), iteration - 1)
        jac = np.zeros((len(res), len(free)))
        for col, idx in enumerate(free):
            step = 1e-6 * max(1.0, inc[idx])
            trial = list(inc)
            trial[idx] += step
            jac[:, col] = (ground(trial)[1] - res) / step
        dx, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        scale = 1.0
        for _ in range(10):
            trial = list(inc)
            for col, idx in enumerate(free):
                trial[idx] += scale * float(dx[col])
            if valid(trial):
                trial_energies, trial_res = ground(trial)
                if float(np.max(np.abs(trial_res))) < norm:
                    inc, energies, res = trial, trial_energies, trial_res
                    break
            scale *= 0.5
        else:
            raise NewtonError(
                f"damped Newton stalled at iteration {iteration}; "
                f"residuals {res.tolist()}")
    raise NewtonError(f"no convergence in {_TUNE_ITERATIONS} iterations; "
                      f"residuals {res.tolist()}")


def linearized_shift(epsilon: float, alpha: float) -> float:
    """Leading-order catastrophe shift delta = -2*eps/(sqrt(3)*alpha^3),
    with no range check on eps; alpha must pass require_alpha."""
    require_alpha(alpha, 3)
    return -2.0 * epsilon / (math.sqrt(3.0) * alpha ** 3)


def asym_locus_linearized(epsilon: float, alpha: float) -> AsymLocusPoint:
    """Leading-order catastrophe shift delta = -2*eps/(sqrt(3)*alpha^3).

    Valid for |epsilon| <= 0.1*alpha^3; beyond that the cubic form must be
    solved (asym_locus_cubic).
    """
    delta = linearized_shift(epsilon, alpha)
    if abs(epsilon) > 0.1 * alpha ** 3:
        raise PerturbationRangeError(
            f"|epsilon|={abs(epsilon):g} exceeds 0.1*alpha^3; "
            "use asym_locus_cubic")
    return AsymLocusPoint(epsilon, alpha, delta, "linearized")


def asym_locus_cubic(epsilon: float, alpha: float) -> AsymLocusPoint:
    """Solve eps = -(1/2)*alpha^3*delta*sqrt(3+delta) for delta in [-2, 1].

    s = sqrt(3+delta) solves s^3 - 3s = -2*eps/alpha^3; Viete's root on the
    branch s in [1, 2] (delta*sqrt(3+delta) rises from -2 to 2 there; the
    root nearest 0) is delta = -4*sin(pi/3 + phi)*sin(phi), phi =
    asin(eps/alpha^3)/3 (Numerical Recipes, 3rd ed., sec. 5.6), which is
    2*cos(pi/3 + 2*phi) - 1 without its cancellation near eps = 0.  eps = 0
    and -+alpha^3 give 0.0, 1.0 and -2.0 exactly, where the sines miss the
    ends by an ulp; |epsilon| > alpha^3 raises ParameterError.
    """
    require_alpha(alpha, 3)
    cube = alpha ** 3
    if not abs(epsilon) <= cube:
        raise ParameterError(
            f"no catastrophe shift in (-3, 1] for epsilon={epsilon:g}, "
            f"alpha={alpha:g} (attainable range is +-alpha^3)")
    if epsilon == 0.0:
        return AsymLocusPoint(0.0, alpha, 0.0, "cubic")
    if abs(epsilon) == cube:
        delta = -2.0 if epsilon > 0.0 else 1.0
    else:
        phi = math.asin(epsilon / cube) / 3.0
        delta = -4.0 * math.sin(math.pi / 3.0 + phi) * math.sin(phi)
    return AsymLocusPoint(epsilon, alpha, delta, "cubic")


def left_well_shift(alpha: float, beta: float,
                    epsilon: float) -> tuple[float, float]:
    """O(eps) changes at the leftmost minimum under the eps*x^3 tilt.

    Returns (depth_shift, curvature_shift): the well bottom moves by
    -eps*(alpha^2+beta^2)^(3/2) (a decrease for eps > 0) and V'' there by
    +3*sqrt(alpha^2+beta^2)*(4*alpha^2+5*beta^2)/beta^2 * eps.
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ParameterError("alpha and beta must be positive")
    s = alpha * alpha + beta * beta
    depth = -epsilon * s ** 1.5
    curvature = 3.0 * math.sqrt(s) * (4.0 * alpha * alpha + 5.0 * beta * beta) \
        / (beta * beta) * epsilon
    return depth, curvature


def _lattice(name: str, value_range: tuple[float, float],
             steps: int) -> list[float]:
    """steps >= 3 evenly spaced values from lo to hi, lo < hi."""
    if steps < 3:
        raise ParameterError(f"steps must be at least 3, got {steps}")
    lo, hi = value_range
    if not (lo < hi):
        raise ParameterError(f"{name} range must satisfy lo < hi, "
                             f"got {tuple(value_range)}")
    return lattice(lo, hi, steps).tolist()


def relocalization_scan(alpha: float, delta_range: tuple[float, float],
                        steps: int, cfg: SolverConfig) -> ScanResult:
    """Ground-state central weight w_c over a delta lattice.

    Reports the crossing delta* where w_c first drops through 0.5 (linear
    interpolation between lattice points), or None when w_c never crosses,
    and the bracket of the two lattice deltas that straddle it: the
    crossing is known to one lattice step.
    Every point is labelled with one well map, found at the two ends of
    the lattice (_line_map); ends with different maps (delta_min at or
    within roundoff of -2, where the maxima degenerate) raise
    ParameterError.  The rows equal those of classify_levels on each
    point's own solve.  The points are solved in lattice order in the
    calling process.
    """
    deltas = _lattice("delta", delta_range, steps)
    well_map = _line_map(alpha, deltas[0], deltas[-1], cfg.half_width)
    rows = []
    for delta in deltas:
        pairs, labeled = _line_solve(alpha, delta, cfg, well_map)
        ground = labeled[0]
        rows.append(ScanRow(delta, ground.energy, ground.w_central,
                            ground.w_outer, ground.label,
                            pairs[0].angle_bound))
    for a, b in zip(rows, rows[1:]):
        if a.w_central > 0.5 >= b.w_central:
            frac = (a.w_central - 0.5) / (a.w_central - b.w_central)
            return ScanResult(alpha, tuple(rows),
                              a.delta + frac * (b.delta - a.delta),
                              (a.delta, b.delta))
    return ScanResult(alpha, tuple(rows), None, None)


def tilt_scan(s1: float, tilt_range: tuple[float, float], steps: int,
              cfg: SolverConfig) -> list[TiltRow]:
    """Ground-state left-half weight of the double well x^4 - 2*s1*x^2 + b*x.

    The contrast case to the triple-well relocalization: the double-well
    response to the tilt b is smooth at any lattice resolution, with no
    abrupt weight jump.
    """
    rows = []
    for b in _lattice("tilt", tilt_range, steps):
        ground = solve_numerical(tilted_double_well(s1, b), cfg)[0]
        left, right = _region_weights([ground], [-math.inf, 0.0, math.inf])[0]
        rows.append(TiltRow(b, ground.energy, left, right, ground.angle_bound))
    return rows
