"""Low-lying bound states of -lam^2 psi'' + V psi = E psi.

Two routes: closed-form harmonic estimates per well family (level spacing
2*lam*sqrt(V''/2)), and a second-order finite-difference discretization on
a symmetric grid with Dirichlet boundaries, whose tridiagonal blocks are
read for harmonic wells by one rule (_grid_wells).  A solve returns a
window of consecutive levels, the lowest by default.  A block that needs
its lowest level alone is solved by shift-and-invert on LAPACK
dpttrf/dpttrs from a harmonic first shift (_harmonic_guess) and min V as
its first lower bound, every shift certified by the signs of the factor's
pivots.  It stops once one Sturm count, the negative pivots of a dpttrf
factorization (_count), certifies a gap above the level, from which the
Kato-Temple bound certifies the energy and Davis-Kahan the vector's angle
(_ground); a doublet split too finely for such a gap stops when the
shifts close in on the level.  Any other block takes inverse iteration
(stein) at the rungs of the wells' harmonic ladders, separated by a
Rayleigh-Ritz rotation, then Rayleigh-quotient iteration on LAPACK
dgttrf/dgttrs, certified by Sturm counts at the window's edges and a
residual-and-gap bound (_refined).  Both reach stebz's absolute
tolerance, ulp * max |Gershgorin end|; a block neither route certifies
(clustered levels, say) takes bisection (stebz) to that tolerance.
A certified gap also bounds the angle of each vector to its eigenvector
(Eigenpair.angle_bound): a region weight at or below its resolution
2 sqrt(w) theta + theta^2 is reported as exactly 0, since its digits
would record the iteration that produced the vector, not the state.
A reflection-symmetric potential is solved as separate even and odd blocks
on the half grid x >= 0, so its levels have exact parity.  Each numerical
level carries error_estimate, the first-order correction of its O(h^2)
discretization error (Paine, de Hoog & Anderssen, Computing 26, 123
(1981)), computed from the eigenvector at no extra solve: energy +
error_estimate is accurate to O(h^4).  Wavefunctions and region weights
stay O(h^2).  Both routes name the wells by one map (harmonic_families);
classify_levels labels each numerical level by the family that holds most
of its weight; every family's weight is a sum over its own regions.
What a solve's points share is built once per config and kept read-only:
the grid, one array per (half_width, grid_points) that every Eigenpair on
it holds as x, the blocks' off-diagonals, and the grid indices of the
region edges.

The six LAPACK routines come from SciPy's f2py extension
scipy.linalg._flapack, loaded from its file on the first numerical solve
(_load_lapack): a closed-form run never touches SciPy, and a numerical one
loads that one extension, not scipy.linalg.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from .polynomial import ParameterError, Polynomial
from .wells import (CriticalPoint, HarmonicWell, _isolation_tol,
                    critical_points, harmonic_wells_from, stationary_window)

__all__ = [
    "SolverConfig", "Eigenpair", "HarmonicSpectrum", "RegionWeight",
    "LabeledLevel", "ConvergenceError", "DomainEstimateError",
    "harmonic_families", "harmonic_spectrum_n2", "choose_domain",
    "grid_points_for", "DEFAULT_STEP", "resolve_solver", "solve_numerical",
    "well_weights", "classify_levels",
]


class ConvergenceError(RuntimeError):
    """The LAPACK tridiagonal eigensolver failed to converge."""


class DomainEstimateError(ParameterError):
    """No harmonic well to size a default grid from; a half-width is needed."""


@dataclass(frozen=True)
class SolverConfig:
    """Grid and level-count controls for the finite-difference solver.

    The grid [-half_width, half_width] must be symmetric with an odd point
    count (so it contains x = 0); half_width should satisfy
    V(+-L) >= 2 * (highest requested harmonic estimate).  resolve_solver
    builds the default config of a potential.
    """

    half_width: float
    grid_points: int
    num_levels: int = 1
    lam: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.half_width < math.inf:
            raise ParameterError("half_width must be positive and finite, "
                                 f"got {self.half_width!r}")
        if self.grid_points < 201:
            raise ParameterError("grid_points must be at least 201")
        if self.grid_points % 2 == 0:
            raise ParameterError("grid_points must be odd (symmetric grid "
                                 "containing 0)")
        if self.num_levels < 1:
            raise ParameterError("num_levels must be at least 1")
        if not 0.0 < self.lam < math.inf:
            raise ParameterError(f"lam must be positive and finite, got {self.lam!r}")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.grid_points - 1)

    def grid(self) -> np.ndarray:
        """The grid points: one shared read-only array per (half_width,
        grid_points)."""
        return _grid(self.half_width, self.grid_points)


# A scan or a crossing solves every point on one config; these caches hold
# what its solves share, for the last _CACHED configs (under 1 MB on grids
# of 10^4 points).
_CACHED = 8


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_CACHED)
def _grid(half_width: float, grid_points: int) -> np.ndarray:
    return _read_only(np.linspace(-half_width, half_width, grid_points))


@functools.lru_cache(maxsize=_CACHED)
def _off_diagonal(size: int, off: float, first: float) -> np.ndarray:
    """size entries off, the first times `first`: a block's off-diagonal,
    read-only."""
    a = np.full(size, off)
    a[0] *= first
    return _read_only(a)


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One numerical level: energy and L2-normalized wavefunction samples.

    energy is the eigenvalue of the discretized operator, accurate to
    O(h^2).  error_estimate is the first-order estimate of that
    discretization error, signed so that energy + error_estimate is the
    continuum level to O(h^4).  x is the grid, one shared read-only array
    per grid (SolverConfig.grid); psi is the pair's own.  angle_bound
    bounds the sine of the angle between psi and the grid operator's
    eigenvector, from the residual and a gap certified by Sturm counts
    (Davis-Kahan; see _ground and _refined), or is None when the solve
    certified no gap: a doublet split below resolution, say, or a block
    that took bisection.  A region weight w of psi then lies within
    2 sqrt(w) angle_bound + angle_bound^2 of the eigenvector's.
    """

    energy: float
    error_estimate: float
    psi: np.ndarray
    x: np.ndarray
    h: float
    angle_bound: float | None


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Closed-form triple-well estimates: central levels and outer doublets."""

    central: tuple[float, ...]
    off_central: tuple[float, ...]
    spring_central: float       # sqrt(c) = sqrt(V''(0)/2)
    spring_off_central: float   # Omega = sqrt(V''(X)/2) at the outer minimum


@dataclass(frozen=True)
class RegionWeight:
    """Probability weight between two consecutive maxima of V."""

    lo: float
    hi: float
    weight: float

    @property
    def contains_origin(self) -> bool:
        return self.lo < 0.0 < self.hi


@dataclass(frozen=True)
class LabeledLevel:
    """A numerical level named by the well family that holds most of its
    weight (see harmonic_families for the families and their names).

    index counts the family's levels by energy; the two members of a
    parity doublet of a mirrored family share one index.  label is
    '<family>-<index>', e.g. 'central-0' or 'offcentral-1'.  w_central is
    the weight of the central family, 0 when the origin is not a well, and
    w_outer the sum of the other families' weights, never a complement.
    """

    energy: float
    family: str
    index: int
    label: str
    w_central: float
    w_outer: float


def _n2_closed_form(alpha: float, beta):
    """(spring_c, spring_o, v_outer) of the triple well with widths
    (alpha, beta): sqrt(c), Omega and V at the outer minimum.  beta may be
    a numpy array; a float beta takes math.sqrt and Python's float power,
    so its results are Python floats."""
    sqrt = np.sqrt if isinstance(beta, np.ndarray) else math.sqrt
    a2, b2 = alpha * alpha, beta * beta
    return (sqrt(3.0 * a2 * (a2 + b2)), sqrt(6.0 * a2 * b2 + 6.0 * b2 * b2),
            a2 ** 3 + 1.5 * a2 * a2 * b2 - 0.5 * b2 ** 3)


def _n2_second_order(alpha: float, delta, n: int, m: int):
    """(central level n, outer level m) of triple_well(alpha, delta), a float
    or a numpy array, at lam = 1 to second order (Landau & Lifshitz, QM 38):
    with V0 and the derivatives V2..V4 at a well, w = sqrt(2 V2), s = 1/w,
    a = V3/6, b = V4/24, E_k = V0 + w(k+1/2) + b s^2 (6k^2+6k+3)
    - (a^2/w) s^3 (30k^2+30k+11)."""
    sqrt = np.sqrt if isinstance(delta, np.ndarray) else math.sqrt
    s1 = alpha * alpha
    s2 = (3.0 + delta) * s1   # V = x^6 - 1.5(s1+s2)x^4 + 3 s1 s2 x^2

    def level(v0, v2, v3, v4, k):
        w = sqrt(2.0 * v2)
        s = 1.0 / w
        return (v0 + w * (k + 0.5) + v4 / 24.0 * s * s * (6 * k * k + 6 * k + 3)
                - (v3 / 6.0) ** 2 / w * s ** 3 * (30 * k * k + 30 * k + 11))
    return (level(0.0, 6.0 * s1 * s2, 0.0, -36.0 * (s1 + s2), n),
            level(1.5 * s1 * s2 * s2 - 0.5 * s2 ** 3, 12.0 * s2 * (s2 - s1),
                  sqrt(s2) * (84.0 * s2 - 36.0 * s1), 324.0 * s2 - 36.0 * s1, m))


def harmonic_spectrum_n2(alpha: float, beta: float, n_max: int,
                         m_max: int) -> HarmonicSpectrum:
    """Closed-form spectrum of the triple well with widths (alpha, beta),
    at lam = 1."""
    spring_c, spring_o, v_outer = _n2_closed_form(alpha, beta)
    central = tuple((2 * n + 1) * spring_c for n in range(n_max + 1))
    off = tuple(v_outer + (2 * m + 1) * spring_o for m in range(m_max + 1))
    return HarmonicSpectrum(central, off, spring_c, spring_o)


def choose_domain(p: Polynomial, e_max: float) -> float:
    """Smallest safe half-width L on a 0.5-step lattice.

    Climbs the lattice until V(+-L) >= 2*e_max and L exceeds the outermost
    stationary point by 2, then takes one more lattice step of margin.
    """
    points = critical_points(p, stationary_window(p))
    return _domain(p, e_max, max((abs(cp.x) for cp in points), default=0.0))


def _domain(p: Polynomial, e_max: float, reach: float) -> float:
    """choose_domain, given the reach max |x| of the stationary points."""
    if p.degree < 2 or p.degree % 2 != 0 or p.coeffs[-1] <= 0.0:
        raise ParameterError("potential must be confining: even degree >= 2, "
                             "positive leading coefficient")
    level = 2.0 * e_max
    min_l = reach + 2.0
    half = 0.5
    while not (half >= min_l and p(half) >= level and p(-half) >= level):
        half += 0.5
        if half > 1e6:
            raise ValueError("no reasonable domain found; potential barely grows")
    return half + 0.5


_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


def grid_points_for(half_width: float, step: float) -> int:
    """Odd point count >= 201 putting the grid spacing near the requested
    step; ParameterError when numpy cannot size a float array that long
    (np.intp's maximum in bytes), MemoryError later when it cannot
    allocate one."""
    count = 2.0 * half_width / step
    if not count < _MAX_GRID_POINTS:    # false for nan and inf too
        raise ParameterError(f"half_width={half_width!r} at step={step!r} "
                             f"needs {count:.4g} grid points, more than the "
                             f"{_MAX_GRID_POINTS} a float array can hold")
    n = int(round(count)) + 1
    if n % 2 == 0:
        n += 1
    return max(n, 201)


DEFAULT_STEP = 0.005


def resolve_solver(p: Polynomial, num_levels: int, lam: float = 1.0, *,
                   half_width: float | None = None,
                   step: float | None = None) -> SolverConfig:
    """The default finite-difference grid for the lowest num_levels of p.

    The step is `step` (positive, finite) or DEFAULT_STEP.  Without a
    half_width, L is choose_domain(p, E_max), E_max being the highest
    harmonic estimate of index num_levels - 1 over the harmonic wells of
    p, which reach as far as the stationary points of a confining p (its
    outermost one is a minimum); a potential without a well raises
    DomainEstimateError.  Those wells are the ones harmonic_families(p)
    names, with the mirror images of its mirrored families, which change
    neither E_max nor the reach.
    """
    return _resolve_solver(p, None, num_levels, lam,
                           half_width=half_width, step=step)


def _resolve_solver(p: Polynomial, points: list[CriticalPoint] | None,
                    num_levels: int, lam: float = 1.0, *,
                    half_width: float | None = None,
                    step: float | None = None) -> SolverConfig:
    """resolve_solver of p, reading its wells from points, the
    critical_points(p, stationary_window(p)) it finds itself when None."""
    step = DEFAULT_STEP if step is None else step
    if not 0.0 < step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {step!r}")
    if half_width is None:
        if points is None:
            points = critical_points(p, stationary_window(p))
        wells = harmonic_wells_from(p, points)
        if not wells:
            raise DomainEstimateError("cannot estimate a domain for this "
                                      "potential (no harmonic well); give a "
                                      "half-width")
        e_max = max(w.level(num_levels - 1, lam) for w in wells)
        half_width = _domain(p, e_max, max(abs(w.x) for w in wells))
    return SolverConfig(half_width=half_width,
                        grid_points=grid_points_for(half_width, step),
                        num_levels=num_levels, lam=lam)


# LAPACK routines, bound by _load_lapack on the first numerical solve.
# Module globals read at call time, so tests can patch them; _lapack, the
# module they came from, is the guard, and no test patches it.
_lapack = dpttrf = dpttrs = dgttrf = dgttrs = dstebz = dstein = None
_FLAPACK = "scipy.linalg._flapack"


def _load_lapack() -> None:
    """Bind dpttrf, dpttrs, dgttrf, dgttrs, dstebz and dstein from SciPy's
    f2py LAPACK extension, scipy.linalg._flapack; a no-op once they are
    bound.

    The extension is loaded from its file, under its own name, so that
    scipy/linalg/__init__.py never runs: that import costs about 0.3 s, the
    extension alone a few ms.  A later import of scipy.linalg finds the
    module in sys.modules and binds the same routine objects.  When scipy's
    package directory does not hold the file (an editable install keeps
    its built extensions elsewhere), the routines come from
    scipy.linalg.lapack instead: the same objects, at the import's cost.
    Raises ImportError when SciPy is not installed.
    """
    global _lapack, dpttrf, dpttrs, dgttrf, dgttrs, dstebz, dstein
    if _lapack is not None:
        return
    module = sys.modules.get(_FLAPACK) or _load_flapack()
    if module is None:
        from scipy.linalg import lapack as module
    dpttrf, dpttrs = module.dpttrf, module.dpttrs
    dgttrf, dgttrs = module.dgttrf, module.dgttrs
    dstebz, dstein = module.dstebz, module.dstein
    _lapack = module


def _load_flapack() -> ModuleType | None:
    """scipy.linalg._flapack loaded from scipy's package directory without
    importing scipy, and entered in sys.modules; None when no file is
    there.  importlib.util.find_spec locates a top-level package without
    importing it."""
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_FLAPACK, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[_FLAPACK] = module
                spec.loader.exec_module(module)
                return module
    return None


_GROUND_ROUNDS = 60    # shift rounds of _ground before it gives up
_POLISH = 2            # inverse iterations of _ground after its last round
_GUESS_MARGIN = 0.01   # share of the zero-point energy the guess stays below
_LEAST_GAP = 1e-4      # least gap that _refined and _ground certify
_RQI_ROUNDS = 4        # Rayleigh-quotient rounds per level of _refined


def _tolerance(diag: np.ndarray, off: np.ndarray) -> float:
    """stebz's own absolute tolerance on the tridiagonal T = (diag, off):
    ulp * max |Gershgorin end|."""
    reach = np.abs(off)
    total = np.empty(diag.size)    # |off[i - 1]| + |off[i]|
    np.add(reach[:-1], reach[1:], out=total[1:-1])
    total[0], total[-1] = reach[0], reach[-1]
    return np.finfo(float).eps * max(abs(float((diag - total).min())),
                                     abs(float((diag + total).max())))


def _rayleigh(diag: np.ndarray, off: np.ndarray, u: np.ndarray,
              work: np.ndarray) -> tuple[float, float]:
    """u^T T u and the residual norm |T u - rho u| of a unit vector u, T =
    (diag, off); work is a (2, n) scratch array."""
    tu, term = work
    np.multiply(diag, u, out=tu)
    tu[1:] += np.multiply(off, u[:-1], out=term[1:])
    tu[:-1] += np.multiply(off, u[1:], out=term[:-1])
    rho = float(u @ tu)
    tu -= np.multiply(rho, u, out=term)
    return rho, math.sqrt(tu @ tu)


def _grid_wells(diag: np.ndarray, off: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(index, vertex, zpe) of the grid wells of the block T = (diag, off).

    With t = -off[-1] = lam^2/h^2 and V = diag - 2t, each grid local
    minimum i of V gets the parabola through V[i-1], V[i], V[i+1], whose
    vertex value and second difference d2 give the zero-point energy
    zpe = sqrt(t * d2 / 2) = lam * sqrt(V''/2), V'' = d2 / h^2.  V[-1] is
    V[1], the mirror image at x = -h of the even block's first point x = 0;
    on the odd block, which starts at x = h, the rule reads a looser well.
    """
    t = -float(off[-1])
    v = diag - 2.0 * t
    neighbour = np.concatenate((v[1:2], v[:-2]))
    mid, right = v[:-1], v[1:]
    wells = ((mid <= neighbour) & (mid <= right)).nonzero()[0]
    neighbour, mid, right = neighbour[wells], mid[wells], right[wells]
    d2 = neighbour - 2.0 * mid + right
    slope = right - neighbour
    vertex = mid - slope * slope / (8.0 * np.where(d2 > 0.0, d2, 1.0))
    return wells, vertex, np.sqrt(t * 0.5 * d2)


def _harmonic_guess(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """(first shift, trial gap) of _ground on the block T = (diag, off), from
    one reading of its grid wells (_grid_wells).  The shift is the least
    vertex + (1 - _GUESS_MARGIN) zpe over the wells, or min V without one:
    close below the lowest level, not a bound on it.  The trial gap is half
    the distance between the two lowest rungs over the wells, vertex + zpe
    and vertex + 3 zpe: an estimate of half the gap between the block's two
    lowest levels, not a bound; 0 without a well."""
    _, vertex, zpe = _grid_wells(diag, off)
    if vertex.size == 0:
        return float(np.min(diag) + 2.0 * off[-1]), 0.0
    rungs = vertex + zpe
    j = int(np.argmin(rungs))
    low = float(rungs[j])
    rungs[j] += 2.0 * zpe[j]
    return (float(vertex[j] + (1.0 - _GUESS_MARGIN) * zpe[j]),
            0.5 * (float(rungs.min()) - low))


def _rungs(wells: tuple[np.ndarray, np.ndarray, np.ndarray] | None, k: int,
           parity: int | None) -> np.ndarray | None:
    """Start of _located for the k lowest levels: the rungs vertex +
    (2j + 1) zpe of the grid wells (index, vertex, zpe) of _grid_wells,
    ascending, the k lowest and any within the least zpe of the k-th (a
    near pair across that cut stays whole).  A well at x = 0, index 0 of the
    even block that both parity blocks read, has only its even (parity 0)
    or odd (parity 1) rungs.  None for k < 2."""
    if wells is None or k < 2 or wells[1].size == 0:
        return None
    index, vertex, zpe = wells
    ladder = 2.0 * np.arange(k) + 1.0
    rungs = vertex[:, None] + np.outer(zpe, ladder)
    if parity is not None and index[0] == 0:
        rungs[0] = vertex[0] + zpe[0] * (2.0 * ladder - 1.0 + 2.0 * parity)
    rungs = np.sort(rungs, axis=None)
    return rungs[rungs <= rungs[k - 1] + zpe.min()]


def _ground(diag: np.ndarray, off: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Lowest eigenpair of the tridiagonal T = (diag, off), off < 0, and the
    bound on its vector's angle (nan without one), by shift-and-invert with
    shifts certified by Sylvester inertia (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, ch. 4); None when it is not certified
    within _GROUND_ROUNDS rounds.

    lo is a certified lower bound on the lowest eigenvalue, hi an upper one.
    T - s*I has LDL^T pivots all positive exactly when no eigenvalue lies at
    or below s (the pivots of stebz's Sturm count), so a shift that factors
    raises lo, and one that does not lowers hi, as does a Rayleigh
    quotient.  Each solve y = (T - lo I)^-1 u of the unit vector u gives
    the quotient and residual of y/|y| for free: with nu = |y| and
    c = (y/nu).u, T y/nu = lo y/nu + u/nu, so rho = lo + c/nu and
    r = |u - c y/nu|/nu, padded by stebz's own absolute tolerance tol,
    ulp * max |Gershgorin end|, for roundoff.  The next shift is
    rho - min(r, r^2/G), G the trial gap below; one that would not halve
    the distance from lo to rho costs a factorization for little, so a
    fresh factor takes a second solve instead.

    The rounds stop by one of two exits.  Once r^2 <= tol G, one Sturm
    count (_count) at mu = rho + G that finds exactly one level below mu
    certifies that the next level lies at or above mu.  G starts at the
    trial gap of _harmonic_guess, at least _LEAST_GAP, and is halved while
    the count finds more, down to _LEAST_GAP, as _refined's least gap.  The
    Kato-Temple bound (Parlett, sec. 10.5) rho >= lambda_0 >= rho -
    r^2/(mu - rho) then puts the quotient within tol, and u lies within
    the angle theta = r/(mu - rho) of the eigenvector (Davis & Kahan, SIAM
    J. Numer. Anal. 7, 1 (1970)).  A block whose count never finds one
    level, such as a doublet split below _LEAST_GAP, stops when hi - lo is
    within tol instead, with no angle bound.  Either way _POLISH more
    inverse iterations at the last factor, as stein's two extra, give the
    returned vector, and its own quotient and residual (_rayleigh, the
    residual padded by tol) give the energy and angle: after the count the
    quotient must lie below mu within the Kato-Temple bound, otherwise
    within twice tol of lo, or the result is None, as for a vector that
    converged to an excited level.

    lo starts at min V, which lies below every level: the Dirichlet
    difference Laplacian is positive definite, and each level of a parity
    block is one of the full operator.  The first shift is _harmonic_guess,
    usually just below the lowest eigenvalue, so a solve takes about two
    factorizations and one count.  A guess that does not factor is a
    certified hi, and the rounds bisect between min V and it.
    """
    tol = _tolerance(diag, off)
    lo, hi = float(diag.min() + 2.0 * off[-1]), math.inf    # min V
    shift, gap = _harmonic_guess(diag, off)
    gap = max(gap, _LEAST_GAP)
    factor, fresh, mu = None, False, math.nan    # fresh: factor not yet reused
    # the ground vector is positive: off < 0
    u = np.full(diag.size, 1.0 / math.sqrt(diag.size))
    work = np.empty((2, diag.size))
    for _ in range(_GROUND_ROUNDS):
        if factor is None or shift != lo:
            d, e, info = dpttrf(diag - shift, off, overwrite_d=1)
            if info == 0:
                lo, factor, fresh = shift, (d, e), True
            else:
                hi = shift
        solved = factor is not None and shift == lo
        if solved:
            y = dpttrs(*factor, u)[0]
            nu = math.sqrt(y @ y)
            y /= nu
            c = float(y @ u)
            np.subtract(u, np.multiply(c, y, out=work[0]), out=work[0])
            rho = shift + c / nu
            residual = math.sqrt(work[0] @ work[0]) / nu + tol
            u = y
            hi = min(hi, rho)
            while gap >= _LEAST_GAP and residual * residual <= tol * gap:
                if _count(diag, off, rho + gap) == 1:
                    mu = rho + gap
                    break
                gap *= 0.5
            shift = rho - min(residual, residual * residual / gap)
        if factor is not None and (mu < math.inf or hi - lo <= tol):
            for _ in range(_POLISH):
                u = dpttrs(*factor, u, overwrite_b=1)[0]
                u /= math.sqrt(u @ u)
            rho, residual = _rayleigh(diag, off, u, work)
            residual += tol
            if not (rho < mu and residual * residual <= tol * (mu - rho)
                    if mu < math.inf else rho - lo <= 2.0 * tol):
                return None
            return np.array([rho]), u[:, None], np.array([residual / (mu - rho)])
        if solved and fresh and shift < 0.5 * (lo + rho):
            shift, fresh = lo, False
        elif not lo < shift < hi:
            shift = 0.5 * (lo + hi)
    return None


def _located(diag: np.ndarray, off: np.ndarray, k: int,
             rungs: np.ndarray | None, first: int = 0
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Eigenpairs first .. first + k - 1 of the tridiagonal T = (diag, off):
    the k lowest Ritz vectors of stein's vectors at the rungs (_rungs of
    first + k levels) from rung first, refined and certified by _refined,
    whose counts check that those are the levels meant; None without rungs
    (no grid well, or more rungs than points) or when it refuses, as it
    does when two neighbours lie within 2 _LEAST_GAP.  The rotation
    separates near pairs that the rungs place only to a fraction of their
    spacing.  The certified vectors are re-orthonormalised (Cholesky QR),
    as a column that _refined iterates is orthogonal to the others only to
    about tol / gap.  U = Q L^T turns column j by the angle whose sine is
    |L[j, :j]| / |u_j|, which is added to its angle bound from _refined."""
    n = diag.size
    if rungs is None or rungs.size - first > n:
        return None
    block = np.ones(n, np.int32), np.full(n, n, np.int32)   # T unsplit
    vectors, info = dstein(diag, off, rungs[first:], *block)
    if info != 0:
        return None
    cross = vectors[:-1].T @ (off[:, None] * vectors[1:])
    rotation = np.linalg.eigh(   # of vectors^T T vectors
        (diag[:, None] * vectors).T @ vectors + cross + cross.T)[1]
    found = _refined(diag, off, vectors @ rotation[:, :k], first)
    if found is None:
        return None
    rho, u, angle = found
    gram = u.T @ u
    lower = np.linalg.cholesky(gram)
    turn = [math.hypot(*row[:j]) / math.sqrt(gram[j, j])
            for j, row in enumerate(lower.tolist())]
    return rho, u @ np.linalg.inv(lower).T, angle + turn


def _count(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """The number of eigenvalues of T = (diag, off) below x, or -1 when a
    pivot is exactly 0.

    T - x I = L D L^T, L unit lower bidiagonal, has the pivots d_1 =
    diag_1 - x and d_{i+1} = diag_{i+1} - x - off_i (off_i / d_i) in D,
    which is congruent to T - x I, so by Sylvester's law of inertia (Parlett,
    The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4) as many pivots are
    negative as T has eigenvalues below x: stebz's Sturm count, on the same
    recurrence.  dpttrf runs the recurrence and stops at the first pivot
    <= 0; that pivot counts one negative, and dpttrf restarts on the rest of
    the block from the next pivot, which is formed as dpttrf forms it.  A
    zero pivot has no next one, and leaves open whether x is a level."""
    d, count, start, last = diag - x, 0, 0, diag.size - 1
    while start < last:    # dpttrf takes no block of one point
        pivots, _, info = dpttrf(d[start:], off[start:], overwrite_d=1)
        if info == 0:
            return count
        i, pivot = start + info - 1, pivots[info - 1]
        if pivot == 0.0:
            return -1
        count += 1
        if i == last:
            return count
        d[i + 1] -= off[i] * (off[i] / pivot)
        start = i + 1
    return -1 if d[last] == 0.0 else count + int(d[last] < 0.0)


def _refined(diag: np.ndarray, off: np.ndarray, start: np.ndarray,
             first: int = 0
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Eigenpairs first .. first + k - 1 of the tridiagonal T = (diag, off),
    and the bounds on their vectors' angles, from start, an (n, k) matrix
    whose column j is near the eigenvector of
    level first + j (the Ritz vectors of stein's vectors at the rungs), by
    Rayleigh-quotient iteration certified by Sturm counts, at the top and,
    when first > 0, at the bottom; None when a factorization fails, a level
    does not converge in _RQI_ROUNDS rounds or the certificate fails.

    Column j starts at its Rayleigh quotient rho_j on T and repeats
    u <- (T - rho_j I)^-1 u on dgttrf/dgttrs until its residual
    r_j = |T u - rho_j u| is within stebz's tolerance tol (_tolerance), a
    vector as accurate as stein's.  Let p_j be the midpoint of rho_j and
    rho_{j+1} (columns counted from 1), p_0 = -inf, or rho_1 - 2a when
    first > 0, and p_k = rho_k + 2a, a = _LEAST_GAP, and
    g_j = min(rho_j - p_{j-1}, p_j - rho_j), which must exceed a: the
    quotients ascend with j, neighbours more than 2a apart (a start with
    its columns out of level order, or two columns on one level, is
    refused).  When r_j < g_j / 2, some level lies within r_j of rho_j,
    inside (p_{j-1}, p_j], so the Sturm counts (_count) at p_k and p_0
    differ by at least k.  When they are exactly first + k and first
    (Sylvester inertia, Parlett, The Symmetric Eigenvalue Problem, SIAM
    1998, ch. 4), each interval holds one level, level first + j - 1, as
    counts at every p_j would show, and the other levels lie at least g_j
    from rho_j.  Kato-Temple (sec. 10.5) then bounds
    |lambda_j - rho_j| by r_j^2 / (g_j - r_j), which must be within tol,
    and u_j lies within the angle theta_j = r_j / (g_j - r_j) <= tol /
    (a - tol) of its eigenvector (Davis & Kahan, SIAM J. Numer. Anal. 7, 1
    (1970)), the bound returned, with r_j padded by tol for roundoff.
    Without the 2a rule g_j could shrink to the splitting of a near
    doublet, and that angle grow with tol / g_j.
    """
    tol = _tolerance(diag, off)
    k = start.shape[1]
    rho, residual, vectors = np.empty(k), np.empty(k), np.empty(start.shape)
    work = np.empty((2, diag.size))
    for j in range(k):
        u = start[:, j] / np.linalg.norm(start[:, j])
        rho[j], residual[j] = _rayleigh(diag, off, u, work)
        for _ in range(_RQI_ROUNDS):
            if residual[j] <= tol:
                break
            dl, d, du, du2, ipiv, info = dgttrf(off, diag - rho[j], off)
            if info != 0:
                return None
            u = dgttrs(dl, d, du, du2, ipiv, u)[0]
            u /= np.linalg.norm(u)
            rho[j], residual[j] = _rayleigh(diag, off, u, work)
        if residual[j] > tol:
            return None
        vectors[:, j] = u
    low = rho[0] - 2.0 * _LEAST_GAP if first else -math.inf
    points = np.append(0.5 * (rho[:-1] + rho[1:]), rho[-1] + 2.0 * _LEAST_GAP)
    gap = np.minimum(rho - np.append(low, points[:-1]), points - rho)
    if not np.all((gap > _LEAST_GAP) & (residual < 0.5 * gap)
                  & (residual * residual <= tol * (gap - residual))):
        return None
    if _count(diag, off, points[-1]) != first + k:
        return None
    if first and _count(diag, off, low) != first:
        return None
    residual += tol
    return rho, vectors, residual / (gap - residual)


def _lowest(diag: np.ndarray, off: np.ndarray, k: int, cfg: SolverConfig,
            rungs: np.ndarray | None = None, first: int = 0
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs first .. first + k - 1 of a symmetric tridiagonal matrix
    with negative off-diagonal, and the bounds on their vectors' angles:
    _ground for the lowest level alone (k == 1, first == 0), whose bound is
    nan when no count certifies its gap, and _located from the rungs
    otherwise; without rungs, or when those give up (a cluster closer than
    2 _LEAST_GAP, say), LAPACK bisection on the Sturm count to stebz's full
    precision plus inverse iteration (stebz/stein), with no bound (nan),
    which also raises ConvergenceError on a LAPACK failure."""
    _load_lapack()
    found = (_ground(diag, off) if k == 1 and not first
             else _located(diag, off, k, rungs, first))
    if found is not None:
        return found
    # the calls eigh_tridiagonal(select="i", lapack_driver="stebz") makes:
    # levels first+1..first+k by index (range 2; vl, vu unused) at stebz's
    # default tolerance (abstol 0), ordered by block ("B") as stein needs
    m, w, iblock, isplit, info = dstebz(diag, off, 2, 0.0, 1.0, first + 1,
                                        first + k, 0.0, "B")
    _check_info("dstebz", info, cfg)
    w = w[:m]
    vectors, info = dstein(diag, off, w, iblock, isplit)
    _check_info("dstein", info, cfg)
    order = np.argsort(w)
    return w[order], vectors[:, order], np.full(m, math.nan)


def _check_info(routine: str, info: int, cfg: SolverConfig) -> None:
    if info != 0:
        raise ConvergenceError(
            f"tridiagonal eigensolver failed: {routine} info={info} "
            f"(grid_points={cfg.grid_points}, h={cfg.step:.4g}, "
            f"lam={cfg.lam:g})")


def solve_numerical(p: Polynomial, cfg: SolverConfig, *,
                    first: int = 0) -> list[Eigenpair]:
    """Eigenpairs first .. first + cfg.num_levels - 1 of the discretized
    operator, by default the lowest cfg.num_levels.

    Second-order central differences, diagonal V(x_i) + 2*lam^2/h^2,
    off-diagonal -lam^2/h^2, Dirichlet boundaries.  A block solved for one
    level takes certified shift-and-invert (dpttrf/dpttrs), any other block
    inverse iteration (stein) at the harmonic ladders of the grid wells
    (_rungs), refined by certified Rayleigh-quotient iteration (_refined),
    both to stebz's tolerance, with full-precision bisection as their
    fallback (see _lowest); the grid wells are read once, on the first
    block.  Wavefunctions are returned L2-normalized (sum psi^2 * h = 1)
    with deterministic sign (the leftmost largest |psi| is positive).  Each
    level's error_estimate is h^2/(12 lam^2) * sum (V - E)^2 psi^2 h, and
    its angle_bound the one its block's certificate gives, or None.

    The blocks are one full-grid block, or for a reflection-symmetric
    potential two half-grid blocks on x >= 0: an even block (psi(0) free;
    its unknown at x = 0 is psi(0)/sqrt(2), which keeps the block
    symmetric) and an odd block (psi(0) = 0).  Level j of the tridiagonal
    operator has j sign changes, so its parity is (-1)^j and its index in
    its block j // 2: the k levels from first are the even block's from
    ceil(first/2) and the odd block's from floor(first/2), interleaved by
    parity.  Each vector is then mirrored onto the full grid and so has
    exact parity, also inside doublets split below machine precision,
    where the even member is kept at or below the odd one.
    """
    n, k = cfg.grid_points, cfg.num_levels
    if first < 0 or first + k > n - 2:
        raise ParameterError(f"requested levels {first} to {first + k - 1} "
                             f"on a grid with {n - 2} interior points")
    x = cfg.grid()
    h = cfg.step
    off = -cfg.lam * cfg.lam / (h * h)
    if p.is_even:    # (diag, off, parity) of each block
        c = (n - 1) // 2    # x[c] = 0
        diag = p(x[c:-1]) - 2.0 * off
        blocks = ((diag, _off_diagonal(c - 1, off, math.sqrt(2.0)), 0),
                  (diag[1:], _off_diagonal(c - 2, off, 1.0), 1))
    else:
        v = p(x[1:-1])
        blocks = ((v - 2.0 * off, _off_diagonal(n - 3, off, 1.0), None),)
    size = len(blocks)
    wells = _grid_wells(*blocks[0][:2]) if k > size or first else None
    energies, angles = np.empty(k), np.empty(k)
    vectors = np.zeros((blocks[0][0].size, k))    # psi on the first block
    for b, (d, e, parity) in enumerate(blocks):
        col = (first + b) % size    # the block's first column
        j, count = (first + col) // size, (k - col + size - 1) // size
        if count:
            (energies[col::size], vectors[b:, col::size],
             angles[col::size]) = _lowest(d, e, count, cfg,
                                          _rungs(wells, j + count, parity), j)
    if p.is_even:    # from x[c:-1] onto the full grid
        vectors[0, first % 2::2] *= math.sqrt(2.0)
        # the blocks are solved separately, each to about ulp * |T|: a
        # doublet split below that may come out with its odd member lower
        energies = np.maximum.accumulate(energies)
        vectors = np.concatenate((
            vectors[:0:-1] * (-1.0) ** np.arange(first, first + k), vectors))
        v = np.concatenate((diag[:0:-1], diag)) + 2.0 * off
    # the grid operator is the continuum one minus (lam^2 h^2 / 12) d4/dx4
    # + O(h^4); to first order that shifts E by (lam^2 h^2 / 12) |psi''|^2,
    # with lam^2 psi'' = (V - E) psi
    curvature = v[:, None] - energies
    curvature *= vectors
    corrections = (h * h / (12.0 * cfg.lam * cfg.lam)) * (
        np.einsum("ij,ij->j", curvature, curvature)
        / np.einsum("ij,ij->j", vectors, vectors))
    pairs = []
    for j in range(k):
        psi = np.zeros(n)
        psi[1:-1] = vectors[:, j]
        psi /= math.sqrt(float(psi @ psi) * h)
        peak = int(np.argmax(np.abs(psi)))
        if psi[peak] < 0.0:
            psi = -psi
        angle = float(angles[j])
        pairs.append(Eigenpair(float(energies[j]), float(corrections[j]),
                               psi, x, h, None if math.isnan(angle) else angle))
    return pairs


def _region_edges(points: list[CriticalPoint]) -> list[float]:
    """-inf, the maxima among the critical points in order, +inf."""
    maxima = [cp.x for cp in points if cp.kind == "max"]
    return [-math.inf] + sorted(maxima) + [math.inf]


@functools.lru_cache(maxsize=_CACHED)
def _edge_indices(half_width: float, grid_points: int,
                  edges: tuple[float, ...]
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each edge, the first index of _grid(half_width, grid_points) at
    or past it and the first index beyond it, a grid point within the
    isolation tolerance of an edge being on it (see _region_weights)."""
    x = _grid(half_width, grid_points)
    near = _isolation_tol(half_width)
    first = np.searchsorted(x, np.subtract(edges, near), side="left")
    past = np.searchsorted(x, np.add(edges, near), side="right")
    return tuple(first.tolist()), tuple(past.tolist())


def _region_weights(pairs: list[Eigenpair], edges: list[float]
                    ) -> list[list[float]]:
    """Each pair's weights between consecutive ascending edges, one row per
    pair, all pairs on one grid: slices of one (pairs, points) density.

    A grid point within critical_points' isolation tolerance on the grid's
    half-width of an edge lies on it and counts half to each side, so a
    maximum polished to one ulp either side of a grid point splits it the
    same way.  A weight w of a pair with an angle bound theta is exactly 0
    when w <= 2 sqrt(w) theta + theta^2, its bound: below its resolution it
    would record how the solver got there, not the state.
    """
    rho = (pairs[0].psi[None] if len(pairs) == 1 else
           np.array([pair.psi for pair in pairs])) ** 2 * pairs[0].h
    x = pairs[0].x    # SolverConfig.grid(), which _edge_indices reads
    first, past = _edge_indices(float(x[-1]), x.size, tuple(edges))
    row_sum = np.add.reduce   # pairwise along each row, as on one pair
    half = [0.5 * row_sum(rho[:, a:b], 1) if a < b else 0.0
            for a, b in zip(first, past)]
    rows = np.transpose([row_sum(rho[:, a:b], 1) + h0 + h1 for a, b, h0, h1
                         in zip(past, first[1:], half, half[1:])]).tolist()
    for row, pair in zip(rows, pairs):
        theta = pair.angle_bound
        if theta is not None:
            row[:] = [0.0 if w <= (2.0 * math.sqrt(w) + theta) * theta else w
                      for w in row]
    return rows


def well_weights(pair: Eigenpair, p: Polynomial) -> list[RegionWeight]:
    """Probability weights of the grid regions delimited by the maxima of V.

    A single-well potential (no interior maxima) yields one region of
    weight 1.  Weights sum to the normalization (1 within 1e-9); one below
    its resolution is 0 (see _region_weights).  pair.x
    must be a SolverConfig grid, linspace(-L, L, n), as solve_numerical
    gives: the region edges are found on that grid, not on pair.x.
    """
    edges = _region_edges(critical_points(p, float(pair.x[-1])))
    return [RegionWeight(lo, hi, w) for lo, hi, w in
            zip(edges, edges[1:], _region_weights([pair], edges)[0])]


def _well_families(p: Polynomial, points: list[CriticalPoint]
                   ) -> tuple[list[float], list[tuple[str, tuple[int, ...]]]]:
    """The region edges of p (_region_edges) and its well families, each a
    name and the indices of its regions, in the order harmonic_families
    gives."""
    edges = _region_edges(points)
    regions = list(zip(edges, edges[1:]))
    # when V'(0) vanishes to roundoff, the origin is the critical point
    # nearest 0, whatever the isolation tolerance
    flat = abs(p.derivative()(0.0)) <= 1e-12 * (1.0 + p.magnitude_at(1.0))
    origin = min(points, key=lambda cp: abs(cp.x)) if flat and points else None

    def is_central(lo: float, hi: float) -> bool:
        inside = [cp for cp in points if lo < cp.x < hi and cp.kind != "max"]
        return bool(inside) and min(inside, key=lambda cp: cp.value) is origin

    def outwards(lo: float, hi: float) -> tuple[int, float]:
        # maxima between the region and the origin, then x
        return sum(hi <= x < 0.0 or 0.0 < x <= lo for x in edges[1:-1]), lo

    last = len(regions) - 1
    if p.is_even:    # mirror pairs (i, last - i), keyed by the x > 0 one
        groups = [(i, last - i) if last - i < i else (i,)
                  for i in range(len(regions) // 2, len(regions))]
    else:
        groups = [(i,) for i in range(len(regions))]
    groups.sort(key=lambda g: outwards(*regions[g[0]]))
    central = [g for g in groups if len(g) == 1 and is_central(*regions[g[0]])]
    off = [g for g in groups if g not in central]
    names = ["offcentral"] if len(off) == 1 else \
        [f"offcentral{k}" for k in range(len(off))]
    return edges, [("central", g) for g in central] + list(zip(names, off))


def harmonic_families(p: Polynomial) -> list[tuple[str, HarmonicWell]]:
    """The harmonic well of every well family of p, as (family, well) pairs.

    A family is one region between consecutive maxima of V, or, when p is
    reflection-symmetric (the test that picks the parity-block solve), a
    region and its mirror image; a mirror pair is represented by its well
    at x > 0, and its levels are parity doublets.  The region whose
    lowest non-maximum critical point is the origin is 'central'.  The
    other families are ordered from the centre outwards (by the number of
    maxima between them and x = 0), then by x, and are 'offcentral', or
    'offcentral0', 'offcentral1', ... when there are several.  The m-th
    harmonic level of a family is well.level(m, lam).  Raises
    DegenerateWellError when a stationary point has vanishing curvature.
    """
    points = critical_points(p, stationary_window(p))
    edges, families = _well_families(p, points)
    wells = harmonic_wells_from(p, points)
    return [(name, w) for name, group in families for w in wells
            if edges[group[0]] < w.x < edges[group[0] + 1]]


def classify_levels(pairs: list[Eigenpair], p: Polynomial) -> list[LabeledLevel]:
    """Label each eigenpair by the well family that holds most of its weight.

    The families and their names are those of harmonic_families, found on
    the pairs' grid; _labels does the labelling.  Every pair.x must be one
    SolverConfig grid, as for well_weights.
    """
    if not pairs:
        return []
    return _labels(pairs, *_well_families(
        p, critical_points(p, float(pairs[0].x[-1]))))


def _labels(pairs: list[Eigenpair], edges: list[float],
            families: list[tuple[str, tuple[int, ...]]]) -> list[LabeledLevel]:
    """Label each eigenpair by the family, of a well map (edges, families)
    from _well_families, that holds most of its region weight.

    Within a family the levels are counted by energy; the members of a
    parity doublet of a mirrored family share one index.  A map serves
    every potential whose edges lie within the isolation tolerance of its
    own (see _region_weights) and whose families are the same, with
    identical labels and weights.
    """
    counts = [0] * len(families)
    central = families[0][0] == "central"
    labeled: list[LabeledLevel | None] = [None] * len(pairs)
    rows = _region_weights(pairs, edges)
    for i in sorted(range(len(pairs)), key=lambda i: pairs[i].energy):
        weights = [sum(rows[i][j] for j in group) for _, group in families]
        k = max(range(len(families)), key=weights.__getitem__)
        name, group = families[k]
        index = counts[k] // len(group)
        counts[k] += 1
        labeled[i] = LabeledLevel(pairs[i].energy, name, index,
                                  f"{name}-{index}",
                                  weights[0] if central else 0.0,
                                  sum(weights[1:] if central else weights))
    return labeled
