"""Low-lying bound states of -lam^2 psi'' + V psi = E psi.

Two routes: closed-form harmonic estimates per well (level spacing
2*lam*sqrt(V''/2)), and a second-order finite-difference discretization on
a symmetric grid with Dirichlet boundaries, solved by LAPACK bisection on
the Sturm count plus inverse iteration (scipy's 'stebz' driver).  A
reflection-symmetric potential is solved as separate even and odd blocks on
the half grid x >= 0, so its levels have exact parity.  Each numerical level
carries error_estimate, the first-order correction of its O(h^2)
discretization error (Paine, de Hoog & Anderssen, Computing 26, 123
(1981)), computed from the eigenvector at no extra solve: energy +
error_estimate is accurate to O(h^4).  Wavefunctions and region weights
stay O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal

from .polynomial import Polynomial
from .wells import (CriticalPoint, HarmonicWell, critical_points,
                    harmonic_wells, harmonic_wells_from, stationary_window)

__all__ = [
    "SolverConfig", "Eigenpair", "HarmonicSpectrum", "RegionWeight",
    "LabeledLevel", "ConvergenceError", "DomainEstimateError",
    "central_levels", "off_central_levels", "harmonic_spectrum_n2",
    "choose_domain", "grid_points_for", "resolve_solver", "solve_numerical",
    "well_weights", "classify_levels",
]


class ConvergenceError(RuntimeError):
    """The LAPACK tridiagonal eigensolver failed to converge."""


class DomainEstimateError(ValueError):
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
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise ValueError("half_width must be positive and finite")
        if self.grid_points < 201:
            raise ValueError("grid_points must be at least 201")
        if self.grid_points % 2 == 0:
            raise ValueError("grid_points must be odd (symmetric grid containing 0)")
        if self.num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        if not (self.lam > 0.0):
            raise ValueError("lam must be positive")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.grid_points - 1)

    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.grid_points)


@dataclass(frozen=True, eq=False)
class Eigenpair:
    """One numerical level: energy and L2-normalized wavefunction samples.

    energy is the eigenvalue of the discretized operator, accurate to
    O(h^2).  error_estimate is the first-order estimate of that
    discretization error, signed so that energy + error_estimate is the
    continuum level to O(h^4).
    """

    energy: float
    error_estimate: float
    psi: np.ndarray
    x: np.ndarray
    h: float
    lam: float = 1.0


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
    energy: float
    family: str          # 'central' | 'offcentral' | 'mixed'
    index: int | None    # n or m counter within the family
    label: str           # e.g. 'central-0', 'offcentral-1', 'mixed'
    w_central: float


def central_levels(p: Polynomial, n_max: int, lam: float = 1.0) -> list[float]:
    """Harmonic levels V(0) + (2n+1)*lam*sqrt(V''(0)/2) for n = 0..n_max."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    slope = p.coeffs[1] if len(p.coeffs) > 1 else 0.0
    if abs(slope) > 1e-12 * (1.0 + p.magnitude_at(1.0)):
        raise ValueError("origin is not a stationary point of the potential")
    curv = 2.0 * p.coeffs[2] if len(p.coeffs) > 2 else 0.0
    if curv <= 1e-12 * (1.0 + p.magnitude_at(1.0)):
        raise ValueError("origin is not a well: V''(0) <= 0")
    omega = math.sqrt(0.5 * curv)
    v0 = p(0.0)
    return [v0 + (2 * n + 1) * lam * omega for n in range(n_max + 1)]


def off_central_levels(p: Polynomial, well: HarmonicWell, m_max: int,
                       lam: float = 1.0) -> list[float]:
    """Doublet estimates v + (2m+1)*lam*sqrt(g) for m = 0..m_max.

    Each value stands for a near-degenerate parity doublet; the leading
    order cannot resolve the splitting.
    """
    if m_max < 0:
        raise ValueError("m_max must be non-negative")
    dv = p.derivative()
    if abs(dv(well.x)) > 1e-6 * (1.0 + dv.magnitude_at(well.x)):
        raise ValueError(f"x={well.x:.6g} is not a stationary point of p")
    return [well.level(m, lam) for m in range(m_max + 1)]


def harmonic_spectrum_n2(alpha: float, beta: float, n_max: int, m_max: int,
                         lam: float = 1.0) -> HarmonicSpectrum:
    """Closed-form spectrum of the triple well with widths (alpha, beta)."""
    a2, b2 = alpha * alpha, beta * beta
    spring_c = math.sqrt(3.0 * a2 * (a2 + b2))
    spring_o = math.sqrt(6.0 * a2 * b2 + 6.0 * b2 * b2)
    v_outer = a2 ** 3 + 1.5 * a2 * a2 * b2 - 0.5 * b2 ** 3
    central = tuple((2 * n + 1) * lam * spring_c for n in range(n_max + 1))
    off = tuple(v_outer + (2 * m + 1) * lam * spring_o for m in range(m_max + 1))
    return HarmonicSpectrum(central, off, spring_c, spring_o)


def choose_domain(p: Polynomial, e_max: float) -> float:
    """Smallest safe half-width L on a 0.5-step lattice.

    Climbs the lattice until V(+-L) >= 2*e_max and L exceeds the outermost
    stationary point by 2, then takes one more lattice step of margin.
    """
    return _domain(p, e_max, None)


def _domain(p: Polynomial, e_max: float,
            points: list[CriticalPoint] | None) -> float:
    """choose_domain, given critical_points(p, stationary_window(p)) when
    already in hand."""
    if p.degree < 2 or p.degree % 2 != 0 or p.coeffs[-1] <= 0.0:
        raise ValueError("potential must be confining: even degree >= 2, positive leading coefficient")
    if points is None:
        points = critical_points(p, stationary_window(p))
    level = 2.0 * e_max
    min_l = max((abs(cp.x) for cp in points), default=0.0) + 2.0
    half = 0.5
    while not (half >= min_l and p(half) >= level and p(-half) >= level):
        half += 0.5
        if half > 1e6:
            raise ValueError("no reasonable domain found; potential barely grows")
    return half + 0.5


def grid_points_for(half_width: float, step: float) -> int:
    """Odd point count >= 201 putting the grid spacing near the requested step."""
    n = int(round(2.0 * half_width / step)) + 1
    if n % 2 == 0:
        n += 1
    return max(n, 201)


DEFAULT_STEP = 0.005


def _harmonic_families(p: Polynomial, levels: int, lam: float):
    """(central levels or None, [(well, level list) for off-central wells]).

    The off-central wells are listed by x; a well at x < 0 whose mirror
    at -x is also a well is left out, as the pair shares its levels.
    """
    central = None
    try:
        central = central_levels(p, levels - 1, lam)
    except ValueError:
        pass
    found = harmonic_wells(p, stationary_window(p))
    right = [w.x for w in found if w.x > 1e-9]
    wells = [w for w in found
             if w.x > 1e-9 or (w.x < -1e-9 and
                               all(abs(x + w.x) > 1e-9 * x for x in right))]
    off = [(w, off_central_levels(p, w, levels - 1, lam)) for w in wells]
    return central, off


def resolve_solver(p: Polynomial, num_levels: int, lam: float = 1.0, *,
                   half_width: float | None = None,
                   step: float | None = None) -> SolverConfig:
    """The default finite-difference grid for the lowest num_levels of p.

    The step is `step` or DEFAULT_STEP.  Without a half_width, L is
    choose_domain(p, E_max), E_max being the highest harmonic estimate of
    index num_levels - 1 over every well of p; a potential without a well
    raises DomainEstimateError.
    """
    if half_width is None:
        points = critical_points(p, stationary_window(p))
        estimates = [w.level(num_levels - 1, lam)
                     for w in harmonic_wells_from(p, points)]
        if not estimates:
            raise DomainEstimateError("cannot estimate a domain for this "
                                      "potential (no harmonic well); give a "
                                      "half-width")
        half_width = _domain(p, max(estimates), points)
    step = DEFAULT_STEP if step is None else step
    return SolverConfig(half_width=half_width,
                        grid_points=grid_points_for(half_width, step),
                        num_levels=num_levels, lam=lam)


def _is_symmetric(p: Polynomial) -> bool:
    top = max(abs(c) for c in p.coeffs)
    return all(abs(c) <= 1e-12 * top for c in p.coeffs[1::2])


def _lowest(diag: np.ndarray, off: np.ndarray, k: int,
            cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of a symmetric tridiagonal matrix (LAPACK stebz)."""
    try:
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, k - 1),
                                check_finite=False, lapack_driver="stebz")
    except LinAlgError as exc:
        raise ConvergenceError(
            f"tridiagonal eigensolver failed: {exc} (grid_points="
            f"{cfg.grid_points}, h={cfg.step:.4g}, lam={cfg.lam:g})") from exc


def solve_numerical(p: Polynomial, cfg: SolverConfig) -> list[Eigenpair]:
    """Lowest cfg.num_levels eigenpairs of the discretized operator.

    Second-order central differences, diagonal V(x_i) + 2*lam^2/h^2,
    off-diagonal -lam^2/h^2, Dirichlet boundaries.  Eigenvalues come from
    bisection on the Sturm count, eigenvectors from inverse iteration;
    wavefunctions are returned L2-normalized (sum psi^2 * h = 1) with
    deterministic sign (the leftmost largest |psi| is positive).  Each
    level's error_estimate is h^2/(12 lam^2) * sum (V - E)^2 psi^2 h.

    A reflection-symmetric potential is solved as two half-grid blocks on
    x >= 0: an even block (psi(0) free; its unknown at x = 0 is
    psi(0)/sqrt(2), which keeps the block symmetric) and an odd block
    (psi(0) = 0).  Level j of the tridiagonal operator has j sign changes,
    so its parity is (-1)^j: the k lowest levels are the ceil(k/2) lowest
    even and floor(k/2) lowest odd ones, interleaved even, odd, even, ...
    Each vector is mirrored onto the full grid and so has exact parity,
    also inside doublets split below machine precision, where the even
    member is kept at or below the odd one.
    """
    n, k = cfg.grid_points, cfg.num_levels
    if k > n - 2:
        raise ValueError(f"requested {k} levels on a grid with "
                         f"{n - 2} interior points")
    x = cfg.grid()
    h = cfg.step
    off = -cfg.lam * cfg.lam / (h * h)
    if _is_symmetric(p):
        c = (n - 1) // 2    # x[c] = 0
        diag = p(x[c:-1]) - 2.0 * off
        even_off = np.full(c - 1, off)
        even_off[0] *= math.sqrt(2.0)
        energies = np.empty(k)
        half = np.zeros((c, k))    # psi on x[c:-1], one column per level
        energies[0::2], half[:, 0::2] = _lowest(
            diag, even_off, (k + 1) // 2, cfg)
        half[0, 0::2] *= math.sqrt(2.0)
        if k > 1:
            energies[1::2], half[1:, 1::2] = _lowest(
                diag[1:], np.full(c - 2, off), k // 2, cfg)
        # the blocks are bisected separately, each to about ulp * |T|: a
        # doublet split below that may come out with its odd member lower
        energies = np.maximum.accumulate(energies)
        vectors = np.empty((n - 2, k))
        vectors[c - 1:] = half
        vectors[:c - 1] = half[:0:-1] * (-1.0) ** np.arange(k)
        v = diag + 2.0 * off
        v = np.concatenate((v[:0:-1], v))
    else:
        v = p(x[1:-1])
        energies, vectors = _lowest(v - 2.0 * off, np.full(n - 3, off), k, cfg)
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
        pairs.append(Eigenpair(float(energies[j]), float(corrections[j]),
                               psi, x, h, cfg.lam))
    return pairs


def _region_edges(points: list[CriticalPoint]) -> list[float]:
    """-inf, the maxima among the critical points in order, +inf."""
    maxima = [cp.x for cp in points if cp.kind == "max"]
    return [-math.inf] + sorted(maxima) + [math.inf]


def _region_weights(pair: Eigenpair, edges: list[float]) -> list[RegionWeight]:
    rho = pair.psi ** 2 * pair.h
    return [RegionWeight(lo, hi, float(rho[(pair.x >= lo) & (pair.x < hi)].sum()))
            for lo, hi in zip(edges, edges[1:])]


def well_weights(pair: Eigenpair, p: Polynomial) -> list[RegionWeight]:
    """Probability weights of the grid regions delimited by the maxima of V.

    A single-well potential (no interior maxima) yields one region of
    weight 1.  Weights sum to the normalization (1 within 1e-9).
    """
    return _region_weights(
        pair, _region_edges(critical_points(p, float(pair.x[-1]))))


def _central_weight(regions: list[RegionWeight]) -> float:
    for region in regions:
        if region.contains_origin:
            return region.weight
    return 0.0


def classify_levels(pairs: list[Eigenpair], p: Polynomial) -> list[LabeledLevel]:
    """Label eigenpairs 'central-n' / 'offcentral-m' by dominant region.

    Outer parity doublets share one m: consecutive off-central energies
    closer than 1e-3 of the outer level spacing are grouped.  A state whose
    central weight sits at 0.5 (tie, typical exactly at a crossing) is
    labeled 'mixed'.
    """
    if not pairs:
        return []
    lam = pairs[0].lam
    window = float(pairs[0].x[-1])
    points = critical_points(p, window)
    edges = _region_edges(points)
    weights = [_central_weight(_region_weights(pair, edges)) for pair in pairs]
    order = sorted(range(len(pairs)), key=lambda i: pairs[i].energy)

    spacing = None
    try:
        outer = [w for w in harmonic_wells_from(p, points) if w.x > 1e-9]
        if outer:
            spacing = 2.0 * lam * math.sqrt(outer[-1].g)
    except ValueError:
        pass

    families: dict[int, str] = {}
    for i, wc in enumerate(weights):
        if abs(wc - 0.5) <= 1e-6:
            families[i] = "mixed"
        elif wc > 0.5:
            families[i] = "central"
        else:
            families[i] = "offcentral"

    off_sorted = [i for i in order if families[i] == "offcentral"]
    if spacing is None and len(off_sorted) > 1:
        gaps = [pairs[b].energy - pairs[a].energy
                for a, b in zip(off_sorted, off_sorted[1:])]
        spacing = max(max(gaps), 1.0)
    labels: dict[int, tuple[str, int | None]] = {}
    n_counter = 0
    for i in order:
        if families[i] == "central":
            labels[i] = (f"central-{n_counter}", n_counter)
            n_counter += 1
        elif families[i] == "mixed":
            labels[i] = ("mixed", None)
    m_counter = -1
    prev_energy = None
    for i in off_sorted:
        e = pairs[i].energy
        if prev_energy is None or spacing is None \
                or e - prev_energy > 1e-3 * spacing:
            m_counter += 1
        labels[i] = (f"offcentral-{m_counter}", m_counter)
        prev_energy = e

    return [LabeledLevel(pairs[i].energy, families[i], labels[i][1],
                         labels[i][0], weights[i])
            for i in range(len(pairs))]
