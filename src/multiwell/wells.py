"""Symmetric multi-well polynomial potentials built from well-shape data.

The confining family used throughout: an even, monic polynomial V of
degree 2N+2 with V(0) = 0 whose derivative factorizes as

    V'(x) = (2N+2) * x * (x^2 - s_1) * ... * (x^2 - s_N),

so the cumulative increments s_1 <= ... <= s_N are the squared radii of
the non-origin stationary points.  For N = 2 this is a triple well with
spring constants sqrt(c) (central) and Omega (outer); adding a small
eps*x^3 term tilts it and shifts every stationary point by eps/(4 beta^2)
to leading order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .polynomial import ParameterError, Polynomial, Root, real_roots

__all__ = [
    "WellShape", "HarmonicWell", "CriticalPoint", "QuadWellForms",
    "PerturbedExtrema", "DegenerateWellError", "PerturbationRangeError",
    "AlphaOverflowError", "require_alpha", "build_symmetric", "triple_well",
    "tilted_double_well", "closed_form_n2", "closed_form_n3",
    "stationary_window", "critical_points", "harmonic_wells",
    "harmonic_wells_from",
    "tilted_well_minimum", "perturbed_extrema_n2",
]


class DegenerateWellError(ValueError):
    """A stationary point with vanishing curvature blocks the harmonic model."""


class PerturbationRangeError(ParameterError):
    """The asymmetry coupling is too large for the perturbative formulas."""


class AlphaOverflowError(ParameterError, OverflowError):
    """alpha so large that a power of it in a closed form overflows a float;
    raised by require_alpha before anything is computed."""


@dataclass(frozen=True)
class WellShape:
    """Cumulative squared radii s_1 <= s_2 <= ... <= s_N of the stationary points.

    Strictly increasing, strictly positive increments are required for the
    deep-well regime; `is_deep` additionally asks for unit spacing (the
    operations that assume pronounced wells warn below that gate).
    """

    increments: tuple[float, ...]

    def __post_init__(self):
        inc = tuple(float(s) for s in self.increments)
        if len(inc) < 1:
            raise ParameterError("shape needs at least one increment")
        if any(not math.isfinite(s) or s < 0.0 for s in inc):
            raise ParameterError(f"increments must be finite and non-negative: {inc}")
        if any(b < a for a, b in zip(inc, inc[1:])):
            raise ParameterError(f"increments must be non-decreasing: {inc}")
        object.__setattr__(self, "increments", inc)

    @classmethod
    def from_widths(cls, *widths: float) -> "WellShape":
        """Build from the per-step widths (alpha, beta, ...): s_k = alpha^2 + ... """
        if not widths:
            raise ParameterError("at least one width required")
        total, inc = 0.0, []
        for w in widths:
            total += float(w) ** 2
            inc.append(total)
        return cls(tuple(inc))

    @property
    def order(self) -> int:
        """Number of barriers N; the potential has degree 2N+2."""
        return len(self.increments)

    @property
    def is_deep(self) -> bool:
        """Deep-well gate: s_1 >= 1 and every spacing s_{k+1}-s_k >= 1."""
        inc = self.increments
        if inc[0] < 1.0:
            return False
        return all(b - a >= 1.0 for a, b in zip(inc, inc[1:]))

    def scaled(self, lam: float) -> "WellShape":
        """Shape with every width multiplied by lam (increments by lam^2)."""
        return WellShape(tuple(s * lam * lam for s in self.increments))


@dataclass(frozen=True)
class HarmonicWell:
    """Local model V ~ v + g*(t - x)^2 around a minimum at x.

    v is the well value V(x) and g = V''(x)/2 > 0 the half-curvature.
    """

    x: float
    v: float
    g: float

    def __post_init__(self):
        if not (self.g > 0.0):
            raise ParameterError(f"half-curvature must be positive, got g={self.g}")

    def level(self, m: int, lam: float = 1.0) -> float:
        """Harmonic estimate v + (2m+1) * lam * sqrt(g) for level m."""
        if not 0.0 < lam < math.inf:
            raise ParameterError(f"lam must be positive and finite, got {lam!r}")
        return self.v + (2 * m + 1) * lam * math.sqrt(self.g)


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    value: float
    curvature: float  # full second derivative V''(x)
    kind: str         # 'min' | 'max' | 'degenerate'


@dataclass(frozen=True)
class QuadWellForms:
    """Closed-form couplings and well diagnostics for the N=3 (four-well) shape."""

    a: float
    c: float
    f: float
    inner_value: float
    inner_curvature: float
    outer_value: float
    outer_curvature: float


@dataclass(frozen=True)
class PerturbedExtrema:
    """Leading-order stationary-point shifts of the tilted triple well.

    Adding eps*x^3 moves the symmetric stationary set
    {-sqrt(a2+b2), -alpha, 0, alpha, sqrt(a2+b2)} to
    {-sqrt(a2+b2)-eps*p2, -alpha+eps*q2, ~0, alpha+eps*u2, sqrt(a2+b2)-eps*v2};
    all four leading shifts equal 1/(4 beta^2).  u2_correction is the O(eps)
    coefficient of u2(eps); stationary_points holds the numerically refined
    roots of the perturbed derivative for validation.
    """

    epsilon: float
    p2: float
    q2: float
    u2: float
    v2: float
    u2_correction: float
    stationary_points: tuple[float, ...]


def build_symmetric(shape: WellShape) -> Polynomial:
    """Monic even potential of degree 2N+2 with V(0)=0 and the given shape.

    The derivative is constructed as (2N+2) * x * prod (x^2 - s_k) and
    integrated with the constant fixed to zero.
    """
    n = shape.order
    dv = Polynomial.monomial(1, 2.0 * n + 2.0)
    for s in shape.increments:
        dv = dv * Polynomial([-s, 0.0, 1.0])
    return dv.antiderivative()


# ln of a quarter of the largest float, the bound of require_alpha's powers:
# the quarter leaves room for the sums of such terms and their rounding
_LOG_POWER_BOUND = math.log(sys.float_info.max / 4.0)


def require_alpha(alpha: float, power: int = 1, scale: float = 1.0) -> None:
    """ParameterError unless the triple-well width alpha is finite and > 0;
    AlphaOverflowError unless (scale * alpha)**power, the largest power
    that the caller's closed form takes, stays below a quarter of the
    largest float."""
    if not 0.0 < alpha < math.inf:    # false for nan too
        raise ParameterError(f"alpha must be finite and positive, got {alpha!r}")
    if power * (math.log(scale) + math.log(alpha)) >= _LOG_POWER_BOUND:
        term = "alpha" if scale == 1.0 else f"({scale:.6g}*alpha)"
        raise AlphaOverflowError(f"alpha={alpha!r} is too large: the "
                                 f"closed form's {term}^{power} overflows "
                                 "a float")


def triple_well(alpha: float, delta: float) -> Polynomial:
    """Triple well with widths alpha and beta, beta^2 = (2 + delta) * alpha^2.

    The increments are s = (alpha^2, (3 + delta) * alpha^2), alpha^2
    computed as alpha * alpha; alpha must pass require_alpha.
    """
    require_alpha(alpha)
    a2 = alpha * alpha
    return build_symmetric(WellShape((a2, (3.0 + delta) * a2)))


def tilted_double_well(s1: float, tilt: float) -> Polynomial:
    """Double well x^4 - 2*s1*x^2 + tilt*x."""
    return Polynomial([0.0, tilt, -2.0 * s1, 0.0, 1.0])


def closed_form_n2(alpha: float, beta: float) -> tuple[float, float]:
    """Couplings (a, c) of x^6 + a x^4 + c x^2 for the triple-well shape."""
    if alpha < 0.0 or beta < 0.0:
        raise ParameterError("alpha and beta must be non-negative")
    a2, b2 = alpha * alpha, beta * beta
    return -3.0 * (a2 + 0.5 * b2), 3.0 * a2 * (a2 + b2)


def closed_form_n3(alpha: float, beta: float, gamma: float) -> QuadWellForms:
    """Couplings (a, c, f) of x^8 + a x^6 + c x^4 + f x^2 plus well diagnostics.

    inner_* refer to the minima at +-alpha, outer_* to the minima at
    +-sqrt(alpha^2+beta^2+gamma^2); curvatures are full second derivatives.
    A zero curvature (e.g. beta = gamma = 0) marks a degenerate well.
    """
    if alpha < 0.0 or beta < 0.0 or gamma < 0.0:
        raise ParameterError("alpha, beta, gamma must be non-negative")
    a2, b2, g2 = alpha * alpha, beta * beta, gamma * gamma
    a = -4.0 * a2 - (8.0 / 3.0) * b2 - (4.0 / 3.0) * g2
    c = 8.0 * a2 * b2 + 4.0 * a2 * g2 + 2.0 * b2 * b2 + 6.0 * a2 * a2 + 2.0 * b2 * g2
    f = (-4.0 * a2 * b2 * g2 - 4.0 * a2 ** 3 - 8.0 * a2 * a2 * b2
         - 4.0 * a2 * a2 * g2 - 4.0 * a2 * b2 * b2)
    inner_value = (-a2 ** 4 - (8.0 / 3.0) * a2 ** 3 * b2 - (4.0 / 3.0) * a2 ** 3 * g2
                   - 2.0 * a2 * a2 * b2 * b2 - 2.0 * a2 * a2 * b2 * g2)
    inner_curv = 16.0 * a2 * b2 * b2 + 16.0 * a2 * b2 * g2
    outer_value = (-a2 ** 4 - 2.0 * a2 * a2 * b2 * g2 + (1.0 / 3.0) * b2 ** 4
                   - (2.0 / 3.0) * b2 * g2 ** 3 - (8.0 / 3.0) * a2 ** 3 * b2
                   - (4.0 / 3.0) * a2 ** 3 * g2 - 2.0 * a2 * a2 * b2 * b2
                   + (2.0 / 3.0) * b2 ** 3 * g2 - (1.0 / 3.0) * g2 ** 4)
    outer_curv = (16.0 * b2 * b2 * g2 + 16.0 * a2 * b2 * g2 + 32.0 * b2 * g2 * g2
                  + 16.0 * g2 ** 3 + 16.0 * a2 * g2 * g2)
    return QuadWellForms(a, c, f, inner_value, inner_curv, outer_value, outer_curv)


def stationary_window(p: Polynomial) -> float:
    """The Cauchy bound on the roots of V', plus 1 (3 when V' is constant):
    every real stationary point lies inside it with a margin of 1, and
    critical_points isolates on it, whatever window its caller gives,
    unless V' = x * q(x^2) lets it isolate the roots of q instead."""
    dv = p.derivative()
    if dv.degree < 1:
        return 3.0
    return _cauchy_bound(dv) + 1.0


def _cauchy_bound(p: Polynomial) -> float:
    """1 + max |c_k / c_n| over k < n: every root of p lies inside it."""
    return 1.0 + max((abs(c) for c in p.coeffs[:-1]),
                     default=0.0) / abs(p.coeffs[-1])


def _isolation_tol(window: float) -> float:
    """The isolation tolerance of critical_points on +-window."""
    return 1e-11 * max(1.0, window)


def critical_points(p: Polynomial, window: float) -> list[CriticalPoint]:
    """All stationary points of p, classified and sorted.

    The roots of V' are isolated within a Cauchy bound on them (below),
    so none is missed; one beyond +-window by more than the tolerance
    1e-11 * max(1, window) raises ValueError naming the outermost.
    Points where |V''| falls below 1e-9 of its local term magnitude are
    flagged 'degenerate' rather than classified; cusp-like shapes produce
    them legitimately.  Every other point is polished by three Newton
    steps on V' (its curvature is safely nonzero) to the roundoff floor of
    V', where more steps only oscillate: x lies within about ulp *
    dv.magnitude_at(x) / |V''(x)| of the root, dv = V'.  That is full
    precision where V'' is large, but 8.7e-12 at the maxima of
    triple_well(4, -1.99999), which lie beside minima.

    An even p with a nonzero x^2 coefficient has V'(x) = x * q(x^2), with
    x = 0 a simple root, at half the degree: the roots y of q are isolated
    on (0, Y], Y the Cauchy bound on the roots of q, and only x = 0 and
    each +sqrt(y) are classified and polished; the points at x < 0 are
    their exact mirror images.  Any other p has the roots of V' isolated
    on [-B, B], B = stationary_window(p).  When q is a quadratic (N = 2,
    the triple well among them) real_roots places its roots in closed
    form, with no Sturm chain, and the points do not depend on window;
    near-double roots of q (a triple well near delta = -2) fall back to
    Sturm isolation at the window's tolerance.
    """
    if not (window > 0.0):
        raise ParameterError(f"window must be positive, got {window!r}")
    dv = p.derivative()
    if dv.is_zero:
        raise ParameterError("constant potential has no stationary structure")
    ddv = dv.derivative()
    tol = _isolation_tol(window)
    mirrored = p.is_even and p.coeffs[2] != 0.0
    if mirrored:
        q = Polynomial(dv.coeffs[1::2])
        roots = [Root(0.0, False)] + [
            Root(math.sqrt(r.x), r.flagged)
            for r in real_roots(q, 0.0, _cauchy_bound(q), tol=tol) if r.x > 0.0]
    else:
        bound = stationary_window(p)
        roots = real_roots(dv, -bound, bound, tol=tol)
    points = []
    for root in roots:
        x = root.x
        curv = ddv(x)
        if root.flagged or abs(curv) <= 1e-9 * (1.0 + ddv.magnitude_at(x)):
            kind = "degenerate"
        else:
            kind = "min" if curv > 0.0 else "max"
            for _ in range(3):
                x -= dv(x) / ddv(x)
            curv = ddv(x)
        points.append(CriticalPoint(x, p(x), curv, kind))
    if mirrored:    # p, V'' even: the mirror images are exact
        points = [CriticalPoint(-cp.x, cp.value, cp.curvature, cp.kind)
                  for cp in points[:0:-1]] + points
    return _within(points, window)


def _within(points: list[CriticalPoint],
            window: float) -> list[CriticalPoint]:
    """points, unless one lies beyond +-window by more than the isolation
    tolerance on it: then ValueError naming the outermost."""
    near = window + _isolation_tol(window)
    outside = [cp.x for cp in points if abs(cp.x) > near]
    if outside:
        raise ValueError(f"window={window:g} too small: stationary point at "
                         f"x={max(outside, key=abs):.6g} lies outside; "
                         "enlarge the window past it")
    return points


def harmonic_wells(p: Polynomial, window: float) -> list[HarmonicWell]:
    """One HarmonicWell per non-degenerate minimum of p; critical_points
    raises when a stationary point lies beyond +-window.

    critical_points polishes the minima to the roundoff floor of V'.
    Raises DegenerateWellError when any stationary point has vanishing
    curvature: the harmonic model is refused there.
    """
    return harmonic_wells_from(p, critical_points(p, window))


def harmonic_wells_from(p: Polynomial,
                        points: list[CriticalPoint]) -> list[HarmonicWell]:
    """harmonic_wells from an already computed critical_points(p, window)."""
    for cp in points:
        if cp.kind == "degenerate":
            raise DegenerateWellError(
                f"degenerate stationary point at x={cp.x:.6g} "
                "(|V''| below tolerance); harmonic approximation refused")
    return [HarmonicWell(x=cp.x, v=cp.value, g=0.5 * cp.curvature)
            for cp in points if cp.kind == "min"]


def tilted_well_minimum(f: float, g: float, x: float,
                        lam: float = 1.0) -> tuple[float, float]:
    """Minimum of t -> t * (f + g*(t - x)^2), scaled to a well at lam*x.

    For the harmonic well t -> lam^(2M+2)*f + lam^(2M)*g*(t - lam*x)^2 the
    cubic t*V(t) has its local minimum at x0 = lam*(1+delta)*x with a
    scale-independent relative shift

        delta = -f / (g*x^2 + x*sqrt(g^2*x^2 - 3*f*g)).

    Returns (x0, delta).  Raises ValueError when the discriminant is
    negative (no real extremum pair).
    """
    if not (g > 0.0):
        raise ParameterError(f"g must be positive, got {g!r}")
    if not (x > 0.0):
        raise ParameterError(f"x must be positive, got {x!r}")
    disc = g * g * x * x - 3.0 * f * g
    if disc < 0.0:
        raise ValueError("no real extremum pair: discriminant g^2 x^2 - 3 f g < 0")
    delta = -f / (g * x * x + x * math.sqrt(disc))
    return lam * (1.0 + delta) * x, delta


def perturbed_extrema_n2(alpha: float, beta: float, epsilon: float) -> PerturbedExtrema:
    """Stationary-point shifts of the triple well tilted by epsilon * x^3.

    Valid for |epsilon| <= 0.1 * alpha^3 (the shifts scale as eps/alpha^3;
    beyond the gate the perturbative path is refused and critical_points
    on the tilted polynomial should be used directly).
    """
    if not (alpha > 0.0 and beta > 0.0):
        raise ParameterError("alpha and beta must be positive")
    if abs(epsilon) > 0.1 * alpha ** 3:
        raise PerturbationRangeError(
            f"|epsilon|={abs(epsilon):g} exceeds 0.1*alpha^3={0.1 * alpha ** 3:g}; "
            "use critical_points on the tilted potential instead")
    b2 = beta * beta
    lead = 1.0 / (4.0 * b2)
    correction = (b2 + 4.0 * alpha * alpha) / (32.0 * alpha * b2 ** 3)
    tilted = build_symmetric(WellShape.from_widths(alpha, beta)) \
        + Polynomial.monomial(3, epsilon)
    points = critical_points(tilted, math.sqrt(alpha * alpha + b2) + 2.0)
    if len(points) != 5:
        raise ValueError(
            f"expected 5 stationary points, found {len(points)}; "
            "extrema may have merged (epsilon too large for this shape)")
    return PerturbedExtrema(
        epsilon=epsilon, p2=lead, q2=lead, u2=lead, v2=lead,
        u2_correction=correction,
        stationary_points=tuple(cp.x for cp in points))
