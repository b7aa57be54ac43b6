"""Real polynomial arithmetic with guaranteed real-root isolation.

Coefficients are stored ascending by power, so ``coeffs[k]`` multiplies
``x**k``.  Everything is plain float arithmetic on small degrees
(<= ~15); robustness comes from Sturm-count isolation, not from extended
precision.  A quadratic's roots come from the closed-form branch of
real_roots, which leaves near-double roots to that isolation.  Brent's
method (brent_root) and the lattice sign-change scan (bracket_scan) are
shared by every scalar root-find in the package; the scan evaluates its
function once, on the whole lattice as a numpy array, and scans many
functions on one lattice when it returns one row each.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["Polynomial", "Root", "ParameterError", "RootIsolationError",
           "real_roots", "brent_root", "lattice", "bracket_scan"]

# relative threshold below which a remainder coefficient is treated as an
# exact zero when building the Sturm chain
_CHAIN_EPS = 1e-13
_EPS = 2.0 ** -52  # float64 unit roundoff, Brent's relative step floor
_TINY = 5e-324  # smallest subnormal, Brent's absolute step floor at 0
_MAX_DEPTH = 64  # subdivisions real_roots makes before it gives up
_SCAN_SAMPLES = 33  # lattice points of bracket_scan
_Cell = tuple[float, float, float]  # a bracket_scan cell (a, b, f(a))


class ParameterError(ValueError):
    """An argument rejected before any computation (CLI exit 64)."""


class RootIsolationError(RuntimeError):
    """Raised when subdivision exceeds its depth budget without isolating."""


class Root(NamedTuple):
    x: float
    flagged: bool  # True when the root is (near-)multiple


def _normalize(coeffs: Iterable[float]) -> tuple[float, ...]:
    cs = [float(c) for c in coeffs]
    if not cs:
        raise ParameterError("coefficient list must be non-empty")
    if any(not math.isfinite(c) for c in cs):
        raise ParameterError(f"coefficients must be finite, got {cs} "
                             "(ascending by power)")
    while len(cs) > 1 and cs[-1] == 0.0:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Immutable real polynomial, coefficients ascending by power.

    Trailing zero coefficients are normalized away; the zero polynomial
    is represented as ``(0.0,)``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[float]):
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_descending(cls, coeffs: Iterable[float]) -> "Polynomial":
        """Build from highest-degree-first coefficients (down to the constant)."""
        return cls(list(coeffs)[::-1])

    @classmethod
    def monomial(cls, power: int, coeff: float = 1.0) -> "Polynomial":
        if power < 0:
            raise ParameterError(f"power must be non-negative, got {power}")
        return cls([0.0] * power + [float(coeff)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def is_even(self) -> bool:
        """Every odd coefficient exactly 0: a tilt of any size breaks parity."""
        return not any(self.coeffs[1::2])

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, x):
        """Evaluate by Horner's scheme (_horner), elementwise on an array."""
        if len(self.coeffs) == 1:
            return self.coeffs[0] + x * 0.0 if hasattr(x, "shape") else self.coeffs[0]
        return _horner(self.coeffs, x)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Polynomial":
        """Antiderivative with the constant fixed so that the result is 0 at 0."""
        return Polynomial([0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def magnitude_at(self, x: float) -> float:
        """Sum of absolute term magnitudes at x; a cancellation scale."""
        ax = abs(x)
        total, power = 0.0, 1.0
        for c in self.coeffs:
            total += abs(c) * power
            power *= ax
        return total

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for k, c in enumerate(b):
            summed[k] += c
        return Polynomial(summed)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0.0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)


# ---------------------------------------------------------------------------
# Sturm-chain machinery (operates on raw ascending coefficient lists)

def _horner(cs, x):
    """cs[0] + cs[1] x + ... by Horner's scheme; x a float or an array."""
    result = cs[-1]
    for c in cs[-2::-1]:
        result = result * x + c
    return result


def _unit_scale(cs: list[float]) -> list[float]:
    top = max(abs(c) for c in cs)
    return [c / top for c in cs]


def _trim(cs: list[float]) -> list[float]:
    top = max(abs(c) for c in cs) if cs else 0.0
    tiny = _CHAIN_EPS * top
    out = list(cs)
    while len(out) > 1 and abs(out[-1]) <= tiny:
        out.pop()
    return out


def _polyrem(num: list[float], den: list[float]) -> list[float]:
    """Remainder of num / den; den's leading coefficient must be nonzero."""
    rem = list(num)
    dn = len(den) - 1
    lead = den[-1]
    for k in range(len(rem) - 1, dn - 1, -1):
        f = rem[k] / lead
        if f != 0.0:
            for j in range(dn):
                rem[k - dn + j] -= f * den[j]
        rem[k] = 0.0
    return _trim(rem)


def _sturm_chain(p: Polynomial) -> list[list[float]]:
    """Unit-scaled Sturm chain of p, of degree >= 1 (real_roots checks)."""
    chain = [_unit_scale(list(p.coeffs))]
    chain.append(_unit_scale(list(p.derivative().coeffs)))
    while len(chain[-1]) > 1:
        rem = _polyrem(chain[-2], chain[-1])
        rem = [-c for c in rem]
        if max(abs(c) for c in rem) <= _CHAIN_EPS:
            break  # float gcd termination: last chain member divides its predecessor
        chain.append(_unit_scale(rem))
    return chain


def _sign_changes(chain: list[list[float]], x: float) -> int:
    changes = 0
    prev = 0.0
    for cs in chain:
        v = _horner(cs, x)
        if v == 0.0:
            continue
        if prev != 0.0 and (v < 0.0) != (prev < 0.0):
            changes += 1
        prev = v
    return changes


def brent_root(f, a: float, b: float, fa: float, fb: float,
               tol: float) -> tuple[float, float]:
    """Root of f in [a, b] by Brent's zero-in method, given fa = f(a) and
    fb = f(b) of opposite sign (or one of them 0, which returns that end).

    Each step is an inverse-quadratic or secant step when it lands well
    inside the current bracket and shrinks it fast enough, and a bisection
    step otherwise (R. P. Brent, Comput. J. 14, 422 (1971)).  A retained
    value of +-inf, which carries a sign but no magnitude, always forces
    bisection.  Every evaluated point lies in [a, b].  Returns (x, f(x))
    for the bracket end with the smaller |f| once the bracket is at most
    tol (plus a few ulps of x) wide, so the root is within tol of x and
    f(x) needs no re-evaluation; tol = 0 refines to a few ulps.
    """
    if not (tol >= 0.0):
        raise ParameterError(f"tol must be non-negative, got {tol!r}")
    if fa == 0.0:
        return a, fa
    if fb == 0.0:
        return b, fb
    if (fa < 0.0) == (fb < 0.0):
        raise ParameterError(f"f({a!r}) and f({b!r}) do not differ in sign")
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):  # keep the best estimate in b
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol + _TINY
        half = 0.5 * (c - b)
        if abs(half) <= tol1 or fb == 0.0:
            return b, fb
        finite = math.isfinite(fa) and math.isfinite(fb) and math.isfinite(fc)
        if finite and abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic through (a, fa), (b, fb), (c, fc)
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * half * q - abs(tol1 * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, half)
        fb = f(b)
        if (fb < 0.0) == (fc < 0.0) and fb != 0.0:  # c must straddle the root
            c, fc = a, fa
            d = e = b - a


def lattice(lo: float, hi: float, n: int) -> np.ndarray:
    """The n >= 2 evenly spaced points lo + (hi - lo) * i / (n - 1), 0 <= i
    < n, each bit-equal to that expression in Python floats."""
    return lo + (hi - lo) * np.arange(n) / (n - 1)


def bracket_scan(f, lo: float, hi: float) -> list[_Cell] | list[list[_Cell]]:
    """Evaluate f once on the 33-point lattice of [lo, hi], passed as one
    numpy array, so f must accept arrays; return every cell (a, b, f(a))
    where f(a) == 0 or f changes sign, in lattice order, as Python floats.
    When f returns a (rows, 33) array, one function per row on the same
    lattice, the result is one such cell list per row, each the list that
    scanning its row alone gives.  Overflow and invalid-operation warnings
    are off during the call: as in Python float arithmetic, values turn
    into inf or nan silently."""
    xs = lattice(lo, hi, _SCAN_SAMPLES)
    with np.errstate(over="ignore", invalid="ignore"):
        fs = f(xs)
    rows = np.atleast_2d(fs)
    neg = rows < 0.0
    hit = (rows[:, :-1] == 0.0) | (neg[:, :-1] != neg[:, 1:])
    x, values = xs.tolist(), rows.tolist()
    cells: list[list[_Cell]] = [[] for _ in values]
    for r, i in zip(*(k.tolist() for k in hit.nonzero())):
        cells[r].append((x[i], x[i + 1], values[r][i]))
    return cells if fs.ndim > 1 else cells[0]


def _is_ambiguous(dp: Polynomial, r: float, tol: float) -> bool:
    """Derivative sign ambiguous within tol of r -> near-multiple root."""
    left, right = dp(r - tol), dp(r + tol)
    if left == 0.0 or right == 0.0 or (left < 0.0) != (right < 0.0):
        return True
    return abs(dp(r)) <= 1e-9 * dp.magnitude_at(r)


def _even_multiplicity_root(p: Polynomial, dp: Polynomial,
                            a: float, b: float, tol: float) -> float:
    """Locate a root with no sign change (even multiplicity) via the extremum."""
    cells = bracket_scan(dp, a, b)
    if not cells:
        raise RootIsolationError(
            f"counted a root in [{a:.6g}, {b:.6g}] but found no sign change "
            "of the polynomial or its derivative")
    xa, xb, fa = cells[0]
    x_ext = brent_root(dp, xa, xb, fa, dp(xb), tol)[0]
    if abs(p(x_ext)) > 1e-8 * (1.0 + p.magnitude_at(x_ext)):
        raise RootIsolationError(
            f"extremum at x={x_ext:.6g} does not touch zero; "
            "isolation failed (suspected count error near a multiple root)")
    return x_ext


def real_roots(p: Polynomial, lo: float, hi: float,
               tol: float = 1e-10) -> list[Root]:
    """All real roots of p in [lo, hi], each accurate to tol.

    Isolation subdivides on Sturm-sequence root counts of (lo - tol,
    hi + tol]; refinement is Brent's method on the chain's head, the
    unit-scaled p whose roots the counts describe.  Near-multiple roots
    come back flagged: the derivative's sign is ambiguous within tol, or
    the isolating interval holds a root of the chain's last member, the
    float gcd(p, p') whose roots are the multiple roots of p (a root of
    odd multiplicity keeps p' of one sign around it).  Raises
    RootIsolationError if subdivision exceeds _MAX_DEPTH levels without
    isolating.  Roots within 2 tol of each other come back as one flagged
    root, and the roots sorted.

    A quadratic p takes a closed-form branch instead, the stable quadratic
    formula (_quadratic_roots), whose roots in (lo - tol, hi + tol] are
    flagged where the derivative's sign is ambiguous and merged as above;
    when the formula's rounding could move a root by more than tol, as
    for near-double roots, p falls back to the Sturm path.
    """
    if not (lo < hi):
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if not (tol > 0.0):
        raise ParameterError(f"tol must be positive, got {tol!r}")
    if p.is_zero:
        raise ParameterError("zero polynomial: every point of the interval is a root")
    if p.degree == 0:
        return []
    dp = p.derivative()
    if p.degree == 2:
        closed = _quadratic_roots(p, tol)
        if closed is not None:
            return _merged([Root(r, _is_ambiguous(dp, r, tol)) for r in closed
                            if lo - tol < r <= hi + tol], tol)

    chain = _sturm_chain(p)
    a, b = lo - tol, hi + tol  # widen so endpoint roots land inside (a, b]
    work = [(a, b, _sign_changes(chain, a), _sign_changes(chain, b), 0)]
    leaves: list[tuple[float, float, int]] = []
    while work:
        xa, xb, va, vb, depth = work.pop()
        count = va - vb
        if count <= 0:
            continue
        if count == 1 or xb - xa <= tol:
            leaves.append((xa, xb, count))
            continue
        if depth >= _MAX_DEPTH:
            raise RootIsolationError(
                f"failed to isolate {count} roots in [{xa:.6g}, {xb:.6g}] "
                f"within {_MAX_DEPTH} subdivisions")
        mid = 0.5 * (xa + xb)
        if _horner(chain[-1], mid) == 0.0:
            # a root of gcd(p, p'), a multiple root of p: every chain member
            # vanishes there and the count reads 0, so split beside it
            mid = 0.5 * (mid + xb)
        vm = _sign_changes(chain, mid)
        work.append((xa, mid, va, vm, depth + 1))
        work.append((mid, xb, vm, vb, depth + 1))

    # the sign tests below use the chain's head, not p: unit scaling can
    # flush a subnormal coefficient to zero, and then only the head has the
    # roots the Sturm counts describe
    scaled = functools.partial(_horner, chain[0])
    # Sturm chain of gcd(p, p'), when p has multiple roots
    common = _sturm_chain(Polynomial(chain[-1])) if len(chain[-1]) > 1 \
        else None
    roots: list[Root] = []
    for xa, xb, count in leaves:
        if count > 1:  # unresolvable cluster narrower than tol
            roots.append(Root(0.5 * (xa + xb), True))
            continue
        multiple = common is not None and \
            _sign_changes(common, xa) > _sign_changes(common, xb)
        fa, fb = scaled(xa), scaled(xb)
        if fa == 0.0:
            # the count covers (xa, xb]: a zero at xa belongs to the
            # neighboring leaf, so step inside before bracketing, by less
            # while the step passes this leaf's own root; a root closer to
            # xa than any step joins it as one flagged root
            step, vb = min(tol, 1e-3 * (xb - xa)), _sign_changes(chain, xb)
            while xa + step > xa and _sign_changes(chain, xa + step) != vb + 1:
                step *= 0.5
            if not xa + step > xa:
                roots.append(Root(xa, True))
                continue
            xa += step
            fa = scaled(xa)
        if fb == 0.0:
            r = xb
        elif fa != 0.0 and (fa < 0.0) != (fb < 0.0):
            r = brent_root(scaled, xa, xb, fa, fb, tol)[0]
        else:
            r = _even_multiplicity_root(p, dp, xa, xb, tol)
            roots.append(Root(r, True))
            continue
        roots.append(Root(r, multiple or _is_ambiguous(dp, r, tol)))

    return _merged(roots, tol)


def _merged(roots: list[Root], tol: float) -> list[Root]:
    """roots sorted, each run of roots within 2 tol of its first one
    merged into that one, flagged."""
    roots.sort()
    merged: list[Root] = []
    for root in roots:
        if merged and abs(root.x - merged[-1].x) <= 2.0 * tol:
            merged[-1] = Root(merged[-1].x, True)
            continue
        merged.append(root)
    return merged


def _quadratic_roots(p: Polynomial, tol: float) -> list[float] | None:
    """The real roots of the quadratic p by the stable quadratic formula on
    its unit-scaled coefficients (c, b, a), or None when the formula cannot
    place them within tol: scaling and rounding leave d = b^2 - 4ac off by
    at most err = 2 eps (b^2 + 4|ac|), which moves s / (2|a|), s =
    sqrt(|d|), half the distance of two real roots (each also off by a few
    eps relative) or that of a complex pair from the real axis, by at most
    err / (4|a| s).  None when the sign of d is unknown (|d| <= err), when
    either error exceeds tol, or when a complex pair may lie within tol of
    the real axis: near-double roots are left to the Sturm path."""
    c, b, a = _unit_scale(list(p.coeffs))
    d = b * b - 4.0 * a * c
    err = 2.0 * _EPS * (b * b + 4.0 * abs(a * c))
    if not abs(d) > err:    # true for nan too
        return None
    s = math.sqrt(abs(d))
    shift = err / (4.0 * abs(a) * s)
    if d < 0.0:
        return [] if shift <= tol < s / (2.0 * abs(a)) - shift else None
    t = -0.5 * (b + math.copysign(s, b))
    roots = [t / a, c / t]
    if any(shift + 4.0 * _EPS * abs(r) > tol for r in roots):
        return None
    return roots
