"""Polynomial translation maps, Mobius transformations and the pointwise
solver for the functional equation G(f(x)) = G(x) + K.

G(x) = x^n (1 + eta x^n) is strictly increasing on x > 0, so f is obtained
by inverting G at the shifted target; the closed-form root is polished with
two Newton steps to guard against cancellation for large eta*G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import SmoothMap, _schwarzian_of
from .errors import DomainError, NonFinite, NoRealRoot, NumericalError, Pole

_ROOT_RTOL = 1e-12


def _require_positive(x, what: str = "x"):
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError(f"{what} must be positive")
    return x


@dataclass(frozen=True, eq=False)
class PolyG:
    """The strictly increasing polynomial G(x) = x^n (1 + eta x^n), x > 0.

    ``eta`` is a float, or an array of them that broadcasts against the
    points, so one G evaluates a whole family sharing its degree n. With
    array parameters value equality is ambiguous, so instances compare and
    hash by identity.
    """

    n: int
    eta: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        eta = np.asarray(self.eta, dtype=float)
        if not np.all(eta >= 0.0):
            raise ValueError("eta must be nonnegative")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "eta", float(eta) if eta.ndim == 0 else eta)

    def value(self, x):
        return self._value(_require_positive(x))

    def prime(self, x):
        """G'(x) = n x^(n-1) (1 + 2 eta x^n)."""
        return self._prime(_require_positive(x))

    # unguarded forms, for points already known positive
    def _value(self, x):
        xn = x ** self.n
        return xn * (1.0 + self.eta * xn)

    def _prime(self, x):
        return self.n * x ** (self.n - 1) * (1.0 + 2.0 * self.eta * x ** self.n)

    def second(self, x):
        n, eta = self.n, self.eta
        return (n * (n - 1) * x ** (n - 2)
                + 2.0 * n * (2 * n - 1) * eta * x ** (2 * n - 2))

    def third(self, x):
        n, eta = self.n, self.eta
        return (n * (n - 1) * (n - 2) * x ** (n - 3)
                + 2.0 * n * (2 * n - 1) * (2 * n - 2) * eta * x ** (2 * n - 3))

    def schwarzian(self, x):
        """{G, x} = G'''/G' - (3/2)(G''/G')^2, in closed form."""
        return _schwarzian_of(self.prime(x), self.second(x), self.third(x))

    def inverse(self, y):
        """Unique positive root of G(x) = y for y > 0."""
        if (np.asarray(y) <= 0.0).any():
            raise DomainError("G(x) = y has a positive root only for y > 0")
        # conjugate form of the quadratic root: stable as eta -> 0, and
        # exactly y at eta = 0
        u = 2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * self.eta * y))
        x = u ** (1.0 / self.n)
        for _ in range(2):
            x = x - (self._value(x) - y) / self._prime(x)
        # an even-degree G also has a negative root, and Newton's steps may
        # land on it
        return _require_positive(x)

    def as_smooth_map(self) -> SmoothMap:
        return SmoothMap(eval=self.value, domain=(0.0, math.inf))


@dataclass(frozen=True, eq=False)
class Mobius:
    """Fractional linear transformation w -> (a w + b) / (c w + d).

    The coefficients may be arrays that broadcast against w, one map each.
    Compares and hashes by identity, like PolyG.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.det == 0.0):
            raise ValueError("Mobius transformation requires ad - bc != 0")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def _denominator(self, w):
        denom = self.c * w + self.d
        scale = np.abs(self.c * w) + abs(self.d)
        if np.any(np.abs(denom) <= 1e-12 * scale):
            raise Pole(f"evaluation too close to the pole of {self!r}")
        return denom

    def __call__(self, w):
        return (self.a * w + self.b) / self._denominator(w)

    def as_smooth_map(self) -> SmoothMap:
        return SmoothMap(eval=self)


@dataclass(frozen=True, eq=False)
class ShiftMap:
    """Pointwise solution f(x) of G(f(x)) = G(x) + K, f > 0.

    Valid on the interval where G(x) + K > 0, whose left endpoint is
    x_min = G^{-1}(-K) for K < 0; queries outside raise DomainError rather
    than returning complex roots. ``K`` may be an array that broadcasts
    against the points, like ``g.eta``; ``x_min`` is then an array that
    broadcasts against the parameters, one endpoint per map. Compares and
    hashes by identity, like PolyG.
    """

    g: PolyG
    K: float | np.ndarray

    @cached_property
    def x_min(self) -> float | np.ndarray:
        ok = self.K < 0.0
        # G^{-1} of a stand-in 1 where K >= 0, whose root is discarded
        return np.where(ok, self.g.inverse(np.where(ok, -self.K, 1.0)),
                        0.0)[()]

    def _target(self, x):
        t = self.g.value(x) + self.K
        if not np.all(np.isfinite(t)):
            raise NonFinite(f"G(x) + K is not finite for K={self.K}")
        if np.any(1.0 + 4.0 * self.g.eta * t <= 0.0):
            raise NoRealRoot(
                f"discriminant 1 + 4*eta*(G(x)+K) <= 0 for K={self.K}")
        return t

    def f(self, x):
        t = self._target(x)
        val = self.g.inverse(t)
        resid = np.abs(self.g._value(val) - t)
        if not np.all(resid <= _ROOT_RTOL * np.maximum(1.0, np.abs(t))):
            if np.any(np.isnan(resid)):  # G(x) + K overflows the solver
                raise NonFinite(f"root of G(f) = G(x) + K is not finite "
                                f"for K={self.K}")
            raise NumericalError(
                f"root polish failed for K={self.K}: |G(f)-G(x)-K| = "
                f"{float(np.max(resid)):.3e}")
        return val

    def f_prime(self, x, f):
        """f'(x) = G'(x)/G'(f) by implicit differentiation, given the root
        f = f(x)."""
        return self.g.prime(x) / self.g.prime(f)

    def f_second(self, x, f, fp):
        """f''(x), given the root f = f(x) and fp = f'(x)."""
        return (self.g.second(x) - self.g.second(f) * fp * fp) / self.g.prime(f)

    def as_smooth_map(self) -> SmoothMap:
        return SmoothMap(eval=self.f, domain=(self.x_min, math.inf))


def _half_density(u, du, d1, d2):
    """(r, r') = (u/sqrt(d1), u' sqrt(d1) - r d2/(2 d1)): u and its
    derivative du, read at the image of each point under a map with
    derivatives d1 > 0 and d2 there, pulled back as a density of weight
    -1/2. This is the transform r1 = r0(f)/sqrt(f') and the read of
    rho(t) at t = G(x) into r(x) alike."""
    root = np.sqrt(d1)
    r = u / root
    return r, du * root - 0.5 * r * d2 / d1


def solve_f(shift: ShiftMap, x):
    """The positive root f with its derivative, as a pair (f, fprime)."""
    f = shift.f(x)
    return f, shift.f_prime(x, f)
