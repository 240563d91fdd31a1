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
from typing import Callable

import numpy as np

from .calculus import SmoothMap, _first
from .errors import (DomainError, NonFinite, NoRealRoot, NumericalError,
                     Pole, RangeError)

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

    def inverse_or(self, y, fallback):
        """G^{-1}(y) where y > 0 and ``fallback`` elsewhere, elementwise."""
        if isinstance(y, (int, float)):  # scalar path: no array dispatch
            return float(self.inverse(y)) if y > 0.0 else fallback
        ok = y > 0.0
        # G^{-1} of a stand-in 1 where y <= 0, whose root is discarded
        return np.where(ok, self.inverse(np.where(ok, y, 1.0)), fallback)

    def as_smooth_map(self, with_derivatives: bool = True) -> SmoothMap:
        domain = (0.0, math.inf)
        if with_derivatives:
            return SmoothMap(eval=self.value, d1=self.prime, d2=self.second,
                             d3=self.third, domain=domain)
        return SmoothMap(eval=self.value, domain=domain)


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

    def derivative(self, w):
        denom = self._denominator(w)
        return self.det / (denom * denom)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other, by 2x2 matrix multiplication."""
        return Mobius(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

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
        return self.g.inverse_or(-self.K, 0.0)

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

    def f_prime(self, x, fval=None):
        """f'(x) = G'(x)/G'(f(x)) by implicit differentiation."""
        f = self.f(x) if fval is None else fval
        return self.g.prime(x) / self.g.prime(f)

    def f_second(self, x, fval=None, fp=None):
        f = self.f(x) if fval is None else fval
        fp = self.f_prime(x, f) if fp is None else fp
        return (self.g.second(x) - self.g.second(f) * fp * fp) / self.g.prime(f)

    def effective_domain(self, seed_domain: tuple[float, float]) -> tuple:
        """Interval on which f is defined and maps into the seed's domain.

        Elementwise for array parameters: the endpoints are then arrays that
        broadcast against them.
        """
        seed_lo, seed_hi = seed_domain
        g = self.g
        lo, hi = self.x_min, math.inf
        # f is increasing, so the preimage of y under f is G^{-1}(G(y) - K)
        if seed_lo > 0.0:
            pre = g.inverse_or(g.value(seed_lo) - self.K, lo)
            lo = max(lo, pre) if isinstance(pre, float) else np.fmax(lo, pre)
        if math.isfinite(seed_hi):
            # no preimage of seed_hi leaves the interval empty
            hi = g.inverse_or(g.value(seed_hi) - self.K, lo)
        return (lo, hi)

    def as_smooth_map(self) -> SmoothMap:
        return SmoothMap(eval=self.f, domain=(self.x_min, math.inf))


def solve_f(shift: ShiftMap, x):
    """The positive root f with its derivative, as a pair (f, fprime)."""
    f = shift.f(x)
    return f, shift.f_prime(x, f)


def conjugate_f(w: SmoothMap, w_inverse: Callable, m: Mobius,
                match_tol: float = 1e-10) -> SmoothMap:
    """The conjugated map f = w^{-1} o m o w, so w(f(x)) = m(w(x)).

    ``w`` must be strictly monotone on its domain with ``w_inverse`` its
    inverse; raises RangeError wherever m(w(x)) leaves the range of w.
    """
    lo, hi = w.domain

    def ev(x):
        t = m(w.eval(x))
        y = w_inverse(t)
        escaped = ~(np.isfinite(y) & (lo < y) & (y < hi))
        if np.any(escaped):
            raise RangeError(
                f"m(w({_first(x, escaped)!r})) = {_first(t, escaped)!r} has "
                f"no preimage inside the domain of w")
        missed = np.abs(w.eval(y) - t) > match_tol * np.maximum(1.0, np.abs(t))
        if np.any(missed):
            raise RangeError(
                f"w_inverse failed to invert w at {_first(t, missed)!r} to "
                f"within {match_tol}")
        return y

    d1 = None
    if w.d1 is not None:
        def d1(x):
            return m.derivative(w.eval(x)) * w.d1(x) / w.d1(ev(x))

    return SmoothMap(eval=ev, d1=d1, domain=w.domain)
