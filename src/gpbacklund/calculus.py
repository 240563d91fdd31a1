"""Derivatives and Schwarzian derivatives of scalar maps.

Closed-form derivatives are used whenever a map carries them; otherwise the
estimate is a central finite difference (5 points for orders 1 and 2, 7
points for order 3) sharpened by one step of Richardson extrapolation.
Every function here takes a scalar or an array of points and returns a
float or an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import CriticalPoint, DomainError, NonFinite

_EPS = float(np.finfo(float).eps)

_DEFAULT_POINTS = {1: 5, 2: 5, 3: 7}


@dataclass(frozen=True)
class SmoothMap:
    """Scalar map of one real variable with an optional derivative tower.

    ``eval`` and ``d1``..``d3`` are numpy callables: an array in gives an
    array of the same shape out. ``d1``..``d3`` are closed-form
    derivatives; any subset may be supplied. ``domain`` is the open
    interval on which ``eval`` is defined.
    """

    eval: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    d3: Optional[Callable] = None
    domain: tuple[float, float] = (-math.inf, math.inf)

    def closed_form(self, order: int) -> Optional[Callable]:
        return (self.d1, self.d2, self.d3)[order - 1]


@dataclass(frozen=True)
class Stencil:
    """Central difference stencil; ``points`` odd, >= 5 and >= order + 2.

    ``base_step`` is one step or an array of steps, one per point.
    """

    order: int
    points: int
    base_step: float | np.ndarray

    def __post_init__(self) -> None:
        if self.order not in (1, 2, 3):
            raise ValueError("derivative order must be 1, 2 or 3")
        if self.points < 5 or self.points % 2 == 0:
            raise ValueError("stencil needs an odd point count >= 5")
        if self.points < self.order + 2:
            raise ValueError("stencil needs points >= order + 2")
        if not np.all(self.base_step > 0.0):
            raise ValueError("base_step must be positive")

    @property
    def half_width(self) -> int:
        return self.points // 2


def default_stencil(order: int, z) -> Stencil:
    """Stencil with step eps^(1/(points+1)) * max(1, |z|), elementwise in z."""
    points = _DEFAULT_POINTS[order]
    step = _EPS ** (1.0 / (points + 1)) * np.fmax(1.0, np.abs(z))
    return Stencil(order=order, points=points, base_step=step)


@lru_cache(maxsize=None)
def _central_weights(points: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.arange(-(points // 2), points // 2 + 1, dtype=float)
    return fd_weights(tuple(offsets), order), offsets


def fd_weights(offsets: tuple[float, ...], order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order on the given offsets.

    Offsets are in units of the step h; the caller divides by h**order.
    """
    m = len(offsets)
    if order >= m:
        raise ValueError("need more points than the derivative order")
    mat = np.array([[o ** k / math.factorial(k) for o in offsets] for k in range(m)])
    rhs = np.zeros(m)
    rhs[order] = 1.0
    return np.linalg.solve(mat, rhs)


def _first(values, flagged) -> float:
    """The first of ``values`` where ``flagged`` holds, for error messages."""
    return float(np.ravel(values)[np.argmax(flagged)])


def _fd_derivative(f: SmoothMap, order: int, z: np.ndarray,
                   stencil: Stencil) -> np.ndarray:
    weights, offsets = _central_weights(stencil.points, order)
    h = stencil.base_step
    # both Richardson steps in one evaluation, shape (..., 2, points)
    steps = np.multiply.outer(h, (1.0, 0.5))
    nodes = z[..., None, None] + offsets * steps[..., None]
    # the domain broadcasts against the nodes, as the map's parameters do,
    # so it is held to the coarse stencil's two end nodes z -/+ half * h
    ends = nodes[..., :1, ::offsets.size - 1]
    lo, hi = f.domain
    outside = ~((lo < ends) & (ends < hi))
    if np.any(outside):
        half_width = np.broadcast_to(
            stencil.half_width * steps[..., :1, None], outside.shape)
        near = np.broadcast_to(z[..., None, None], outside.shape)
        raise DomainError(
            f"stencil of half-width {_first(half_width, outside):.3e} around "
            f"z={_first(near, outside)!r} exits the declared domain "
            f"({lo!r}, {hi!r})")
    vals = f.eval(nodes)
    finite = np.isfinite(vals)
    if not np.all(finite):
        near = np.broadcast_to(z[..., None, None], nodes.shape)
        raise NonFinite(f"map returned a non-finite value near "
                        f"z={_first(near, ~finite)!r}")
    # np.dot of a 3-D array takes one dot product per stencil, so a point's
    # estimate does not depend on how many points share the call
    sums = np.dot(vals.reshape(-1, 2, offsets.size), weights)
    est = sums.reshape(steps.shape) / steps ** order
    coarse, fine = est[..., 0], est[..., 1]
    # accuracy order of the symmetric stencil (odd orders round up to even)
    p = stencil.points - order
    p += p % 2
    fac = 2.0 ** p
    return (fac * fine - coarse) / (fac - 1.0)


def derivative(f: SmoothMap, order: int, z):
    """Derivative of the given order at z, a float or an array like z.

    Uses the closed form when the map carries one for that order, otherwise
    a Richardson-extrapolated central difference.
    """
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    z = np.asarray(z, dtype=float)
    closed = f.closed_form(order)
    if closed is None:
        val = _fd_derivative(f, order, z, default_stencil(order, z))
    else:
        val = closed(z)
        if not np.all(np.isfinite(val)):
            raise NonFinite(f"closed-form derivative non-finite at "
                            f"z={_first(z, ~np.isfinite(val))!r}")
    return float(val) if z.ndim == 0 else val


def schwarzian(f: SmoothMap, z, critical_tol: float = 1e-9):
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at z.

    Raises CriticalPoint when |f'| falls below the configured threshold at
    any point; the expression is singular there and a huge return value
    would silently corrupt downstream residuals.
    """
    f1 = derivative(f, 1, z)
    f2 = derivative(f, 2, z)
    h = default_stencil(2, z).base_step
    critical = np.abs(f1) < critical_tol * np.fmax(1.0, np.abs(f2) * h)
    if np.any(critical):
        raise CriticalPoint(f"|f'({_first(z, critical)!r})| = "
                            f"{_first(np.abs(f1), critical):.3e} is "
                            f"numerically zero")
    f3 = derivative(f, 3, z)
    ratio = f2 / f1
    return f3 / f1 - 1.5 * ratio * ratio


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Composition outer(inner(.)) with chain-rule derivatives where available."""

    def ev(z):
        return outer.eval(inner.eval(z))

    d1 = d2 = d3 = None
    if outer.d1 and inner.d1:
        def d1(z):
            return outer.d1(inner.eval(z)) * inner.d1(z)
    if outer.d1 and outer.d2 and inner.d1 and inner.d2:
        def d2(z):
            u = inner.eval(z)
            du = inner.d1(z)
            return outer.d2(u) * du * du + outer.d1(u) * inner.d2(z)
        if outer.d3 and inner.d3:
            def d3(z):
                u = inner.eval(z)
                du = inner.d1(z)
                ddu = inner.d2(z)
                return (outer.d3(u) * du ** 3
                        + 3.0 * outer.d2(u) * du * ddu
                        + outer.d1(u) * inner.d3(z))
    return SmoothMap(eval=ev, d1=d1, d2=d2, d3=d3, domain=inner.domain)
