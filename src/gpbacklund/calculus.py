"""Derivatives and Schwarzian derivatives of scalar maps.

Every estimate is a central finite difference (5 points for orders 1 and 2,
7 points for order 3) sharpened by one step of Richardson extrapolation.
Every function here takes a scalar or an array of points and returns a
float or an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CriticalPoint, DomainError, NonFinite

_EPS = float(np.finfo(float).eps)

_DEFAULT_POINTS = {1: 5, 2: 5, 3: 7}
_CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class SmoothMap:
    """Scalar map of one real variable.

    ``eval`` is a numpy callable: an array in gives an array of the same
    shape out. ``domain`` is the open interval on which ``eval`` is defined.
    """

    eval: Callable
    domain: tuple[float, float] = (-math.inf, math.inf)


def default_stencil(order: int, z):
    """(points, step) of the central stencil for the given order, with step
    eps^(1/(points+1)) * max(1, |z|) elementwise in z."""
    points = _DEFAULT_POINTS[order]
    return points, _EPS ** (1.0 / (points + 1)) * np.fmax(1.0, np.abs(z))


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


def _fd_derivatives(f: SmoothMap, orders: tuple[int, ...], z: np.ndarray):
    """Estimates at z, one per order, of orders that share a stencil (as 1
    and 2 do), from one evaluation of f; each order takes its own weights,
    and each estimate is a float or an array like z."""
    points, h = default_stencil(orders[0], z)
    # both Richardson steps in one evaluation, shape (..., 2, points)
    steps = np.multiply.outer(h, (1.0, 0.5))
    offsets = _central_weights(points, orders[0])[1]
    nodes = z[..., None, None] + offsets * steps[..., None]
    # the domain broadcasts against the nodes, as the map's parameters do,
    # so it is held to the coarse stencil's two end nodes z -/+ half * h
    ends = nodes[..., :1, ::offsets.size - 1]
    lo, hi = f.domain
    outside = ~((lo < ends) & (ends < hi))
    if np.any(outside):
        half_width = np.broadcast_to(
            points // 2 * steps[..., :1, None], outside.shape)
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
    stencils = vals.reshape(-1, 2, offsets.size)
    out = []
    for order in orders:
        # np.dot of a 3-D array takes one dot product per stencil, so a
        # point's estimate does not depend on how many points share the call
        sums = np.dot(stencils, _central_weights(points, order)[0])
        est = sums.reshape(steps.shape) / steps ** order
        coarse, fine = est[..., 0], est[..., 1]
        # accuracy order of the symmetric stencil (odd orders round up)
        p = points - order
        p += p % 2
        fac = 2.0 ** p
        est = (fac * fine - coarse) / (fac - 1.0)
        out.append(float(est) if z.ndim == 0 else est)
    return out


def derivative(f: SmoothMap, order: int, z):
    """Derivative of the given order at z, a float or an array like z, by a
    Richardson-extrapolated central difference."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    return _fd_derivatives(f, (order,), np.asarray(z, dtype=float))[0]


def schwarzian(f: SmoothMap, z):
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at z.

    f' and f'' share their stencil, so the map is evaluated once for both
    and once more for f'''.

    Raises CriticalPoint when |f'| falls below _CRITICAL_TOL, relative to
    |f''| times the stencil step, at any point; the expression is singular
    there and a huge return value would silently corrupt downstream
    residuals.
    """
    f1, f2 = _fd_derivatives(f, (1, 2), np.asarray(z, dtype=float))
    h = default_stencil(2, z)[1]
    critical = np.abs(f1) < _CRITICAL_TOL * np.fmax(1.0, np.abs(f2) * h)
    if np.any(critical):
        raise CriticalPoint(f"|f'({_first(z, critical)!r})| = "
                            f"{_first(np.abs(f1), critical):.3e} is "
                            f"numerically zero")
    f3 = derivative(f, 3, z)
    ratio = f2 / f1
    return f3 / f1 - 1.5 * ratio * ratio


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Composition outer(inner(.)), differentiated by finite differences."""
    return SmoothMap(eval=lambda z: outer.eval(inner.eval(z)),
                     domain=inner.domain)
