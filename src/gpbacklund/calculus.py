"""Derivatives and Schwarzian derivatives of scalar maps.

Orders 1 to 3 share one central stencil, 7 points at steps h and h/2 with
h = eps^(1/8) max(1, |z|), sharpened by one Richardson step, so a Schwarzian
evaluates its map once, on 14 nodes a point. Every function here takes a
scalar or an array of points and returns a float or an array of that shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CriticalPoint, DomainError, NonFinite

_EPS = float(np.finfo(float).eps)

_POINTS = 7
_OFFSETS = np.arange(-(_POINTS // 2), _POINTS // 2 + 1, dtype=float)
_CRITICAL_TOL = 1e-9


@dataclass(frozen=True)
class SmoothMap:
    """Scalar map of one real variable.

    ``eval`` is a numpy callable: an array in gives an array of the same
    shape out. ``domain`` is the open interval on which ``eval`` is defined.
    """

    eval: Callable
    domain: tuple[float, float] = (-math.inf, math.inf)


def default_stencil(z):
    """The step every order shares, eps^(1/8) max(1, |z|) elementwise."""
    return _EPS ** (1.0 / (_POINTS + 1)) * np.fmax(1.0, np.abs(z))


@lru_cache(maxsize=None)
def fd_weights(offsets: tuple[float, ...], order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order on the given offsets.

    Offsets are in units of the step h; the caller divides by h**order.
    The weights are solved once per (offsets, order) and shared by every
    caller, so the array is read-only.
    """
    m = len(offsets)
    if order >= m:
        raise ValueError("need more points than the derivative order")
    mat = np.array([[o ** k / math.factorial(k) for o in offsets] for k in range(m)])
    rhs = np.zeros(m)
    rhs[order] = 1.0
    weights = np.linalg.solve(mat, rhs)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=None)
def _weights(order: int) -> np.ndarray:
    # lazily, as a process's first LAPACK call raises its peak memory
    return fd_weights(tuple(_OFFSETS), order)


def _first(values, flagged) -> float:
    """The first of ``values`` where ``flagged`` holds, for error messages."""
    return float(np.ravel(values)[np.argmax(flagged)])


def _fd_derivatives(f: SmoothMap, orders: tuple[int, ...], z: np.ndarray, h):
    """Estimates at z, one per order, each a float or an array like z, from
    one evaluation of f on the shared stencil of step h."""
    # both Richardson steps in one evaluation, shape (..., 2, _POINTS)
    steps = np.multiply.outer(h, (1.0, 0.5))
    nodes = z[..., None, None] + _OFFSETS * steps[..., None]
    # the domain broadcasts against the nodes, as the map's parameters do,
    # so it is held to the coarse stencil's two end nodes z -/+ half * h
    ends = nodes[..., :1, ::_POINTS - 1]
    lo, hi = f.domain
    outside = ~((lo < ends) & (ends < hi))
    if outside.any():
        half_width = np.broadcast_to(
            _POINTS // 2 * steps[..., :1, None], outside.shape)
        near = np.broadcast_to(z[..., None, None], outside.shape)
        raise DomainError(
            f"stencil of half-width {_first(half_width, outside):.3e} around "
            f"z={_first(near, outside)!r} exits the declared domain "
            f"({lo!r}, {hi!r})")
    vals = f.eval(nodes)
    finite = np.isfinite(vals)
    if not finite.all():
        near = np.broadcast_to(z[..., None, None], nodes.shape)
        raise NonFinite(f"map returned a non-finite value near "
                        f"z={_first(near, ~finite)!r}")
    stencils = vals.reshape(-1, 2, _POINTS)
    out = []
    for order in orders:
        # np.dot of a 3-D array takes one dot product per stencil, so a
        # point's estimate does not depend on how many points share the call
        sums = np.dot(stencils, _weights(order))
        est = sums.reshape(steps.shape) / steps ** order
        coarse, fine = est[..., 0], est[..., 1]
        # 2^p, p the symmetric stencil's accuracy order (odd p rounds up)
        fac = 2.0 ** (_POINTS - order + (_POINTS - order) % 2)
        est = (fac * fine - coarse) / (fac - 1.0)
        out.append(float(est) if z.ndim == 0 else est)
    return out


def derivative(f: SmoothMap, order: int, z):
    """Derivative of the given order at z, a float or an array like z, by a
    Richardson-extrapolated central difference."""
    if order not in (1, 2, 3):
        raise ValueError("derivative order must be 1, 2 or 3")
    z = np.asarray(z, dtype=float)
    return _fd_derivatives(f, (order,), z, default_stencil(z))[0]


def schwarzian(f: SmoothMap, z):
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2 at z, from one
    evaluation of f: the values of three ``derivative`` calls bit for bit.

    A stencil that leaves the map's domain raises DomainError, and a
    non-finite value NonFinite, before CriticalPoint: |f'| below
    _CRITICAL_TOL, relative to |f''| times the step, at any point, where
    the expression is singular and a huge return value would silently
    corrupt downstream residuals.
    """
    z = np.asarray(z, dtype=float)
    h = default_stencil(z)
    f1, f2, f3 = _fd_derivatives(f, (1, 2, 3), z, h)
    critical = np.abs(f1) < _CRITICAL_TOL * np.fmax(1.0, np.abs(f2) * h)
    if critical.any():
        raise CriticalPoint(f"|f'({_first(z, critical)!r})| = "
                            f"{_first(np.abs(f1), critical):.3e} is "
                            f"numerically zero")
    return _schwarzian_of(f1, f2, f3)


def _schwarzian_of(d1, d2, d3):
    """The Schwarzian d3/d1 - (3/2)(d2/d1)^2 from three derivatives."""
    ratio = d2 / d1
    return d3 / d1 - 1.5 * ratio * ratio


def compose(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """Composition outer(inner(.)), differentiated by finite differences."""
    return SmoothMap(eval=lambda z: outer.eval(inner.eval(z)),
                     domain=inner.domain)
