"""Auto-Backlund transformation driven by the translation maps of
``functional``: r1(x) = r0(f(x)) / sqrt(f'(x)) maps solutions of the reduced
amplitude equation to new solutions of the same equation.

Seeds are any objects exposing ``domain`` and ``eval_with_derivative(xs)``:
dense integrated solutions, closed-form solutions, or interpolated grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainEscape, NegativeJacobian, NumericalError
from .functional import PolyG, ShiftMap
from .ode import SolutionGrid

_FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class FixedPointResult:
    is_fixed: bool
    deviation: float

    def __bool__(self) -> bool:
        return self.is_fixed


def transform(shift: ShiftMap, seed, xs) -> SolutionGrid:
    """Apply the transformation to a seed solution at the points xs.

    Points where f exits the seed's domain are trimmed; the grid metadata
    records the kept interval and the trimmed count. The positive
    square-root branch is always taken; r1' follows from the closed-form
    chain rule so transformed grids stay usable as integration restarts.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    lo, hi = shift.effective_domain(seed.domain)
    kept = xs[(xs > lo) & (xs < hi)]
    if kept.size < 2:
        raise DomainEscape(
            f"no usable points: f maps the request outside ({lo:.6g}, {hi:.6g})")

    f = shift.f(kept)
    fp = shift.f_prime(kept, f)
    if np.any(fp <= 0.0):
        raise NegativeJacobian("f'(x) <= 0 on the transform domain")
    f2 = shift.f_second(kept, f, fp)

    r0, r0p = seed.eval_with_derivative(f)
    root = np.sqrt(fp)
    r1 = r0 / root
    r1p = r0p * root - 0.5 * r0 * f2 / (fp * root)

    meta = {
        "kind": "transformed",
        "K": shift.K,
        "n": shift.g.n,
        "eta": shift.g.eta,
        "interval": (float(kept[0]), float(kept[-1])),
        "trimmed": int(xs.size - kept.size),
        "seed": dict(getattr(seed, "meta", {}) or {}),
    }
    return SolutionGrid(xs=kept, rs=r1, rps=r1p, meta=meta)


def orbit(g: PolyG, k_schedule: Sequence[float], seed, xs) -> list[SolutionGrid]:
    """Iterated transforms for a schedule of translation constants.

    Translations of G compose additively, so the j-th element is computed
    directly from the seed with K equal to the j-th partial sum rather than
    by chaining interpolated grids.
    """
    grids: list[SolutionGrid] = []
    for j, k_sum in enumerate(np.cumsum(np.asarray(k_schedule, dtype=float))):
        try:
            grids.append(transform(ShiftMap(g=g, K=float(k_sum)), seed, xs))
        except NumericalError as exc:
            raise type(exc)(f"orbit element {j + 1} (K={k_sum}): {exc}") from exc
    return grids


def is_fixed_point(shift: ShiftMap, seed, xs) -> FixedPointResult:
    """Whether the seed reproduces itself under the transformation at xs.

    Checks max |r(x)^2 f'(x) - r(f(x))^2| / max(1, r(f(x))^2) < 1e-10, the
    maximum taken over every map when the parameters are arrays. A sampled
    grid is passed as ``grid.as_interpolant(), grid.xs``.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    lo, hi = shift.effective_domain(seed.domain)
    inside = (xs > lo) & (xs < hi)
    # with array parameters a point stays only where every map keeps it, so
    # the batch stays rectangular
    kept = xs[inside.reshape((-1,) + xs.shape).all(axis=0)]
    if kept.size == 0:
        raise DomainEscape(
            f"no evaluation points inside the valid interval "
            f"({np.max(lo):.6g}, {np.min(hi):.6g})")
    f = shift.f(kept)
    fp = shift.f_prime(kept, f)
    r_here = seed.eval_with_derivative(kept)[0]
    r_there = seed.eval_with_derivative(f)[0]
    target = r_there * r_there
    dev = np.abs(r_here * r_here * fp - target) / np.maximum(1.0, target)
    deviation = float(np.max(dev))
    return FixedPointResult(is_fixed=deviation < _FIXED_POINT_TOL,
                            deviation=deviation)
