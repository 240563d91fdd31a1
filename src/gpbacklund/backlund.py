"""Auto-Backlund transformation driven by the translation maps of
``functional``: r1(x) = r0(f(x)) / sqrt(f'(x)) maps solutions of the reduced
amplitude equation to new solutions of the same equation.

Seeds are any objects exposing ``domain`` and ``eval_with_derivative(xs)``:
seeds integrated in t = G(x) (``gp.LiouvilleSolution``) and closed-form
solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainEscape, NegativeJacobian, NonFinite, NumericalError
from .functional import PolyG, ShiftMap, _half_density
from .ode import SolutionGrid

_FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class FixedPointResult:
    is_fixed: bool
    deviation: float

    def __bool__(self) -> bool:
        return self.is_fixed


@dataclass(kw_only=True)
class TransformedGrid(SolutionGrid):
    """A transform's grid, with the f'(x) and the seed's r0(f(x)) it was
    built from at each of its points: a fixed-point check of the element
    reads them here rather than solving f and reading the seed again."""

    f_prime: np.ndarray
    r0_f: np.ndarray


def _pull_back(shift: ShiftMap, seed, xs, least: int = 1):
    """(kept, f, f'): the points of xs that f maps into the seed's domain
    [lo, hi], closed since every seed evaluates its own ends, with f and f'
    there. f is solved where x > 0 and G(x) + K > 0. With array parameters
    a point stays only where every map keeps it, so the batch stays
    rectangular. Raises DomainEscape when fewer than ``least`` are kept.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    lo, hi = seed.domain

    def common(mask):  # the points every map keeps
        return mask.all(axis=tuple(range(mask.ndim - 1)))

    solvable = xs[common((xs > 0.0) & (shift.g._value(xs) + shift.K > 0.0))]
    f = shift.f(solvable)
    inside = common((f >= lo) & (f <= hi))
    # compress keeps f C-contiguous, where f[..., inside] would not
    kept, f = solvable[inside], np.compress(inside, f, axis=-1)
    if kept.size < least:
        raise DomainEscape(f"no usable points: f maps the request outside "
                           f"the seed's domain [{lo:.6g}, {hi:.6g}]")
    return kept, f, shift.f_prime(kept, f)


def transform(shift: ShiftMap, seed, xs) -> TransformedGrid:
    """Apply the transformation to a seed solution at the points xs.

    Points where f exits the seed's domain are trimmed; the grid metadata
    records the kept interval and the trimmed count. The positive
    square-root branch is always taken; r1' follows from the closed-form
    chain rule so transformed grids stay usable as integration restarts.
    Raises NonFinite where r1 or r1' is not finite, as where the seed is.
    """
    kept, f, fp = _pull_back(shift, seed, xs, least=2)
    if (fp <= 0.0).any():
        raise NegativeJacobian("f'(x) <= 0 on the transform domain")
    f2 = shift.f_second(kept, f, fp)

    r0, r0p = seed.eval_with_derivative(f)
    r1, r1p = _half_density(r0, r0p, fp, f2)
    if not (np.isfinite(r1).all() and np.isfinite(r1p).all()):
        raise NonFinite("r1 or r1' is not finite on the kept points: the "
                        "seed or f's derivatives are not finite there")

    meta = {
        "kind": "transformed",
        "K": shift.K,
        "n": shift.g.n,
        "eta": shift.g.eta,
        "interval": (float(kept[0]), float(kept[-1])),
        "trimmed": np.size(xs) - kept.size,
        "seed": dict(getattr(seed, "meta", {}) or {}),
    }
    return TransformedGrid(xs=kept, rs=r1, rps=r1p, meta=meta, f_prime=fp,
                           r0_f=r0)


def orbit(g: PolyG, k_schedule: Sequence[float], seed,
          xs) -> list[TransformedGrid]:
    """Iterated transforms for a schedule of translation constants.

    Translations of G compose additively, so the j-th element is computed
    directly from the seed with K equal to the j-th partial sum rather than
    by chaining interpolated grids.
    """
    grids: list[TransformedGrid] = []
    for j, k_sum in enumerate(np.cumsum(np.asarray(k_schedule, dtype=float))):
        try:
            grids.append(transform(ShiftMap(g=g, K=float(k_sum)), seed, xs))
        except NumericalError as exc:
            raise type(exc)(f"orbit element {j + 1} (K={k_sum}): {exc}") from exc
    return grids


def is_fixed_point(r0_x, r0_f, f_prime) -> FixedPointResult:
    """Whether a seed r0 reproduces itself under the transformation, from
    r0(x) at the kept points x, r0(f(x)) and f'(x), as ``_pull_back``
    keeps them and ``transform`` records them in its grid.

    Checks max |r0(x)^2 f'(x) - r0(f)^2| / max(1, r0(f)^2) < 1e-10 over
    the broadcast arrays, so over every map when the parameters are
    arrays. Raises NonFinite where a value is not finite.
    """
    target = r0_f * r0_f
    dev = np.abs(r0_x * r0_x * f_prime - target) / np.maximum(1.0, target)
    deviation = float(np.max(dev))
    if not math.isfinite(deviation):
        raise NonFinite("fixed-point deviation is not finite: the seed or "
                        "f' is not finite on the kept points")
    return FixedPointResult(is_fixed=deviation < _FIXED_POINT_TOL,
                            deviation=deviation)
