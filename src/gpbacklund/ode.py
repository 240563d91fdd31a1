"""Adaptive integration of r'' = rhs(x, r) with dense output, plus residual
evaluation of sampled solutions.

The integrator is an explicit embedded 5(4) pair on the first-order system
(r, r'). Dense output is a per-step quintic Hermite interpolant matching
(r, r', r'') at both step endpoints, which is what lets transformed
solutions be evaluated at arbitrary off-node points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (AmplitudeCollapse, BlowUp, GridTooSmall, NonFinite,
                     OutOfRange, StepBudgetExhausted, StepSizeUnderflow)
from .calculus import fd_weights

_BLOWUP_LIMIT = 1e12
_UNDERFLOW_SCALE = 1e-14
_AMPLITUDE_FLOOR = 1e-6
# attempted steps per integration: about 20 times the most that any shipped
# config or benchmark pool needs (4,866), about 1 s on a 2-vCPU VM
_MAX_ATTEMPTS = 100_000


@dataclass(frozen=True)
class ToleranceSpec:
    """Mixed local error criterion err <= atol + rtol * |state|."""

    atol: float = 1e-10
    rtol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.atol > 0.0 and self.rtol > 0.0):
            raise ValueError("tolerances must be strictly positive")


@dataclass(frozen=True)
class SecondOrderODE:
    """r'' = rhs(x, r) on an open interval with positive left endpoint.

    ``rhs`` is a numpy callable: arrays xs, rs give an array of their shape.
    """

    rhs: Callable
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (0.0 < lo < hi):
            raise ValueError("domain must satisfy 0 < x_lo < x_hi")


@dataclass
class SolutionGrid:
    """Sampled amplitude solution {(x_i, r_i, r'_i)} with provenance metadata."""

    xs: np.ndarray
    rs: np.ndarray
    rps: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.rs = np.asarray(self.rs, dtype=float)
        self.rps = np.asarray(self.rps, dtype=float)
        if not (self.xs.shape == self.rs.shape == self.rps.shape):
            raise ValueError("xs, rs, rps must have equal length")
        if self.xs.size > 1 and not np.all(np.diff(self.xs) > 0.0):
            raise ValueError("xs must be strictly increasing")
        if np.any(self.rs <= 0.0):
            raise ValueError("amplitude samples must be positive")

    def __len__(self) -> int:
        return int(self.xs.size)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    def as_interpolant(self) -> "_HermiteGrid":
        """Cubic Hermite view of the grid, for use as a transform seed."""
        return _HermiteGrid(self)


class _HermiteGrid:
    """Seed adapter: evaluates a SolutionGrid between its nodes."""

    def __init__(self, grid: SolutionGrid) -> None:
        if len(grid) < 2:
            raise GridTooSmall("interpolation needs at least two samples")
        self.xs, self.rs, self.rps = grid.xs, grid.rs, grid.rps
        self.domain = grid.domain
        self.meta = dict(grid.meta)

    def eval_with_derivative(self, xs):
        idx, h, s = _locate(self.xs, np.asarray(xs, dtype=float))
        return _hermite3(s, h, self.rs[idx], self.rps[idx],
                         self.rs[idx + 1], self.rps[idx + 1])


# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# difference between 5th and embedded 4th order weights
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


@dataclass(frozen=True)
class DenseSolution:
    """Piecewise quintic Hermite interpolant produced by ``integrate``.

    Continuous with continuous first derivative across segment boundaries;
    second derivatives at nodes equal rhs(x, r) there.
    """

    xs: np.ndarray
    rs: np.ndarray
    rps: np.ndarray
    rpps: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    def evaluate(self, x):
        """(r, r') at x; scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        idx, h, s = _locate(self.xs, np.atleast_1d(np.asarray(x, dtype=float)))
        val, der = _hermite5(
            s, h,
            self.rs[idx], self.rps[idx], self.rpps[idx],
            self.rs[idx + 1], self.rps[idx + 1], self.rpps[idx + 1],
        )
        if scalar:
            return float(val[0]), float(der[0])
        return val, der

    def eval_with_derivative(self, xs):
        r, rp = self.evaluate(np.asarray(xs, dtype=float))
        return np.atleast_1d(r), np.atleast_1d(rp)


def _locate(nodes: np.ndarray, xq: np.ndarray):
    """Segment index, width and local coordinate in [0, 1] of each query.

    Points within a relative 1e-12 of the ends are clamped onto them;
    points further out raise OutOfRange.
    """
    lo, hi = float(nodes[0]), float(nodes[-1])
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    if np.any(xq < lo - slack) or np.any(xq > hi + slack):
        raise OutOfRange(f"requested points outside [{lo}, {hi}]")
    xq = np.clip(xq, lo, hi)
    idx = np.clip(np.searchsorted(nodes, xq, side="right") - 1,
                  0, nodes.size - 2)
    h = nodes[idx + 1] - nodes[idx]
    return idx, h, (xq - nodes[idx]) / h


def _hermite3(s, h, y0, d0, y1, d1):
    """Cubic Hermite basis matching value and first derivative at both ends."""
    s2 = s * s
    s3 = s2 * s
    val = ((1.0 - 3.0 * s2 + 2.0 * s3) * y0 + (s - 2.0 * s2 + s3) * h * d0
           + (3.0 * s2 - 2.0 * s3) * y1 + (s3 - s2) * h * d1)
    der = (6.0 * (s2 - s) * (y0 - y1) / h + (1.0 - 4.0 * s + 3.0 * s2) * d0
           + (3.0 * s2 - 2.0 * s) * d1)
    return val, der


def _hermite5(s, h, y0, d0, a0, y1, d1, a1):
    """Quintic Hermite basis matching value/1st/2nd derivative at both ends."""
    s2 = s * s
    s3 = s2 * s
    s4 = s3 * s
    s5 = s4 * s
    h00 = 1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5
    h10 = s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5
    h20 = 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5
    h01 = 10.0 * s3 - 15.0 * s4 + 6.0 * s5
    h11 = -4.0 * s3 + 7.0 * s4 - 3.0 * s5
    h21 = 0.5 * s3 - s4 + 0.5 * s5
    val = (h00 * y0 + h10 * h * d0 + h20 * h * h * a0
           + h01 * y1 + h11 * h * d1 + h21 * h * h * a1)
    g00 = -30.0 * s2 + 60.0 * s3 - 30.0 * s4
    g10 = 1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4
    g20 = s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4
    g01 = 30.0 * s2 - 60.0 * s3 + 30.0 * s4
    g11 = -12.0 * s2 + 28.0 * s3 - 15.0 * s4
    g21 = 1.5 * s2 - 4.0 * s3 + 2.5 * s4
    der = (g00 * y0 + g01 * y1) / h + (g10 * d0 + g11 * d1) \
        + (g20 * h * a0 + g21 * h * a1)
    return val, der


_RHS_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


def integrate(ode: SecondOrderODE, x0: float, r0: float, rp0: float,
              x_end: float,
              tol: ToleranceSpec = ToleranceSpec()) -> DenseSolution:
    """Integrate r'' = rhs(x, r) from (x0, r0, rp0) to x_end.

    Local error per step is controlled by err <= atol + rtol * |state| using
    the embedded 4th-order estimate; either direction of integration is
    supported. Raises StepSizeUnderflow, BlowUp, AmplitudeCollapse (the
    amplitude falls below 1e-6) or StepBudgetExhausted (more than
    _MAX_ATTEMPTS attempted steps) on the corresponding failure modes. The
    pair is FSAL: the last stage of an accepted step is the first stage of
    the next one, so each attempted step makes 6 rhs calls.
    """
    lo, hi = ode.domain
    if not (lo < x0 < hi and lo < x_end < hi):
        raise OutOfRange("x0 and x_end must lie strictly inside ode.domain")
    if x_end == x0:
        raise ValueError("x_end must differ from x0")
    if not r0 > 0.0:
        raise ValueError("r0 must be positive")
    if r0 < _AMPLITUDE_FLOOR:
        raise AmplitudeCollapse(f"initial amplitude below floor {_AMPLITUDE_FLOOR}")

    rhs = ode.rhs
    atol, rtol = tol.atol, tol.rtol
    isfinite, inf = math.isfinite, math.inf
    _, c2, c3, c4, c5, _, _ = _C  # c6 = c7 = 1: those stages sit at x + h
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _A[1:6]
    # row 7 of A equals the 5th-order weights, so stage 7 is the new state
    b1, _, b3, b4, b5, b6, _ = _B5
    e1, _, e3, e4, e5, e6, e7 = _E

    def attempt(x, r, rp, k1, h):
        """One step of size h from (x, r, rp), where rhs is k1.

        Returns (err, r_new, rp_new, k7), k7 being rhs at the new point.
        err is inf where a stage is non-finite or rhs raised. Every sum
        starts at 0.0, adds left to right and skips the zero weights: that
        order fixes the rounding, and tests/test_ode.py pins it against a
        generic tableau loop.
        """
        r2 = r + h * (0.0 + a21 * rp)
        rp2 = rp + h * (0.0 + a21 * k1)
        try:
            k2 = float(rhs(x + c2 * h, r2))
        except _RHS_ERRORS:
            k2 = inf
        if not (isfinite(r2) and isfinite(rp2) and isfinite(k2)):
            return inf, r, rp, k1

        r3 = r + h * (0.0 + a31 * rp + a32 * rp2)
        rp3 = rp + h * (0.0 + a31 * k1 + a32 * k2)
        try:
            k3 = float(rhs(x + c3 * h, r3))
        except _RHS_ERRORS:
            k3 = inf
        if not (isfinite(r3) and isfinite(rp3) and isfinite(k3)):
            return inf, r, rp, k1

        r4 = r + h * (0.0 + a41 * rp + a42 * rp2 + a43 * rp3)
        rp4 = rp + h * (0.0 + a41 * k1 + a42 * k2 + a43 * k3)
        try:
            k4 = float(rhs(x + c4 * h, r4))
        except _RHS_ERRORS:
            k4 = inf
        if not (isfinite(r4) and isfinite(rp4) and isfinite(k4)):
            return inf, r, rp, k1

        r5 = r + h * (0.0 + a51 * rp + a52 * rp2 + a53 * rp3 + a54 * rp4)
        rp5 = rp + h * (0.0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
        try:
            k5 = float(rhs(x + c5 * h, r5))
        except _RHS_ERRORS:
            k5 = inf
        if not (isfinite(r5) and isfinite(rp5) and isfinite(k5)):
            return inf, r, rp, k1

        r6 = r + h * (0.0 + a61 * rp + a62 * rp2 + a63 * rp3 + a64 * rp4
                      + a65 * rp5)
        rp6 = rp + h * (0.0 + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                        + a65 * k5)
        try:
            k6 = float(rhs(x + h, r6))
        except _RHS_ERRORS:
            k6 = inf
        if not (isfinite(r6) and isfinite(rp6) and isfinite(k6)):
            return inf, r, rp, k1

        r_new = r + h * (0.0 + b1 * rp + b3 * rp3 + b4 * rp4 + b5 * rp5
                         + b6 * rp6)
        rp_new = rp + h * (0.0 + b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5
                           + b6 * k6)
        try:
            k7 = float(rhs(x + h, r_new))
        except _RHS_ERRORS:
            k7 = inf
        if not (isfinite(r_new) and isfinite(rp_new) and isfinite(k7)):
            return inf, r, rp, k1

        er = 0.0 + e1 * rp + e3 * rp3 + e4 * rp4 + e5 * rp5 + e6 * rp6 \
            + e7 * rp_new
        erp = 0.0 + e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7
        sc_r = atol + rtol * max(abs(r), abs(r_new))
        sc_rp = atol + rtol * max(abs(rp), abs(rp_new))
        q1 = h * er / sc_r
        q2 = h * erp / sc_rp
        err = math.sqrt(0.5 * (q1 * q1 + q2 * q2))
        if not isfinite(err):
            err = inf
        return err, r_new, rp_new, k7

    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    x, r, rp = float(x0), float(r0), float(rp0)
    try:
        k1 = float(rhs(x, r))
    except _RHS_ERRORS:
        k1 = inf
    if not isfinite(k1):
        raise NonFinite(f"rhs non-finite at the initial point x={x0}")

    nodes_x = [x]
    nodes_r = [r]
    nodes_rp = [rp]
    nodes_rpp = [k1]

    h = direction * min(0.01 * span, span)
    attempts = 0
    while (x_end - x) * direction > 0.0:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise StepBudgetExhausted(
                f"{_MAX_ATTEMPTS} attempted steps reached only x={x:.6g} "
                f"of x_end={x_end:.6g}")
        last = (x + h - x_end) * direction >= 0.0
        if last:
            h = x_end - x
        if abs(h) < _UNDERFLOW_SCALE * max(1.0, abs(x)) or x + h == x:
            raise StepSizeUnderflow(
                f"step {h:.3e} underflowed at x={x:.6g}")

        err, r_new, rp_new, k7 = attempt(x, r, rp, k1, h)
        if err <= 1.0:
            x = x_end if last else x + h
            # FSAL: k7 is rhs at the new point, the next step's k1
            r, rp, k1 = r_new, rp_new, k7
            if r < _AMPLITUDE_FLOOR:
                raise AmplitudeCollapse(
                    f"amplitude {r:.3e} fell below floor {_AMPLITUDE_FLOOR} "
                    f"at x={x:.6g}")
            if abs(r) > _BLOWUP_LIMIT or abs(rp) > _BLOWUP_LIMIT:
                raise BlowUp(f"state exceeded {_BLOWUP_LIMIT:.1e} at x={x:.6g}")
            nodes_x.append(x)
            nodes_r.append(r)
            nodes_rp.append(rp)
            nodes_rpp.append(k1)

        if err == 0.0:
            factor = 5.0
        else:
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor

    xs = np.array(nodes_x)
    rs = np.array(nodes_r)
    rps = np.array(nodes_rp)
    rpps = np.array(nodes_rpp)
    if direction < 0.0:
        xs, rs, rps, rpps = xs[::-1], rs[::-1], rps[::-1], rpps[::-1]
    meta = {"kind": "integrated", "x0": x0, "r0": r0, "rp0": rp0,
            "atol": tol.atol, "rtol": tol.rtol, "steps": xs.size - 1}
    return DenseSolution(xs=xs, rs=rs, rps=rps, rpps=rpps, meta=meta)


def integrate_span(ode: SecondOrderODE, x0: float, r0: float, rp0: float,
                   x_lo: float, x_hi: float,
                   tol: ToleranceSpec = ToleranceSpec()) -> DenseSolution:
    """Dense solution covering [x_lo, x_hi] from initial data at interior x0."""
    if not (x_lo <= x0 <= x_hi):
        raise ValueError("x0 must lie inside [x_lo, x_hi]")
    parts = []
    if x0 > x_lo:
        parts.append(integrate(ode, x0, r0, rp0, x_lo, tol))
    if x0 < x_hi:
        parts.append(integrate(ode, x0, r0, rp0, x_hi, tol))
    if len(parts) == 1:
        return parts[0]
    left, right = parts
    meta = dict(right.meta)
    meta["steps"] = (left.xs.size - 1) + (right.xs.size - 1)
    return DenseSolution(
        xs=np.concatenate([left.xs[:-1], right.xs]),
        rs=np.concatenate([left.rs[:-1], right.rs]),
        rps=np.concatenate([left.rps[:-1], right.rps]),
        rpps=np.concatenate([left.rpps[:-1], right.rpps]),
        meta=meta,
    )


def sample(dense: DenseSolution, xs) -> SolutionGrid:
    """Sample a dense solution at the given points."""
    xs = np.asarray(xs, dtype=float)
    rs, rps = dense.eval_with_derivative(xs)
    return SolutionGrid(xs=xs, rs=rs, rps=rps, meta=dict(dense.meta))


def residual(ode: SecondOrderODE, grid: SolutionGrid) -> np.ndarray:
    """Per-point residual r''_FD(x_i) - rhs(x_i, r_i) on a uniform grid.

    Interior points use the 4th-order 5-point central second difference;
    the two points adjacent to each boundary use one-sided 4th-order
    stencils. Non-uniform grids are resampled through a cubic Hermite
    interpolant first.
    """
    n = len(grid)
    if n < 7:
        raise GridTooSmall(f"residual needs at least 7 points, got {n}")
    xs, rs = grid.xs, grid.rs
    h = (xs[-1] - xs[0]) / (n - 1)
    if np.max(np.abs(np.diff(xs) - h)) > 1e-8 * h:
        interp = grid.as_interpolant()
        xu = np.linspace(xs[0], xs[-1], n)
        ru, rpu = interp.eval_with_derivative(xu)
        grid = SolutionGrid(xs=xu, rs=ru, rps=rpu,
                            meta={**grid.meta, "resampled": True})
        xs, rs = grid.xs, grid.rs
    if not np.all(np.isfinite(rs)):
        raise NonFinite("grid contains non-finite amplitudes")

    d2 = np.empty(n)
    # interior: (-1, 16, -30, 16, -1) / 12h^2
    d2[2:-2] = (-rs[:-4] + 16.0 * rs[1:-3] - 30.0 * rs[2:-2]
                + 16.0 * rs[3:-1] - rs[4:]) / (12.0 * h * h)
    w_edge = fd_weights(tuple(range(6)), 2)
    w_near = fd_weights(tuple(range(-1, 5)), 2)
    # mirrored one-sided stencils reuse the same weights: the second
    # derivative is even under direction reversal
    d2[0] = w_edge @ rs[0:6] / (h * h)
    d2[1] = w_near @ rs[0:6] / (h * h)
    d2[-1] = w_edge @ rs[-1:-7:-1] / (h * h)
    d2[-2] = w_near @ rs[-1:-7:-1] / (h * h)

    vals = np.broadcast_to(ode.rhs(xs, rs), xs.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("rhs returned non-finite values on the grid")
    return d2 - vals


def residual_max(ode: SecondOrderODE, grid: SolutionGrid) -> float:
    """Max-abs residual over interior points (one-sided stencils excluded)."""
    res = residual(ode, grid)
    return float(np.max(np.abs(res[2:-2])))
