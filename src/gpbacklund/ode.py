"""Adaptive integration of r'' = rhs(x, r) with dense output, plus residual
evaluation of sampled solutions.

The integrator is an explicit embedded 5(4) pair on the first-order system
(r, r'). Dense output is a per-step quintic Hermite interpolant matching
(r, r', r'') at both step endpoints, which is what lets transformed
solutions be evaluated at arbitrary off-node points. Each solution keeps a
table of every step's polynomial coefficients in the local coordinate
s in [0, 1], built on its first evaluation; a query gathers its step's
column and evaluates r and r' in Horner form. A node gives back its stored
r and r' bit for bit, and r' carries no cancellation between the step's end
values, so it is accurate to about one eps of max|r'|.
"""

from __future__ import annotations

import functools
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
# attempted steps per integration, about 1 s on a 2-vCPU VM: about 200 times
# the most that any command on the shipped configs or the benchmark pools of
# seeds 1-3 needs (484, solving a wave seed; periodic seeds are integrated
# through one period only, see gp._folded)
_MAX_ATTEMPTS = 100_000
# iterates of stationary_points: Newton converges in about 5, and the
# bisection it falls back to halves the bracket 60 times, below one ulp
_ROOT_ITERATIONS = 60


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
    ``max_step`` bounds every step: where the solution is nearly
    constant the error estimate stays near zero while the step outgrows
    the pair's stability limit, and a perturbation then grows unseen.
    """

    rhs: Callable
    domain: tuple[float, float]
    max_step: float = math.inf

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not (0.0 < lo < hi):
            raise ValueError("domain must satisfy 0 < x_lo < x_hi")
        if not self.max_step > 0.0:
            raise ValueError("max_step must be positive")


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
    """Seed adapter: evaluates a SolutionGrid between its nodes, as the
    cubic Hermite of its (r, r') in the dense output's Horner form."""

    def __init__(self, grid: SolutionGrid) -> None:
        if len(grid) < 2:
            raise GridTooSmall("interpolation needs at least two samples")
        self.xs = grid.xs
        self.domain = grid.domain
        self.meta = dict(grid.meta)
        self._table = _coefficients(grid.xs, grid.rs, grid.rps)

    def eval_with_derivative(self, xs):
        return _evaluate(self.xs, self._table, np.asarray(xs, dtype=float))


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
    second derivatives at nodes equal rhs(x, r) there. The first evaluation
    builds the table of ``_coefficients``: with h the step, s = (x - x_i)/h
    and r = c0 + c1 s + ... + c5 s^5, c0 = r_i, c1 = h r'_i and
    c2 = h^2 r''_i / 2, and c3, c4, c5 fit r, r' and r'' at x_{i+1}. Every
    later evaluation gathers its steps' columns and evaluates r by Horner
    and r' as r'_i + s (2 c2 + s (3 c3 + s (4 c4 + 5 c5 s))) / h.
    """

    xs: np.ndarray
    rs: np.ndarray
    rps: np.ndarray
    rpps: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return _coefficients(self.xs, self.rs, self.rps, self.rpps)

    def evaluate(self, x):
        """(r, r') at x; scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        val, der = _evaluate(self.xs, self._table,
                             np.atleast_1d(np.asarray(x, dtype=float)))
        if scalar:
            return float(val[0]), float(der[0])
        return val, der

    def eval_with_derivative(self, xs):
        r, rp = self.evaluate(np.asarray(xs, dtype=float))
        return np.atleast_1d(r), np.atleast_1d(rp)


def _locate(nodes: np.ndarray, xq: np.ndarray):
    """Node index at or left of each query, and the query in that step.

    Points within a relative 1e-12 below the first node are clamped onto
    it; those within it above the last node find the last node's column,
    which is constant. A NaN raises NonFinite, naming the first one, ahead
    of OutOfRange for points further out.
    """
    lo, hi = float(nodes[0]), float(nodes[-1])
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    inside = (xq >= lo - slack) & (xq <= hi + slack)  # False at NaN
    if not inside.all():
        nan = np.isnan(xq)
        if nan.any():
            i = int(np.argmax(nan))
            raise NonFinite(f"query point {i} of {xq.size} is nan")
        raise OutOfRange(f"requested points outside [{lo}, {hi}]")
    xq = np.maximum(xq, lo)
    return np.searchsorted(nodes, xq, side="right") - 1, xq


def _coefficients(xs, rs, rps, rpps=None) -> np.ndarray:
    """Rows (h, c0, ..., c5, d0) of every step's polynomial in s in [0, 1].

    Column i holds step i from xs[i], of width h, as r = sum c_k s^k, and
    its first derivative d0 = r'(xs[i]). The quintic matches r, r' and
    r'' = rpps at both ends of the step; without rpps the cubic matches r
    and r' (c4 = c5 = 0). The last column is the last node as a constant
    (h = 1, every c_k but c0 zero), so every node is its own column.
    """
    table = np.zeros((8, xs.size))
    table[0, :-1] = h = np.diff(xs)
    table[0, -1] = 1.0
    table[1] = rs
    table[7] = rps
    y0, y1, d0, d1 = rs[:-1], rs[1:], rps[:-1], rps[1:]
    table[2, :-1] = c1 = h * d0
    if rpps is None:
        delta = y1 - y0 - c1
        dd = h * (d1 - d0)
        table[3, :-1] = 3.0 * delta - dd
        table[4, :-1] = dd - 2.0 * delta
        return table
    a0 = rpps[:-1]
    table[3, :-1] = c2 = h * h * a0 / 2.0
    delta = y1 - y0 - c1 - c2
    dd = h * (d1 - d0 - h * a0)
    aa = h * h * (rpps[1:] - a0)
    table[4, :-1] = 10.0 * delta - 4.0 * dd + aa / 2.0
    table[5, :-1] = -15.0 * delta + 7.0 * dd - aa
    table[6, :-1] = 6.0 * delta - 3.0 * dd + aa / 2.0
    return table


def _evaluate(nodes: np.ndarray, table: np.ndarray, xq: np.ndarray):
    """(r, r') at every query from the table of ``_coefficients``, in
    Horner form: a node gives back its own r and r' bit for bit."""
    idx, xq = _locate(nodes, xq)
    h, c0, c1, c2, c3, c4, c5, d0 = table.take(idx, axis=1)
    s = (xq - nodes[idx]) / h
    r = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * c5))))
    rp = d0 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + 5.0 * c5 * s))) \
        / h
    return r, rp


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

    An attempt whose rhs raises, or whose new state, last stage or error
    is not finite, is rejected. One test after the last stage serves every
    stage: a non-finite k_i reaches rp_{i+1} through a_{i+1,i} (a32, a43,
    a54, a65 are nonzero) and then r_new through b_{i+1} (b3-b6 are
    nonzero), or reaches rp_new directly for k6; a non-finite rp_i reaches
    r_new through b_i for i >= 3, and the stage amplitude r_i (and, through
    r3, rp2) reaches the test through k_i = rhs(x_i, r_i). So an rhs that
    is not finite where its amplitude is not, as every rhs of this package,
    rejects exactly the attempts a test after each stage rejected.
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

    h_max = ode.max_step
    h = direction * min(0.01 * span, h_max)
    attempts = 0
    while (x_end - x) * direction > 0.0:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise StepBudgetExhausted(
                f"{_MAX_ATTEMPTS} attempted steps reached only x={x:.6g} "
                f"of x_end={x_end:.6g}", at=x)
        last = (x + h - x_end) * direction >= 0.0
        if last:
            h = x_end - x
        if abs(h) < _UNDERFLOW_SCALE * max(1.0, abs(x)) or x + h == x:
            raise StepSizeUnderflow(
                f"step {h:.3e} underflowed at x={x:.6g}", at=x)

        # One attempt from (x, r, rp), where rhs is k1. Every sum starts at
        # 0.0, adds left to right and skips the zero weights: that order
        # fixes the rounding, and tests/test_ode.py pins it against a
        # generic tableau loop.
        try:
            r2 = r + h * (0.0 + a21 * rp)
            rp2 = rp + h * (0.0 + a21 * k1)
            k2 = float(rhs(x + c2 * h, r2))
            r3 = r + h * (0.0 + a31 * rp + a32 * rp2)
            rp3 = rp + h * (0.0 + a31 * k1 + a32 * k2)
            k3 = float(rhs(x + c3 * h, r3))
            r4 = r + h * (0.0 + a41 * rp + a42 * rp2 + a43 * rp3)
            rp4 = rp + h * (0.0 + a41 * k1 + a42 * k2 + a43 * k3)
            k4 = float(rhs(x + c4 * h, r4))
            r5 = r + h * (0.0 + a51 * rp + a52 * rp2 + a53 * rp3 + a54 * rp4)
            rp5 = rp + h * (0.0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
            k5 = float(rhs(x + c5 * h, r5))
            r6 = r + h * (0.0 + a61 * rp + a62 * rp2 + a63 * rp3 + a64 * rp4
                          + a65 * rp5)
            rp6 = rp + h * (0.0 + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4
                            + a65 * k5)
            k6 = float(rhs(x + h, r6))
            r_new = r + h * (0.0 + b1 * rp + b3 * rp3 + b4 * rp4 + b5 * rp5
                             + b6 * rp6)
            rp_new = rp + h * (0.0 + b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5
                               + b6 * k6)
            k7 = float(rhs(x + h, r_new))
        except _RHS_ERRORS:
            err = inf
        else:
            er = 0.0 + e1 * rp + e3 * rp3 + e4 * rp4 + e5 * rp5 + e6 * rp6 \
                + e7 * rp_new
            erp = 0.0 + e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 \
                + e7 * k7
            q1 = h * er / (atol + rtol * max(abs(r), abs(r_new)))
            q2 = h * erp / (atol + rtol * max(abs(rp), abs(rp_new)))
            err = math.sqrt(0.5 * (q1 * q1 + q2 * q2))
            if not (isfinite(r_new) and isfinite(rp_new) and isfinite(k7)
                    and isfinite(err)):
                err = inf

        if err <= 1.0:
            x = x_end if last else x + h
            # FSAL: k7 is rhs at the new point, the next step's k1
            r, rp, k1 = r_new, rp_new, k7
            if r < _AMPLITUDE_FLOOR:
                raise AmplitudeCollapse(
                    f"amplitude {r:.3e} fell below floor {_AMPLITUDE_FLOOR} "
                    f"at x={x:.6g}", at=x)
            if abs(r) > _BLOWUP_LIMIT or abs(rp) > _BLOWUP_LIMIT:
                raise BlowUp(
                    f"state exceeded {_BLOWUP_LIMIT:.1e} at x={x:.6g}", at=x)
            nodes_x.append(x)
            nodes_r.append(r)
            nodes_rp.append(rp)
            nodes_rpp.append(k1)

        # the step factor 0.9 err^(-1/5), clamped to [0.2, 5]
        factor = 0.9 * err ** -0.2 if err else 5.0
        if factor > 5.0:
            factor = 5.0
        elif factor < 0.2:
            factor = 0.2
        h *= factor
        if abs(h) > h_max:
            h = direction * h_max

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
    return parts[0] if len(parts) == 1 else joined(*parts)


def joined(left: DenseSolution, right: DenseSolution) -> DenseSolution:
    """One dense solution from two that share the node left.xs[-1] ==
    right.xs[0], with right's meta and the steps of both."""
    meta = dict(right.meta)
    meta["steps"] = (left.xs.size - 1) + (right.xs.size - 1)
    return DenseSolution(
        xs=np.concatenate([left.xs[:-1], right.xs]),
        rs=np.concatenate([left.rs[:-1], right.rs]),
        rps=np.concatenate([left.rps[:-1], right.rps]),
        rpps=np.concatenate([left.rpps[:-1], right.rpps]),
        meta=meta,
    )


def stationary_points(dense: DenseSolution) -> np.ndarray:
    """Every x, in increasing order, where r' = 0 inside a step whose end
    values of r' differ in sign (r' > 0 at one end only).

    Each root is found by Newton's method on the step's polynomial
    h r'(s) = c1 + s (2 c2 + s (3 c3 + s (4 c4 + 5 c5 s))) in s, inside the
    bracket [0, 1] that shrinks with every iterate: an iterate that leaves
    it is replaced by the bracket's midpoint, so no root leaves its step.
    """
    rps = dense.rps
    steps = np.flatnonzero((rps[:-1] > 0.0) != (rps[1:] > 0.0))
    h, _, c1, c2, c3, c4, c5, _ = dense._table[:, steps]
    rising = ~(rps[steps] > 0.0)
    lo, hi = np.zeros(steps.size), np.ones(steps.size)
    s = np.full(steps.size, 0.5)
    for _ in range(_ROOT_ITERATIONS):
        f = c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4
                                                      + 5.0 * c5 * s)))
        df = 2.0 * c2 + s * (6.0 * c3 + s * (12.0 * c4 + 20.0 * c5 * s))
        left = (f < 0.0) == rising  # the root lies above s
        lo, hi = np.where(left, s, lo), np.where(left, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = s - f / df
        nxt = np.where(f == 0.0, s, np.where((newton > lo) & (newton < hi),
                                             newton, 0.5 * (lo + hi)))
        if np.array_equal(nxt, s):
            break
        s = nxt
    return dense.xs[steps] + s * h


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
