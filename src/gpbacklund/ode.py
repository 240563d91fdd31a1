"""Adaptive integration of r'' = rhs(x, r) with dense output, plus residual
evaluation of sampled solutions.

The integrator is Hairer's DOP853, of order 8 with error estimators of
orders 5 and 3, in Nystrom form (see _A2): no rhs depends on r', so each
stage computes only its amplitude. Dense output is a per-step septic
matching (r, r', r'') at both step endpoints and DOP853's continuous r' at
one and two thirds of the step, which is what lets transformed solutions be
evaluated at arbitrary off-node points with r'' continuous. Each solution
keeps a table of every step's polynomial coefficients in the local
coordinate s in [0, 1], built on its first evaluation; a query gathers its
step's column and evaluates r and r' in Horner form. A node gives back its
stored r and r' bit for bit, and r' carries no cancellation between the
step's end values, so it is accurate to a few eps of max|r'|.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (AmplitudeCollapse, BlowUp, GridTooSmall, NonFinite,
                     OutOfRange, StepBudgetExhausted, StepSizeUnderflow)
from .calculus import fd_weights

_BLOWUP_LIMIT = 1e12
_UNDERFLOW_SCALE = 1e-14
# 100 times _UNDERFLOW_SCALE: integrate's first step, a hundredth of its
# span, underflows on a span narrower than this relative to its start, and
# _locate's slack, this relative to the nodes, reads such a span from them
_SLIVER = 1e-12
_AMPLITUDE_FLOOR = 1e-6
# attempted steps per integration, about 1.5 s on a 2-vCPU VM: about 1,500
# times the most that any command on the shipped configs or the benchmark
# pools of seeds 1-3 needs (66, a wave-pool wavefunction; a folded seed
# integrates about one period). Nor is a seed folded over more periods than
# this: its t may then be coarser than a period, as at x = 1e100 with n = 1
# (t = 1e200).
_MAX_ATTEMPTS = 100_000
# halvings of a turning point's search (_turning_point): 2^-64 of a step is
# below any t the reads resolve
_ROOT_ITERATIONS = 64


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


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6) in Nystrom
# form (II.14), derived in exact rationals from the 30-digit decimals of its
# published tableau A, b, c, error weights E5, E3 and dense weights (the
# derivation and its checks are in tests/test_ode.py). No rhs depends on r',
# so stage i computes only its amplitude r_i = r + h (c_i r' + h _A2_i . k),
# _A2 the rows of A^2; the new r is r + h (r' + h bA . k), the new r' is
# r' + h b . k, and stage 13, rhs at the new point, is the next step's k1
# (FSAL). The errors of the 5th and 3rd order estimates are h^2 EA . k in r
# and h E . k in r'. Weights on k12 of bA and EA, and those below 1e-25 (the
# decimals' own rounding: bA and the dense rows on k4 and k5), are zero.
# _C_DENSE and _A2_DENSE are the three stages the continuous extension adds;
# r' + h _W[j] . k over all 16 stages is its r' at j + 1 thirds of the step.
_C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A2 = (
    (),
    (0.003112622984346139,),
    (0.0017508504286947032, 0.00525255128608411),
    (0.009915816237971964, -0.05234336665618131, 0.0820908153700972),
    (0.035337931304886355, 0.0, -0.09581915952175495, 0.11603678377242416),
    (0.018920483189113914, 0.0, -0.03815245266364541, 0.05268745617004205,
     -0.0022054866955105506),
    (0.03067021189623757, 0.0, -0.07975482628537983, 0.09799120567724122,
     -0.0014238754814449106, -0.00014543770014516837),
    (-0.15229089727622042, 0.0, 0.46966087733519885, -0.0681414047027942,
     0.010711857531715373, 0.3119698547460421, -0.3598261324728635),
    (-0.11020716722377502, 0.0, 0.30128953154727944, 0.07865735349516378,
     0.030838873981239478, -0.319604147551303, -0.6851760518136165,
     0.8842016075650119),
    (0.3721894995071434, 0.0, -0.5050736261155677, -0.46149874648558276,
     -0.06518509348541916, 4.09803840386656, 3.8922102844072395,
     -7.025278165955343, 0.06194438303648046),
    (-0.7650750098382328, 0.0, 0.8347994820739503, 1.755944144193115,
     0.23253698859550603, 11.90371935788187, -1.9034949405460306,
     -10.951226401858388, 1.3530625395360725, -1.960266160037863))
_BA = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 2.9668752618349394,
       1.4186384244858752, -4.016218126161174, 0.10850859975965002,
       -0.06086437986500643, 0.028766485829147193, 0.0)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.42268232132379197,
       -0.1521609496625161, 0.20136540080403034, 0.022651792198360825)
_E5A = (-0.18865188001798797, 0.0, 0.0, 0.9962151331241325,
        0.23599761577747436, -2.854630682350911, -4.0828088279337065,
        6.038341535948958, 0.39584534789657555, -0.5259249995299615,
        -0.014383242914573597, 0.0)
_E3A = (-0.4538545734291735, 0.0, 0.0, 2.6987585022618616, 0.6812767760191379,
        -16.885342816594818, -13.987876814514605, 27.96175549233409,
        0.3042333850581198, -0.3335239499192925, 0.01457399878468182, 0.0)
_C_DENSE = (0.1, 0.2, 0.7777777777777778)
_A2_DENSE = (
    (0.005054351963776225, 0.0, 0.0, 0.0, 0.0, -0.41267006753617186,
     -0.11888400830261149, 0.511250400071805, -0.05239733207549386,
     0.06981946420649213, 0.0031982003615129264, -0.000371008689309057),
    (0.009887781381457055, 0.0, 0.0, 0.0, 0.0, -0.007602503134799441,
     0.04742334588757416, -0.03637906592918709, -0.021320408140087014,
     0.026772748548590856, 0.0013364963323445063, 0.001054215711719072,
     -0.0011726106576121006),
    (0.3588663399722558, 0.0, 0.0, 0.0, 0.0, 9.38025080291835,
     7.477758624830405, -15.729096304440624, -0.3664913832247408,
     0.4520427193280568, 0.024882489771726926, 0.018743046880517162,
     -0.02134289656466091, -1.293144303668819))
_W = (
    (0.04295351379222605, 0.0, 0.0, 0.0, 0.0, 0.35863051192211676,
     0.13523089459445722, -0.45126334898237985, 0.03586961900621823,
     -0.016689059835650694, 0.027735275791469775, 0.006855146960161763,
     -0.009810230786267476, 0.07539818311437198, 0.1740036869909761,
     -0.04558085923436653),
    (0.0726792318790874, 0.0, 0.0, 0.0, 0.0, 5.925556524933406,
     2.918381135285603, -8.101577933629422, 0.16335323362124696,
     -0.0996741942760901, 0.0005601101760715245, -0.016077671136253253,
     0.015261977564743604, -0.08483139358011368, -0.12326351480295382,
     -0.003700839368659162))
# The dense output's c3..c7 from (delta, dd, aa, e1, e2): the inverse of the
# rational 5 x 5 matrix of its conditions on s^3..s^7, with e_j, what the
# quintic Hermite through (delta, dd, aa) leaves of p_j, in place of p_j (see
# _coefficients). Its first three columns are that quintic's; its last two
# add the bubble s^3 (1 - s)^3 (alpha + beta s).
_SEPTIC = np.array(((10.0, -4.0, 0.5, -81.0, -101.25),
                    (-15.0, 7.0, -1.0, 425.25, 486.0),
                    (6.0, -3.0, 0.5, -789.75, -850.5),
                    (0.0, 0.0, 0.0, 627.75, 648.0),
                    (0.0, 0.0, 0.0, -182.25, -182.25)))
# h r' - c1 - 2 c2 s of that quintic at s = 1/3 and 2/3, times 81, over
# (delta, dd, aa)
_QUINTIC_THIRDS = np.array(((120.0, -39.0, 4.0), (120.0, 0.0, -2.0)))


@dataclass(frozen=True)
class DenseSolution:
    """Piecewise septic interpolant produced by ``integrate``.

    r, r' and r'' are continuous across segment boundaries, and r'' at a
    node equals rhs(x, r) there. ``thirds`` holds, for each step, r' at one
    and at two thirds of it, less r' at its left node, from DOP853's
    continuous extension. The first evaluation builds the table of
    ``_coefficients``: with h the step, s = (x - x_i)/h and
    r = c0 + c1 s + ... + c7 s^7, c0 = r_i, c1 = h r'_i, c2 = h^2 r''_i / 2,
    and c3..c7 fit r, r' and r'' at x_{i+1} and r' at both thirds. Every
    later evaluation gathers its steps' columns and evaluates r by Horner
    and r' as r'_i + s (2 c2 + s (3 c3 + ... + s 7 c7)) / h.
    """

    xs: np.ndarray
    rs: np.ndarray
    rps: np.ndarray
    rpps: np.ndarray
    thirds: np.ndarray
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return _coefficients(self.xs, self.rs, self.rps, self.rpps,
                             self.thirds)

    def evaluate(self, x):
        """(r, r') at x; scalar in, scalar out."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        nodes = self.xs
        idx, xq = _locate(nodes, np.atleast_1d(np.asarray(x, dtype=float)))
        h, c0, c1, c2, c3, c4, c5, c6, c7, d0 = self._table.take(idx, axis=1)
        s = (xq - nodes[idx]) / h
        r = c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * (
            c5 + s * (c6 + s * c7))))))
        rp = d0 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + s * (
            5.0 * c5 + s * (6.0 * c6 + 7.0 * c7 * s))))) / h
        if scalar:
            return float(r[0]), float(rp[0])
        return r, rp


def _locate(nodes: np.ndarray, xq: np.ndarray):
    """Node index at or left of each query, and the query in that step.

    Points within a relative _SLIVER below the first node are clamped onto
    it; those within it above the last node find the last node's column,
    which is constant. A NaN raises NonFinite, naming the first one, ahead
    of OutOfRange for points further out.
    """
    lo, hi = float(nodes[0]), float(nodes[-1])
    slack = _SLIVER * max(1.0, abs(lo), abs(hi))
    inside = (xq >= lo - slack) & (xq <= hi + slack)  # False at NaN
    if not inside.all():
        nan = np.isnan(xq)
        if nan.any():
            i = int(np.argmax(nan))
            raise NonFinite(f"query point {i} of {xq.size} is nan")
        raise OutOfRange(f"requested points outside [{lo}, {hi}]")
    xq = np.maximum(xq, lo)
    return np.searchsorted(nodes, xq, side="right") - 1, xq


def _coefficients(xs, rs, rps, rpps, thirds) -> np.ndarray:
    """Rows (h, c0, ..., c7, d0) of every step's polynomial in s in [0, 1].

    Column i holds step i from xs[i], of width h, as r = sum c_k s^k, and
    its first derivative d0 = r'(xs[i]). The septic matches r, r' and
    r'' = rpps at both ends of the step and r' = r'_i + thirds at s = 1/3
    and 2/3. With delta, dd and aa what c0..c2 leave of r, h r' and h^2 r''
    at s = 1, and e_j what the quintic Hermite through those three leaves
    of h r' at the thirds, c3..c7 are _SEPTIC times them. The last column
    is the last node as a constant (h = 1, every c_k but c0 zero), so every
    node is its own column.
    """
    table = np.zeros((10, xs.size))
    table[0, :-1] = h = np.diff(xs)
    table[0, -1] = 1.0
    table[1] = rs
    table[9] = rps
    y0, y1, d0, d1 = rs[:-1], rs[1:], rps[:-1], rps[1:]
    table[2, :-1] = c1 = h * d0
    a0 = rpps[:-1]
    table[3, :-1] = c2 = h * h * a0 / 2.0
    ha0 = h * a0
    cond = np.empty((5, h.size))
    cond[0] = y1 - y0 - c1 - c2                         # delta
    cond[1] = h * (d1 - d0 - ha0)                       # dd
    cond[2] = h * h * (rpps[1:] - a0)                   # aa
    # p_j = h r' - c1 - 2 c2 s at s = 1/3 and 2/3 less the quintic's: e_j is
    # small, so the large weights of _SEPTIC that it meets round little
    quintic = (_QUINTIC_THIRDS[:, :, None] * cond[:3]).sum(axis=1)
    cond[3] = h * (thirds[0] - ha0 / 3.0) - quintic[0] / 81.0
    cond[4] = h * (thirds[1] - 2.0 * ha0 / 3.0) - quintic[1] / 81.0
    table[4:9, :-1] = (_SEPTIC[:, :, None] * cond).sum(axis=1)
    return table


_RHS_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


def integrate(ode: SecondOrderODE, x0: float, r0: float, rp0: float,
              x_end: float,
              tol: ToleranceSpec = ToleranceSpec()) -> DenseSolution:
    """Integrate r'' = rhs(x, r) from (x0, r0, rp0) to x_end.

    Local error per step is controlled by DOP853's estimate
    err = n5 / sqrt(2 (n5 + 0.01 n3)), n5 and n3 the squared norms of the
    5th and 3rd order error estimates of (r, r'), each component scaled by
    atol + rtol * |state|; either direction of integration is supported.
    Raises StepSizeUnderflow, BlowUp, AmplitudeCollapse (the amplitude falls
    below 1e-6) or StepBudgetExhausted (more than _MAX_ATTEMPTS attempted
    steps) on the corresponding failure modes. The pair is FSAL: the last
    stage of an accepted step is the first stage of the next one, so each
    attempted step makes 12 rhs calls. After the last step, three array
    calls of rhs give every step's dense-output stages at once; one that is
    not finite raises NonFinite.

    An attempt whose rhs raises, or whose new state, last stage or error
    is not finite, is rejected. One test after the last stage serves every
    stage: k1 and k6-k12 reach r'_new through b, k4 and k5 reach the error
    in r through E5 A, k13 is tested itself, and k2 and k3, of zero weight
    in b, bA and both errors, reach r5 through (A^2)_52 and (A^2)_53 and so
    k5; r_i reaches k_i = rhs(x_i, r_i). So an rhs not finite where its
    amplitude is not (every rhs of this package: a term 0 * inf, at b = 0
    or lin = 0, is nan) rejects exactly the attempts a test after each stage
    rejected.
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
    # the stage rows of _A2 (d<i>_<j> weighs k_j in stage i) and the weights
    # ba of bA, b, f of E5, g of E3, fa of E5 A and ga of E3 A, zeros skipped
    _, (d3_1,), (d4_1, d4_2), (d5_1, d5_2, d5_3), (d6_1, _, d6_3, d6_4), \
        (d7_1, _, d7_3, d7_4, d7_5), (d8_1, _, d8_3, d8_4, d8_5, d8_6), \
        (d9_1, _, d9_3, d9_4, d9_5, d9_6, d9_7), \
        (d10_1, _, d10_3, d10_4, d10_5, d10_6, d10_7, d10_8), \
        (d11_1, _, d11_3, d11_4, d11_5, d11_6, d11_7, d11_8, d11_9), \
        (d12_1, _, d12_3, d12_4, d12_5, d12_6, d12_7, d12_8, d12_9,
         d12_10) = _A2
    c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _ = _C
    ba1, _, _, _, _, ba6, ba7, ba8, ba9, ba10, ba11, _ = _BA
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _B
    f1, _, _, _, _, f6, f7, f8, f9, f10, f11, f12 = _E5
    g1, _, _, _, _, g6, g7, g8, g9, g10, g11, g12 = _E3
    fa1, _, _, fa4, fa5, fa6, fa7, fa8, fa9, fa10, fa11, _ = _E5A
    ga1, _, _, ga4, ga5, ga6, ga7, ga8, ga9, ga10, ga11, _ = _E3A

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
    steps = array("d")  # h, k1, ..., k12 of every accepted step, in turn

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
        # 0.0, adds left to right and skips zero weights; tests/test_ode.py
        # pins that rounding against a generic loop over the rows of _A2.
        try:
            k2 = float(rhs(x + c2 * h, r + h * (c2 * rp)))
            r3 = r + h * (c3 * rp + h * (0.0 + d3_1 * k1))
            k3 = float(rhs(x + c3 * h, r3))
            r4 = r + h * (c4 * rp + h * (0.0 + d4_1 * k1 + d4_2 * k2))
            k4 = float(rhs(x + c4 * h, r4))
            r5 = r + h * (c5 * rp + h * (0.0 + d5_1 * k1 + d5_2 * k2
                                         + d5_3 * k3))
            k5 = float(rhs(x + c5 * h, r5))
            r6 = r + h * (c6 * rp + h * (0.0 + d6_1 * k1 + d6_3 * k3
                                         + d6_4 * k4))
            k6 = float(rhs(x + c6 * h, r6))
            r7 = r + h * (c7 * rp + h * (0.0 + d7_1 * k1 + d7_3 * k3
                                         + d7_4 * k4 + d7_5 * k5))
            k7 = float(rhs(x + c7 * h, r7))
            r8 = r + h * (c8 * rp + h * (0.0 + d8_1 * k1 + d8_3 * k3
                                         + d8_4 * k4 + d8_5 * k5 + d8_6 * k6))
            k8 = float(rhs(x + c8 * h, r8))
            r9 = r + h * (c9 * rp + h * (0.0 + d9_1 * k1 + d9_3 * k3
                                         + d9_4 * k4 + d9_5 * k5 + d9_6 * k6
                                         + d9_7 * k7))
            k9 = float(rhs(x + c9 * h, r9))
            r10 = r + h * (c10 * rp + h * (0.0 + d10_1 * k1 + d10_3 * k3
                                           + d10_4 * k4 + d10_5 * k5
                                           + d10_6 * k6 + d10_7 * k7
                                           + d10_8 * k8))
            k10 = float(rhs(x + c10 * h, r10))
            r11 = r + h * (c11 * rp + h * (0.0 + d11_1 * k1 + d11_3 * k3
                                           + d11_4 * k4 + d11_5 * k5
                                           + d11_6 * k6 + d11_7 * k7
                                           + d11_8 * k8 + d11_9 * k9))
            k11 = float(rhs(x + c11 * h, r11))
            r12 = r + h * (rp + h * (0.0 + d12_1 * k1 + d12_3 * k3 + d12_4 * k4
                                     + d12_5 * k5 + d12_6 * k6 + d12_7 * k7
                                     + d12_8 * k8 + d12_9 * k9 + d12_10 * k10))
            k12 = float(rhs(x + h, r12))
            dr = (0.0 + ba1 * k1 + ba6 * k6 + ba7 * k7 + ba8 * k8 + ba9 * k9
                  + ba10 * k10 + ba11 * k11)
            drp = (0.0 + b1 * k1 + b6 * k6 + b7 * k7 + b8 * k8 + b9 * k9
                   + b10 * k10 + b11 * k11 + b12 * k12)
            e5r = (0.0 + fa1 * k1 + fa4 * k4 + fa5 * k5 + fa6 * k6 + fa7 * k7
                   + fa8 * k8 + fa9 * k9 + fa10 * k10 + fa11 * k11)
            e5 = (0.0 + f1 * k1 + f6 * k6 + f7 * k7 + f8 * k8 + f9 * k9
                  + f10 * k10 + f11 * k11 + f12 * k12)
            e3r = (0.0 + ga1 * k1 + ga4 * k4 + ga5 * k5 + ga6 * k6 + ga7 * k7
                   + ga8 * k8 + ga9 * k9 + ga10 * k10 + ga11 * k11)
            e3 = (0.0 + g1 * k1 + g6 * k6 + g7 * k7 + g8 * k8 + g9 * k9
                  + g10 * k10 + g11 * k11 + g12 * k12)
            r_new = r + h * (rp + h * dr)
            rp_new = rp + h * drp
            k13 = float(rhs(x + h, r_new))
        except _RHS_ERRORS:
            err = inf
        else:
            sc_r = h * h / (atol + rtol * max(abs(r), abs(r_new)))
            sc_rp = h / (atol + rtol * max(abs(rp), abs(rp_new)))
            # squared by multiplying: a float ** 2 past 1e154 raises
            # OverflowError, a product overflows to inf and fails the test
            q5r, q5, q3r, q3 = e5r * sc_r, e5 * sc_rp, e3r * sc_r, e3 * sc_rp
            n5 = q5r * q5r + q5 * q5
            n3 = q3r * q3r + q3 * q3
            den = 2.0 * (n5 + 0.01 * n3)
            err = n5 / math.sqrt(den) if n5 else 0.0
            if not (isfinite(r_new) and isfinite(rp_new) and isfinite(k13)
                    and isfinite(den)):
                err = inf

        if err <= 1.0:
            steps.extend((h, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11,
                          k12))
            x = x_end if last else x + h
            # FSAL: k13 is rhs at the new point, the next step's k1
            r, rp, k1 = r_new, rp_new, k13
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

        # the step factor 0.9 err^(-1/8), clamped to [0.2, 5]
        factor = 0.9 * err ** -0.125 if err else 5.0
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
    thirds = _thirds(rhs, xs[:-1], rs[:-1], rps[:-1], rpps[1:],
                     np.frombuffer(steps).reshape(-1, 13), direction)
    if direction < 0.0:
        xs, rs, rps, rpps = xs[::-1], rs[::-1], rps[::-1], rpps[::-1]
        thirds = thirds[:, ::-1]
    meta = {"kind": "integrated", "x0": x0, "r0": r0, "rp0": rp0,
            "atol": tol.atol, "rtol": tol.rtol, "steps": xs.size - 1}
    return DenseSolution(xs=xs, rs=rs, rps=rps, rpps=rpps, thirds=thirds,
                         meta=meta)


def _thirds(rhs, x, r, rp, k13, steps, direction) -> np.ndarray:
    """r' at one and two thirds of every step from its left node, less r'
    there, by DOP853's continuous extension: its three extra stages, each
    one array call of rhs over all steps, then h _W . k. The left node of a
    backward step is its end, so there its thirds are the extension's two
    and one thirds less h b . k, the step's change of r'. ``steps`` holds
    a row (h, k1, ..., k12) per step; the sums are elementwise, no BLAS."""
    h = steps[:, 0]
    hh = h * h
    k = np.empty((h.size, 16))
    k[:, :12] = steps[:, 1:]
    k[:, 12] = k13
    nodes = np.array(_C_DENSE)[:, None] * h
    with np.errstate(all="ignore"):
        ts, amplitudes = x + nodes, r + nodes * rp
        try:
            for m, row in enumerate(_A2_DENSE):
                k[:, 13 + m] = rhs(ts[m], amplitudes[m] + hh * (
                    k[:, :12 + m] * row).sum(axis=1))
        except _RHS_ERRORS:
            k[:, 13:] = math.nan
        weights = np.array(_W)
        if direction < 0.0:
            weights = weights[::-1] - np.append(_B, np.zeros(4))
        thirds = h * (k * weights[:, None]).sum(axis=2)
    if not np.isfinite(thirds).all():
        at = float(x[np.argmax(~np.isfinite(thirds).all(axis=0))])
        raise NonFinite(f"dense output non-finite in the step from "
                        f"x={at:.6g}", at=at)
    return thirds


def integrate_span(ode: SecondOrderODE, x0: float, r0: float, rp0: float,
                   x_lo: float, x_hi: float,
                   tol: ToleranceSpec = ToleranceSpec()) -> DenseSolution:
    """Dense solution covering [x_lo, x_hi] from initial data at interior x0.

    A side narrower than _SLIVER relative to x0 is not integrated: the
    evaluation's slack reads it from the node at x0. A span that is such a
    sliver on both sides raises StepSizeUnderflow.
    """
    if not (x_lo <= x0 <= x_hi):
        raise ValueError("x0 must lie inside [x_lo, x_hi]")
    sliver = _SLIVER * max(1.0, abs(x0))
    parts = [integrate(ode, x0, r0, rp0, end, tol) for end in (x_lo, x_hi)
             if abs(end - x0) >= sliver]
    if not parts:
        raise StepSizeUnderflow(
            f"span [{x_lo:.17g}, {x_hi:.17g}] lies within {sliver:.3e} of "
            f"x={x0:.17g}, narrower than the smallest step", at=x0)
    if len(parts) == 1:
        return parts[0]
    left, right = parts  # they share the node x0
    return DenseSolution(
        xs=np.concatenate([left.xs[:-1], right.xs]),
        rs=np.concatenate([left.rs[:-1], right.rs]),
        rps=np.concatenate([left.rps[:-1], right.rps]),
        rpps=np.concatenate([left.rpps[:-1], right.rpps]),
        thirds=np.concatenate([left.thirds, right.thirds], axis=1),
        meta={**right.meta, "steps": left.xs.size + right.xs.size - 2})


def _turning_point(c, rising: bool) -> float:
    """The s in [0, 1] where h r'(s) = c1 + s (2 c2 + s (3 c3 + ... +
    s 7 c7)) vanishes, for c = (c1, ..., c7) in Python floats and a root
    where h r' rises through 0 (``rising``) or falls.

    Bisection of [0, 1], each end keeping its sign of h r', so no root
    leaves its step. It returns the midpoint where h r' is 0 there, where
    it rounds onto an end (the ends are then neighbouring floats), or
    after _ROOT_ITERATIONS halvings, within 2^-64 of the root.
    """
    c1, c2, c3, c4, c5, c6, c7 = c
    lo, hi = 0.0, 1.0
    for _ in range(_ROOT_ITERATIONS):
        s = 0.5 * (lo + hi)
        if s == lo or s == hi:
            break
        f = c1 + s * (2.0 * c2 + s * (3.0 * c3 + s * (4.0 * c4 + s * (
            5.0 * c5 + s * (6.0 * c6 + 7.0 * c7 * s)))))
        if f == 0.0:
            break
        if (f < 0.0) == rising:  # the root lies above s
            lo = s
        else:
            hi = s
    return s


def stationary_points(dense: DenseSolution) -> np.ndarray:
    """Every x, in increasing order, where r' = 0 inside a step whose end
    values of r' differ in sign (r' > 0 at one end only), each found by
    ``_turning_point`` in its step.
    """
    rps = dense.rps
    steps = np.flatnonzero((rps[:-1] > 0.0) != (rps[1:] > 0.0))
    table = dense._table[:, steps]
    s = [_turning_point(c, not r > 0.0)
         for c, r in zip(table[2:9].T.tolist(), rps[steps].tolist())]
    return dense.xs[steps] + np.array(s, dtype=float) * table[0]


def sample(seed, xs) -> SolutionGrid:
    """Sample a seed at the given points."""
    xs = np.asarray(xs, dtype=float)
    rs, rps = seed.eval_with_derivative(xs)
    return SolutionGrid(xs=xs, rs=rs, rps=rps, meta=dict(seed.meta))


def residual(ode: SecondOrderODE, grid: SolutionGrid) -> np.ndarray:
    """Per-point residual r''_FD(x_i) - rhs(x_i, r_i) on a uniform grid.

    Interior points use the 4th-order 5-point central second difference;
    the two points adjacent to each boundary use one-sided 4th-order
    stencils. Raises ValueError on a grid that is not uniform: every grid
    a command checks is a contiguous run of one ``np.linspace``.
    """
    n = len(grid)
    if n < 7:
        raise GridTooSmall(f"residual needs at least 7 points, got {n}")
    xs, rs = grid.xs, grid.rs
    h = (xs[-1] - xs[0]) / (n - 1)
    # np.linspace rounds each point by up to 1.5 eps (3.3e-16) of it: more
    # than 1e-8 h on a narrow grid far from 0, as [1000, 1000.001]
    slack = 1e-8 * h + 1e-15 * max(abs(xs[0]), abs(xs[-1]))
    if np.max(np.abs(np.diff(xs) - h)) > slack:
        raise ValueError("residual needs a uniform grid")
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
