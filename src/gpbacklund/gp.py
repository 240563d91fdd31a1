"""The reduced Gross-Pitaevskii amplitude equation and its closed forms.

The stationary ansatz psi = r(x) exp(i(theta(x) - mu t)) with r^2 theta' = c
reduces the cubic Schrodinger equation to

    r'' = c^2/r^3 + L(x) r + b x^(3n-3) (1 + 2 eta x^n)^3 r^3,
    L(x) = (n^2-1)/(4x^2) + 3 x^(2n-2) eta^2 n^2 / (1 + 2 eta x^n)^2.

L equals -(1/2) {G, x} for G(x) = x^n (1 + eta x^n), which is what ties the
equation to the translation-map transformation machinery.

In the Liouville variables rho = sqrt(G') r, t = G(x) the equation is the
autonomous rho_tt = c^2/rho^3 + beta rho^3 with beta = b/n^3, and the
transformation is the translation t -> t + K. Integrated seeds are
integrated there. The closed form is the equilibrium rho = v sqrt(n), which
exists when b v^6 + c^2 = 0; read in x it is r = v / sqrt(x^(n-1)(1 + 2 eta
x^n)), a fixed point of the transformation. Both seeds are read in x, as
the transformation reads its seed, by one pull-back of a density of weight
-1/2, ``functional._half_density``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .calculus import _schwarzian_of, schwarzian
from .errors import (AmplitudeCollapse, ConstraintViolated, DomainError,
                     NonFinite, NumericalError, OutOfRange)
from .functional import PolyG, _half_density
from .ode import (_AMPLITUDE_FLOOR, _MAX_ATTEMPTS, SecondOrderODE,
                  ToleranceSpec, _locate, integrate_span, stationary_points)

_X_FLOOR = 1e-8
_CONSTRAINT_RTOL = 1e-10
# 8-point Gauss-Legendre rule on [-1, 1] for the phase integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# Seeds are integrated in t at the given tolerances divided by this. Against
# integrate_span in t at 1e-14 over the whole span, unfolded, on the 72
# integrated seeds of the orbit and wave benchmark pools of seeds 1-3, the
# worst errors of r, r' and the phase, each relative to its column's
# largest value on the command's grid, were then orbit 1.9e-11, 3.5e-10 and
# 3.3e-12, and wave 7.6e-13, 5.7e-11 and 2.2e-13: each below that of the
# Dormand-Prince 5(4) pair this replaced, at its divisor of 3 (orbit 5.0e-11,
# 7.7e-10 and 2.0e-11; wave 5.1e-11, 8.4e-10 and 2.2e-11). The divisor was
# chosen on seeds 1-9 and held on seeds 10-15 (orbit r' 4.8e-10, against
# 8.6e-10). At 30, orbit's r' read 1.0e-9 on seed 9: its worst is the dense
# output's r' late in a folded stretch's longest step, about ten times its
# nodes' error, and it falls with the tolerance only as the steps shift.
_T_TOL_DIVISOR = 60.0
# A periodic seed is folded only when its t span exceeds this many periods.
# Folding integrates about 1.05 periods and searches them for two turning
# points, so it saves steps on longer spans only: every orbit benchmark
# seed spans at least 2.1 periods and is folded, and the wave benchmark's
# seeds (0.68-1.76 periods) are not. Folding those as well, at 1.2 periods,
# made the wave pool of seed 1 no faster in-process (the sum of each
# command's best of 8 runs was 17.5 ms, and 18.0 ms folded, at a divisor
# of 30): unfolded, its seeds take only 7-66 steps.
_FOLD_MIN_PERIODS = 2.0
# Nor is it folded when u3 - u2, the swing of u = rho^2, is below this
# fraction of the equilibrium's u: a seed started on the closed form sits
# within rounding of it (about 1e-15, 1e-14 after long spans), so the sign
# changes of its rho_t are noise, not turning points.
_FOLD_MIN_AMPLITUDE = 1e-8
# A folded seed is integrated this many periods past t0, which holds two
# turning points; where it does not, the seed is integrated over its span.
_FOLD_REACH = 1.05


@dataclass(frozen=True, eq=False)
class GPParams:
    """Parameter set of the reduced amplitude equation.

    ``b`` is the cubic coefficient as it appears in the expanded equation
    (the representation-level coefficient is b/n^3);
    ``c`` is the angular-momentum constant from r^2 theta' = c. ``eta`` may
    be an array, as in PolyG, and GPParams compares and hashes by identity.
    """

    n: int
    eta: float | np.ndarray
    b: float
    c: float
    v: float = 1.0
    mu: float = 0.0
    theta0: float = 0.0

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (np.asarray(self.eta) >= 0.0).all():
            raise ValueError("eta must be nonnegative")
        if not self.v > 0.0:
            raise ValueError("v must be positive")
        object.__setattr__(self, "n", int(self.n))

    @property
    def g(self) -> PolyG:
        return PolyG(n=self.n, eta=self.eta)

    @property
    def constraint_residual(self) -> float:
        # numpy's power overflows to inf where Python's raises
        return float(self.b * np.float64(self.v) ** 6 + self.c * self.c)

    def satisfies_constraint(self) -> bool:
        scale = max(self.c * self.c, 1.0)
        return abs(self.constraint_residual) <= _CONSTRAINT_RTOL * scale

    @classmethod
    def constrained(cls, n: int, eta: float, c: float,
                    v: float = 1.0) -> "GPParams":
        """Parameters with b fixed by the closed-form constraint b v^6 + c^2 = 0."""
        # numpy's power is 0 or inf where Python's raises; b is then inf or nan
        v6 = np.float64(v) ** 6
        if not 0.0 < v6 < math.inf:
            raise NonFinite(f"b = -c^2/v^6 is not finite: v^6 = {v6:g} for "
                            f"v={v:g}")
        return cls(n=n, eta=eta, b=float(-(c * c) / v6), c=c, v=v)


def linear_coefficient(p: GPParams, x):
    """The printed coefficient of the linear term."""
    n, eta = p.n, p.eta
    return ((n * n - 1) / (4.0 * x * x)
            + 3.0 * x ** (2 * n - 2) * eta * eta * n * n
            / (1.0 + 2.0 * eta * x ** n) ** 2)


def gp_rhs(p: GPParams) -> SecondOrderODE:
    """The amplitude equation as a second-order ODE on (1e-8, inf)."""
    n, eta, b, c2 = p.n, p.eta, p.b, p.c * p.c
    lin_a = (n * n - 1) / 4.0
    lin_b = 3.0 * eta * eta * n * n
    two_eta, p_lin, p_cubic = 2.0 * eta, 2 * n - 2, 3 * n - 3

    def rhs(x, r):
        xn = x ** n
        s = 1.0 + two_eta * xn
        lin = lin_a / (x * x) + lin_b * x ** p_lin / (s * s)
        r3 = r ** 3
        return c2 / r3 + lin * r + b * x ** p_cubic * s ** 3 * r3

    return SecondOrderODE(rhs=rhs, domain=(_X_FLOOR, math.inf))


def linear_coefficient_check(p: GPParams, x):
    """Difference between the printed linear coefficient and -(1/2){G, x},
    at a point or an array of points.

    The Schwarzian side is evaluated by finite differences of G alone, so
    the comparison is an independent route to the same coefficient. An
    array eta broadcasts against the points; on the Schwarzian side it
    broadcasts against the stencil's two trailing axes, at the points
    broadcast to the result's shape.
    """
    if not np.all(np.asarray(x) > 0.0):
        raise DomainError("linear coefficient is defined for x > 0")
    eta = np.asarray(p.eta)
    g_map = PolyG(p.n, eta[..., None, None]).as_smooth_map()
    z = np.broadcast_to(x, np.broadcast_shapes(eta.shape, np.shape(x)))
    return linear_coefficient(p, x) + 0.5 * schwarzian(g_map, z)


def _equilibrium(p: GPParams, d1, d2):
    """The closed form's (r, r') where G' = d1 and G'' = d2: the
    equilibrium rho = v sqrt(n), rho_t = 0 in t = G(x), read in x."""
    return _half_density(p.v * math.sqrt(p.n), 0.0, d1, d2)


@dataclass(frozen=True)
class ClosedFormSolution:
    """Closed-form amplitude r = v/sqrt(G'/n), usable as a transform seed."""

    params: GPParams

    def __post_init__(self) -> None:
        p = self.params
        if not p.satisfies_constraint():
            warnings.warn(ConstraintViolated(
                f"b*v^6 + c^2 = {p.constraint_residual:.3e}: the closed form "
                f"does not solve the amplitude equation for these parameters"))

    @property
    def domain(self) -> tuple[float, float]:
        return (0.0, math.inf)

    @property
    def meta(self) -> dict:
        p = self.params
        return {"kind": "closed_form", "n": p.n, "eta": p.eta, "v": p.v,
                "b": p.b, "c": p.c}

    def eval_with_derivative(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        d1 = self.params.g.prime(xs)
        if not np.all(np.isfinite(d1)):
            raise NonFinite("x^(n-1) (1 + 2 eta x^n) overflows on the "
                            "requested points")
        r, rp = _equilibrium(self.params, d1, self.params.g.second(xs))
        if not np.all(r > 0.0):
            raise NonFinite(f"the closed-form amplitude v/sqrt(s) underflows "
                            f"to 0 for v={self.params.v:g}")
        return r, rp

    def phase_integral(self, p: GPParams, x, x_ref: float):
        """c (G(x) - G(x_ref))/(n v^2); x_ref may be 0, where G vanishes."""
        if not p.v * p.v > 0.0:
            raise NonFinite(f"the closed form's phase divides by v^2, which "
                            f"underflows to 0 for v={p.v:g}")
        scale = p.c / (p.n * p.v * p.v)
        ref = 0.0 if x_ref == 0.0 else p.g.value(x_ref)
        return scale * (p.g.value(x) - ref)


def _liouville(g: PolyG, xs, rs, rps):
    """(rho, rho_t) = (sqrt(G') r, (r' + G'' r/(2 G'))/sqrt(G')) at xs."""
    d1 = g.prime(xs)
    root = np.sqrt(d1)
    return root * rs, (rps + 0.5 * g.second(xs) * rs / d1) / root


def energy(p: GPParams, xs, rs, rps):
    """E = rho_t^2/2 + c^2/(2 rho^2) - beta rho^4/4 at every point.

    E is constant along every solution of the amplitude equation, and a
    transform of a solution keeps its E, since in t = G(x) it is a
    translation.
    """
    rho, rho_t = _liouville(p.g, np.asarray(xs, dtype=float), rs, rps)
    rho2 = rho * rho
    return (0.5 * rho_t * rho_t + 0.5 * p.c * p.c / rho2
            - 0.25 * p.b / p.n ** 3 * rho2 * rho2)


def _period(c2: float, beta: float, rho: float, rho_t: float) -> float:
    """Period in t of the orbit through (rho, rho_t), or 0.0 where it is not
    periodic (beta >= 0 or c = 0) or swings by less than _FOLD_MIN_AMPLITUDE.

    u = rho^2 obeys u_t^2 = P(u) = 2 beta u^3 + 8 E u - 4 c^2 with roots
    u1 < 0 < u2 <= u3, and the period is 2 K(m)/lam with
    m = (u3 - u2)/(u3 - u1), lam = sqrt(-beta (u3 - u1)/2) (DLMF 19.8.1,
    K by the AGM). u3 - u2 is formed from E - E_min, which vanishes on the
    closed form, and u1 + 2 u_eq, so that neither cancels there. Raises
    NonFinite where E - E_min overflows: the seed then fails closed rather
    than being integrated over its whole span as a seed that is not
    periodic.
    """
    if not (beta < 0.0 and c2 > 0.0):
        return 0.0
    u, u_eq = rho * rho, (-c2 / beta) ** (1.0 / 3.0)
    # E - E_min, with V(u) - V(u_eq) = -beta (u - u_eq)^2 (u + 2 u_eq)/(4 u);
    # a Python float's ** raises where it overflows and * gives inf
    try:
        de = 0.5 * rho_t * rho_t \
            - 0.25 * beta * (u - u_eq) ** 2 * (u + 2.0 * u_eq) / u
    except OverflowError:
        de = math.inf
    if not math.isfinite(de):
        raise NonFinite(f"E - E_min in t = G(x) overflows at rho = "
                        f"{rho:.6g}, rho_t = {rho_t:.6g}, so the seed's "
                        f"period is not finite")
    # u1, the least root of u^3 + p u + q with p = 4 E/beta, q = -2 c^2/beta
    # (three real roots, as E > E_min), in trigonometric form, then
    # polished by Newton: it is simple and well separated
    p, q = 4.0 * (de - 0.75 * beta * u_eq * u_eq) / beta, -2.0 * c2 / beta
    arg = 1.5 * q / p * math.sqrt(-3.0 / p)
    u1 = 2.0 * math.sqrt(-p / 3.0) * math.cos(
        (math.acos(max(-1.0, min(1.0, arg))) + 2.0 * math.pi) / 3.0)
    for _ in range(2):
        u1 -= (u1 * (u1 * u1 + p) + q) / (3.0 * u1 * u1 + p)
    # P(u1) = 0 with P(u) = 2 beta (u - u_eq)^2 (u + 2 u_eq) + 8 de u
    d = -4.0 * de * u1 / (beta * (u1 - u_eq) ** 2)  # u1 + 2 u_eq
    # (u3 - u2)^2 = -16 de/beta + 3 (2 u_eq - u1) d, by Vieta (u2 + u3 = -u1,
    # as P has no u^2 term)
    swing = math.sqrt(max(3.0 * (2.0 * u_eq - u1) * d - 16.0 * de / beta, 0.0))
    if not swing > _FOLD_MIN_AMPLITUDE * u_eq:
        return 0.0
    span = 0.5 * swing - 1.5 * u1  # u3 - u1
    a, b = 1.0, math.sqrt(max(1.0 - swing / span, 0.0))
    for _ in range(64):  # the AGM converges quadratically, in about 5
        if a - b <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / a / math.sqrt(-0.5 * beta * span)


def _folded(ode: SecondOrderODE, t0: float, rho0: float, rho_t0: float,
            tol: ToleranceSpec, estimate: float) -> tuple | None:
    """(stretch, (t_a, t_b)): rho integrated forward from t0 to
    t0 + _FOLD_REACH ``estimate`` (of the period) and its first two turning
    points, or None where it holds fewer or rho_tt has one sign at both."""
    stretch = integrate_span(ode, t0, rho0, rho_t0, t0,
                             t0 + _FOLD_REACH * estimate, tol)
    turns = stationary_points(stretch)[:2]
    if turns.size < 2 or not np.prod(
            ode.rhs(turns, stretch.evaluate(turns)[0])) < 0.0:
        return None
    stretch.meta["turning_points"] = turns = tuple(turns)
    return stretch, turns


class LiouvilleSolution:
    """A seed integrated in t = G(x) and read in x.

    ``rho`` is the dense solution (rho, rho_t) of rho_tt = c^2/rho^3 +
    beta rho^3 from the data (r0, rp0) at x0, at ``tol`` divided by
    _T_TOL_DIVISOR; its failures say that they happened in t, and where
    that is in x. It covers [G(x_lo), G(x_hi)], except for a periodic seed
    spanning more than _FOLD_MIN_PERIODS periods and at most _MAX_ATTEMPTS,
    whose ``rho`` is the stretch ``_folded`` integrates through two turning
    points (meta ``turning_points``); ``_reduce`` reads every t from it.
    The seed protocol stays in x: ``domain`` is (x_lo, x_hi),
    ``eval_with_derivative`` returns r = rho(G)/sqrt(G') and
    r' = rho_t sqrt(G') - r G''/(2 G'), and ``phase_integral`` integrates
    in t over the t nodes of ``rho``.
    """

    def __init__(self, p: GPParams, x0: float, r0: float, rp0: float,
                 x_lo: float, x_hi: float, tol: ToleranceSpec) -> None:
        self._g = g = p.g
        t_lo, t0, t_hi = g.value(np.array([x_lo, x0, x_hi], dtype=float))
        rho0, rho_t0 = _liouville(g, np.float64(x0), r0, rp0)
        if not np.all(np.isfinite([t_lo, t_hi, rho0, rho_t0])):
            raise NonFinite(f"t = G(x) or the initial data in t overflow on "
                            f"[{x_lo:g}, {x_hi:g}]")
        if not 0.0 < t_lo < t_hi:
            raise DomainError(f"t = G(x) does not resolve [{x_lo:g}, "
                              f"{x_hi:g}] in floating point")
        # integrate's floor holds the amplitude it integrates, rho here
        if rho0 < _AMPLITUDE_FLOOR:
            raise AmplitudeCollapse(
                f"seed integrated in t = G(x): initial amplitude rho0 = "
                f"sqrt(G'(x0)) r0 = {rho0:.3e} at x0={x0:g}, r0={r0:g} is "
                f"below floor {_AMPLITUDE_FLOOR}")
        c2, beta = p.c * p.c, p.b / p.n ** 3

        def rhs(t, rho):
            rho3 = rho * rho * rho
            return c2 / rho3 + beta * rho3

        # Near the equilibrium rho_eq (beta rho_eq^6 = -c^2, the closed form)
        # a solution is nearly constant in t: the error estimate stays near
        # zero while the step outgrows the pair's stability limit, and a
        # seed on the closed form then lost 7e-9 over a t span of 1120
        # (n = 3, tolerance 1e-10; 1.4e-11 in x). Steps are bounded by
        # 1/omega, omega^2 = 6 c^2/rho_eq^4 = 6 (|c| |beta|)^(2/3) the
        # frequency of small oscillations there, which keeps that seed at
        # 1e-15; away from the equilibrium the error estimate bounds them.
        # Without an equilibrium (beta >= 0 or c = 0) they are unbounded.
        omega = math.sqrt(6.0) * (abs(p.c) * -beta) ** (1.0 / 3.0) \
            if beta < 0.0 else 0.0
        # autonomous: any positive floor below G(x_lo) serves
        ode = SecondOrderODE(rhs=rhs, domain=(0.5 * t_lo, math.inf),
                             max_step=1.0 / omega
                             if 0.0 < omega < math.inf else math.inf)
        data = (float(t0), float(rho0), float(rho_t0))
        span = (float(t_lo), float(t_hi))
        tol_t = ToleranceSpec(tol.atol / _T_TOL_DIVISOR,
                              tol.rtol / _T_TOL_DIVISOR)
        period = _period(c2, beta, *data[1:])
        try:
            fold = None
            if period and _FOLD_MIN_PERIODS * period < t_hi - t_lo \
                    <= _MAX_ATTEMPTS * period:
                fold = _folded(ode, *data, tol_t, period)
            self.rho, self._fold = fold or (
                integrate_span(ode, *data, *span, tol_t), None)
        except NumericalError as exc:  # name the frame: its x is t here
            where = "" if exc.at is None else \
                f" (t={exc.at:.6g} is x={float(g.inverse(exc.at)):.6g})"
            raise type(exc)(f"seed integrated in t = G(x) (x here is t): "
                            f"{exc}{where}", at=exc.at) from exc
        self.domain = (x_lo, x_hi)
        self._t_span = np.array(span)
        self.meta = {**self.rho.meta, "frame": "t = G(x)", "x0": x0,
                     "r0": r0, "rp0": rp0}

    def _reduce(self, ts):
        """(k, s, sign): each t is rho(s), sign rho_t(s), k = floor((t -
        t_a)/P) periods P = 2 (t_b - t_a) past t_a, with s reflected about
        t_b on the back half, where sign is -1; (0, t, 1) if unfolded. A NaN
        or a t outside the span raises as a table over the span would."""
        if self._fold is None:
            return 0.0, ts, 1.0
        lo, hi = self._t_span
        if ts.size and not (ts.min() >= lo and ts.max() <= hi):
            _locate(self._t_span, ts)  # raises unless within its slack
        t_a, t_b = self._fold
        period = 2.0 * (t_b - t_a)
        d = ts - t_a
        k = np.floor(d / period)
        d = d - k * period
        back = d > 0.5 * period
        return (k, t_a + np.where(back, period - d, d),
                np.where(back, -1.0, 1.0))

    def eval_with_derivative(self, xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        g = self._g
        try:
            _, s, sign = self._reduce(g.value(xs))
            rho, rho_t = self.rho.evaluate(s)
        except OutOfRange as exc:  # name the interval in x, not in t
            raise OutOfRange(f"requested points outside "
                             f"[{self.domain[0]}, {self.domain[1]}]") from exc
        return _half_density(rho, sign * rho_t, g.prime(xs), g.second(xs))

    def phase_integral(self, p: GPParams, x, x_ref: float):
        """The integral of c/r^2 dx = c/rho^2 dt from x_ref to x, in t = G(x):
        one cumulative pass of an 8-point Gauss-Legendre rule on every
        interval between the reduced G(x) and G(x_ref), the t nodes of rho
        and, if folded, t_a and t_b. A folded seed's integral from t_a to t
        is then (k + back) 2 H + sign I(s), I(s) the pass's from t_a to s,
        H = I(t_b) and back where sign is -1."""
        g = self._g
        tq = g.value(np.asarray(x, dtype=float))
        k, s, sign = self._reduce(np.append(tq, g.value(np.float64(x_ref))))
        ends = np.append(s, self._fold or ())
        nodes = self.rho.xs
        inside = (nodes > ends.min()) & (nodes < ends.max())
        knots = np.unique(np.concatenate([ends, nodes[inside]]))
        mid = 0.5 * (knots[1:] + knots[:-1])
        half = 0.5 * (knots[1:] - knots[:-1])
        pts = mid[:, None] + half[:, None] * _GL_NODES
        rho = self.rho.evaluate(pts.ravel())[0].reshape(pts.shape)
        segments = half * ((p.c / (rho * rho)) @ _GL_WEIGHTS)
        cum = np.concatenate([[0.0], np.cumsum(segments)])
        if not np.all(np.isfinite(cum)):
            raise NonFinite(f"phase integral from x_ref={x_ref} is not finite")
        at = cum[np.searchsorted(knots, s)]
        if self._fold:
            at_a, at_b = cum[np.searchsorted(knots, self._fold)]
            at = (k + (sign < 0.0)) * 2.0 * (at_b - at_a) + sign * (at - at_a)
        return (at[:-1] - at[-1]).reshape(np.shape(tq))


def closed_form_residual(p: GPParams, xs) -> np.ndarray:
    """Residual of the closed form against the equation, with exact curvature.

    As rho is constant at the equilibrium, r = rho/sqrt(G') has
    r'' = -(1/2){G, x} r, with {G, x} exact from the derivatives of G: the
    result measures the algebraic identity itself (machine-precision zero
    under the constraint) rather than any differencing error.
    """
    xs = np.asarray(xs, dtype=float)
    d1, d2 = p.g.prime(xs), p.g.second(xs)
    r = _equilibrium(p, d1, d2)[0]
    q = _schwarzian_of(d1, d2, p.g.third(xs))
    return -0.5 * q * r - gp_rhs(p).rhs(xs, r)


def phase(p: GPParams, x, r_source, x_ref: float):
    """Phase theta(x) from r^2 theta' = c, equal to theta0 at ``x_ref``:
    theta0 plus the seed's ``phase_integral`` of c/r^2 from ``x_ref``, in
    closed form or, for a LiouvilleSolution, in t over its t nodes."""
    theta = p.theta0 + r_source.phase_integral(p, x, x_ref)
    return float(theta) if np.ndim(x) == 0 else theta
