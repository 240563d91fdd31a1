"""The reduced Gross-Pitaevskii amplitude equation and its closed forms.

The stationary ansatz psi = r(x) exp(i(theta(x) - mu t)) with r^2 theta' = c
reduces the cubic Schrodinger equation to

    r'' = c^2/r^3 + L(x) r + b x^(3n-3) (1 + 2 eta x^n)^3 r^3,
    L(x) = (n^2-1)/(4x^2) + 3 x^(2n-2) eta^2 n^2 / (1 + 2 eta x^n)^2.

L equals -(1/2) {G, x} for G(x) = x^n (1 + eta x^n), which is what ties the
equation to the translation-map transformation machinery. The closed-form
amplitude r = v / sqrt(x^(n-1)(1 + 2 eta x^n)) solves the equation exactly
when b v^6 + c^2 = 0 and is a fixed point of the transformation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .calculus import schwarzian
from .errors import ConstraintViolated, DomainError, NonFinite
from .functional import PolyG
from .ode import SecondOrderODE

_X_FLOOR = 1e-8
_CONSTRAINT_RTOL = 1e-10
# 8-point Gauss-Legendre rule on [-1, 1] for the phase integral
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


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
        # numpy's power gives inf or 0 where Python's raises for an extreme v
        return cls(n=n, eta=eta, b=float(-(c * c) / np.float64(v) ** 6), c=c,
                   v=v)


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
    g_map = PolyG(p.n, eta[..., None, None]).as_smooth_map(
        with_derivatives=False)
    z = np.broadcast_to(x, np.broadcast_shapes(eta.shape, np.shape(x)))
    return linear_coefficient(p, x) + 0.5 * schwarzian(g_map, z)


def _shape(p: GPParams, x):
    """s(x) = x^(n-1) (1 + 2 eta x^n) and its first two derivatives; the
    closed form is defined for x > 0 only."""
    if np.any(np.asarray(x) <= 0.0):
        raise DomainError("closed-form amplitude is defined for x > 0")
    n, eta = p.n, p.eta
    s = x ** (n - 1) + 2.0 * eta * x ** (2 * n - 1)
    s1 = (n - 1) * x ** (n - 2) + 2.0 * eta * (2 * n - 1) * x ** (2 * n - 2)
    s2 = ((n - 1) * (n - 2) * x ** (n - 3)
          + 2.0 * eta * (2 * n - 1) * (2 * n - 2) * x ** (2 * n - 3))
    return s, s1, s2


@dataclass(frozen=True)
class ClosedFormSolution:
    """Closed-form amplitude with exact derivatives, usable as a transform seed."""

    params: GPParams
    warn: bool = True

    def __post_init__(self) -> None:
        p = self.params
        if self.warn and not p.satisfies_constraint():
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

    def value(self, x):
        s, _, _ = _shape(self.params, x)
        return self.params.v / np.sqrt(s)

    def derivative(self, x):
        s, s1, _ = _shape(self.params, x)
        return -0.5 * self.params.v * s1 * s ** -1.5

    def second_derivative(self, x):
        s, s1, s2 = _shape(self.params, x)
        v = self.params.v
        return -0.5 * v * s2 * s ** -1.5 + 0.75 * v * s1 * s1 * s ** -2.5

    def eval_with_derivative(self, xs):
        s, s1, _ = _shape(self.params, np.asarray(xs, dtype=float))
        if not np.all(np.isfinite(s)):
            raise NonFinite("x^(n-1) (1 + 2 eta x^n) overflows on the "
                            "requested points")
        v = self.params.v
        return (np.atleast_1d(v / np.sqrt(s)),
                np.atleast_1d(-0.5 * v * s1 * s ** -1.5))


def closed_form_residual(p: GPParams, xs) -> np.ndarray:
    """Residual of the closed form against the equation, with exact curvature.

    Uses the analytic second derivative, so the result measures the
    algebraic identity itself (machine-precision zero under the constraint)
    rather than any differencing error.
    """
    xs = np.asarray(xs, dtype=float)
    sol = ClosedFormSolution(p, warn=False)
    ode = gp_rhs(p)
    return sol.second_derivative(xs) - ode.rhs(xs, sol.value(xs))


def phase(p: GPParams, x, r_source, x_ref: float):
    """Phase theta(x) from r^2 theta' = c, equal to theta0 at ``x_ref``.

    For a ClosedFormSolution source the antiderivative is c G(x) / (n v^2),
    and ``x_ref`` may be 0, where G vanishes. Numerical sources expose their
    interpolation nodes ``xs`` and ``eval_with_derivative``; c / r^2 is
    integrated from ``x_ref`` in one cumulative pass, with an 8-point
    Gauss-Legendre rule on every interval between consecutive query points,
    nodes and ``x_ref``.
    """
    if isinstance(r_source, ClosedFormSolution):
        scale = p.c / (p.n * p.v * p.v)
        ref = 0.0 if x_ref == 0.0 else p.g.value(x_ref)
        return p.theta0 + scale * (p.g.value(x) - ref)

    xq = np.asarray(x, dtype=float)
    ends = np.append(xq, x_ref)
    nodes = np.asarray(r_source.xs)
    inside = (nodes > ends.min()) & (nodes < ends.max())
    knots = np.unique(np.concatenate([ends, nodes[inside]]))
    mid = 0.5 * (knots[1:] + knots[:-1])
    half = 0.5 * (knots[1:] - knots[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES
    r = r_source.eval_with_derivative(pts.ravel())[0].reshape(pts.shape)
    segments = half * ((p.c / (r * r)) @ _GL_WEIGHTS)
    cum = np.concatenate([[0.0], np.cumsum(segments)])
    if not np.all(np.isfinite(cum)):
        raise NonFinite(f"phase integral from x_ref={x_ref} is not finite")
    theta = p.theta0 + (cum[np.searchsorted(knots, xq)]
                        - cum[np.searchsorted(knots, x_ref)])
    return float(theta) if xq.ndim == 0 else theta
