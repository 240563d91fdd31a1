import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import is_fixed_point, transform
from gpbacklund.errors import (ConstraintViolated, DomainError, NonFinite,
                               OutOfRange)
from gpbacklund.functional import Mobius, ShiftMap
from gpbacklund.cli import main
from gpbacklund import gp as gp_module
from gpbacklund.gp import (ClosedFormSolution, GPParams, LiouvilleSolution,
                           _period, closed_form_residual, energy, gp_rhs,
                           linear_coefficient, linear_coefficient_check, phase)
from gpbacklund.ode import (SecondOrderODE, SolutionGrid, ToleranceSpec,
                            integrate, integrate_span, residual_max,
                            stationary_points)

SWEEP = [(n, eta) for n in (1, 2, 3) for eta in (0.0, 0.5, 1.0)]
EPS = float(np.finfo(float).eps)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GPParams(n=0, eta=0.0, b=-1.0, c=1.0)
        with pytest.raises(ValueError):
            GPParams(n=1, eta=-1.0, b=-1.0, c=1.0)
        with pytest.raises(ValueError):
            GPParams(n=1, eta=math.nan, b=-1.0, c=1.0)
        with pytest.raises(ValueError):
            GPParams(n=1, eta=0.0, b=-1.0, c=1.0, v=0.0)

    @pytest.mark.parametrize("v", [5e-324, 1e300])
    def test_constrained_fails_closed(self, v):
        # v^6 is 0 or inf, so b = -c^2/v^6 is not finite
        with np.errstate(over="ignore", under="ignore"), \
                pytest.raises(NonFinite, match=re.escape(f"for v={v:g}")):
            GPParams.constrained(n=1, eta=1.0, c=1.0, v=v)

    def test_constraint(self):
        p = GPParams(n=1, eta=0.0, b=-1.0, c=1.0, v=1.0)
        assert p.satisfies_constraint()
        assert p.constraint_residual == pytest.approx(0.0)
        q = GPParams(n=1, eta=0.0, b=-0.99, c=1.0, v=1.0)
        assert not q.satisfies_constraint()

    def test_constrained_constructor(self):
        p = GPParams.constrained(n=2, eta=0.5, c=2.0, v=1.5)
        assert p.satisfies_constraint()
        assert p.b == pytest.approx(-4.0 / 1.5 ** 6)


class TestRhs:
    def test_constant_solution_balance(self):
        p = GPParams(n=1, eta=0.0, b=-1.0, c=1.0, v=1.0)
        assert gp_rhs(p).rhs(2.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_all_terms_vanish(self):
        p = GPParams(n=1, eta=0.0, b=0.0, c=0.0)
        assert gp_rhs(p).rhs(2.0, 3.0) == 0.0

    def test_centrifugal_like_term(self):
        p = GPParams(n=2, eta=0.0, b=0.0, c=0.0)
        assert gp_rhs(p).rhs(1.0, 1.0) == pytest.approx(0.75)

    def test_vectorized_evaluation(self):
        p = GPParams.constrained(n=2, eta=0.5, c=1.0)
        xs = np.linspace(0.5, 3.0, 7)
        rs = np.linspace(0.8, 1.2, 7)
        vals = gp_rhs(p).rhs(xs, rs)
        assert vals.shape == xs.shape

    def test_integrates_constant_solution(self):
        p = GPParams(n=1, eta=0.0, b=-1.0, c=1.0, v=1.0)
        dense = integrate(gp_rhs(p), 1.0, 1.0, 0.0, 5.0,
                          ToleranceSpec(1e-10, 1e-10))
        assert abs(dense.evaluate(5.0)[0] - 1.0) < 1e-7


class TestLinearCoefficient:
    def test_trivial_for_n1_eta0(self):
        p = GPParams(n=1, eta=0.0, b=-1.0, c=1.0)
        assert abs(linear_coefficient_check(p, 1.7)) < 1e-8

    def test_square_map_oracle(self):
        # {x^2, x} = -3/(2 x^2), so -(1/2){G,x} = 3/(4 x^2) = 3/4 at x=1
        p = GPParams(n=2, eta=0.0, b=-1.0, c=1.0)
        assert linear_coefficient(p, 1.0) == pytest.approx(0.75)
        assert abs(linear_coefficient_check(p, 1.0)) < 1e-8

    def test_fd_oracle_case(self):
        p = GPParams(n=1, eta=1.0, b=-1.0, c=1.0)
        assert abs(linear_coefficient_check(p, 1.5)) < 1e-6

    def test_sweep(self):
        worst = 0.0
        for n, eta in SWEEP:
            p = GPParams(n=n, eta=eta, b=-1.0, c=1.0)
            for x in np.linspace(0.5, 5.0, 10):
                worst = max(worst, abs(linear_coefficient_check(p, float(x))))
        assert worst < 1e-6

    def test_domain_guard(self):
        p = GPParams(n=1, eta=0.0, b=-1.0, c=1.0)
        with pytest.raises(DomainError):
            linear_coefficient_check(p, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 4), eta=st.floats(0.0, 2.0),
           x=st.floats(0.1, 5.0))
    def test_equals_closed_form_schwarzian(self, n, eta, x):
        """L = -(1/2){G, x} with {G, x} in closed form (PolyG.schwarzian),
        to a few roundings of the two sides (at most 6.4 eps over 5,000
        random draws). Where both sides are subnormal (n = 1 and eta below
        about 1e-154), a rounding is the smallest subnormal instead."""
        p = GPParams(n=n, eta=eta, b=-1.0, c=1.0)
        lin, q = linear_coefficient(p, x), p.g.schwarzian(x)
        assert abs(lin + 0.5 * q) <= 16 * max(
            EPS * (abs(lin) + 0.5 * abs(q)), np.finfo(float).smallest_subnormal)


class TestClosedForm:
    @pytest.mark.parametrize("n,eta,v,x,expected", [
        (1, 0.0, 1.0, 7.0, 1.0),
        (1, 1.0, 1.0, 1.0, 1.0 / math.sqrt(3.0)),
        (2, 0.0, 2.0, 4.0, 1.0),
    ])
    def test_values(self, n, eta, v, x, expected):
        p = GPParams.constrained(n=n, eta=eta, c=1.0, v=v)
        (r,), _ = ClosedFormSolution(p).eval_with_derivative(x)
        assert r == pytest.approx(expected, rel=1e-14)

    def test_positive_everywhere(self):
        p = GPParams.constrained(n=3, eta=1.0, c=1.0)
        xs = np.logspace(-3, 1, 40)
        assert np.all(ClosedFormSolution(p).eval_with_derivative(xs)[0] > 0.0)

    def test_warns_when_constraint_broken(self):
        p = GPParams(n=1, eta=0.0, b=-0.99, c=1.0, v=1.0)
        with pytest.warns(ConstraintViolated):
            ClosedFormSolution(p)

    def test_domain_guard(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0)
        with pytest.raises(DomainError):
            ClosedFormSolution(p).eval_with_derivative([1.0, 0.0])

    # r and r' are read by eval_with_derivative, r'' by the residual
    READS = {"value": lambda sol, x: sol.eval_with_derivative(x)[0],
             "derivative": lambda sol, x: sol.eval_with_derivative(x)[1],
             "second_derivative": lambda sol, x: closed_form_residual(
                 sol.params, x)}

    @pytest.mark.parametrize("method", list(READS))
    @pytest.mark.parametrize("x", [-1.0, 0.0])
    def test_pointwise_domain_guard(self, method, x):
        # no nan, complex value or bare ZeroDivisionError off the domain
        sol = ClosedFormSolution(GPParams.constrained(n=2, eta=0.5, c=1.0))
        with pytest.raises(DomainError):
            self.READS[method](sol, x)

    def test_derivatives_match_finite_differences(self):
        """r' of eval_with_derivative and r'' = -(1/2){G, x} r, the
        curvature closed_form_residual takes, against differences of r."""
        p = GPParams.constrained(n=2, eta=0.7, c=1.0)
        sol = ClosedFormSolution(p)
        for x in (0.6, 1.1, 2.4):
            h = 1e-6 * x
            (r_lo, r, r_hi), (_, rp, _) = sol.eval_with_derivative(
                [x - h, x, x + h])
            assert rp == pytest.approx((r_hi - r_lo) / (2 * h), rel=1e-8)
            h = 1e-4 * x  # second difference needs a larger step
            r_lo, r, r_hi = sol.eval_with_derivative([x - h, x, x + h])[0]
            fd2 = (r_hi - 2 * r + r_lo) / h ** 2
            rpp = -0.5 * p.g.schwarzian(x) * r
            assert rpp == pytest.approx(fd2, rel=1e-6)

    @pytest.mark.parametrize("n,eta", SWEEP)
    def test_residual_vanishes_under_constraint(self, n, eta):
        p = GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0)
        xs = np.linspace(0.5, 5.0, 401)
        assert np.max(np.abs(closed_form_residual(p, xs))) < 1e-7

    @pytest.mark.parametrize("n,eta", SWEEP)
    def test_constraint_is_active(self, n, eta):
        p = GPParams(n=n, eta=eta, b=-1.0 + 0.01, c=1.0, v=1.0)
        xs = np.linspace(0.5, 5.0, 401)
        assert np.max(np.abs(closed_form_residual(p, xs))) >= 1e-3

    def test_fd_residual_agrees_where_well_conditioned(self):
        # the grid-stencil route reproduces the analytic zero residual on a
        # region where the sixth derivative stays small
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        xs = np.linspace(1.0, 5.0, 401)
        rs, rps = ClosedFormSolution(p).eval_with_derivative(xs)
        grid = SolutionGrid(xs, rs, rps)
        assert residual_max(gp_rhs(p), grid) < 1e-8

    def test_closed_form_is_transform_fixed_point(self):
        p = GPParams.constrained(n=2, eta=0.5, c=1.0, v=1.0)
        seed = ClosedFormSolution(p)
        shift = ShiftMap(p.g, 0.75)
        grid = transform(shift, seed, np.linspace(0.5, 3.0, 101))
        res = is_fixed_point(seed.eval_with_derivative(grid.xs)[0],
                             grid.r0_f, grid.f_prime)
        assert res.is_fixed and res.deviation < 1e-10


def closed_r(p):
    """The closed form of p as a function of one point."""
    return lambda x: ClosedFormSolution(p).eval_with_derivative(x)[0][0]


def closed_phase(p, x, x_ref=0.0):
    """Phase of the closed form of p, anchored at x_ref."""
    return phase(p, x, ClosedFormSolution(p), x_ref)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def phase_in_x(c, amplitude, xs):
    """The integral of c/r^2 from xs[0] to every point of xs, by an 8-point
    Gauss-Legendre rule in x on each interval between them, with r read
    from ``amplitude`` at the rule's points: a quadrature independent of
    gp.phase's, which is in t."""
    mid, half = 0.5 * (xs[1:] + xs[:-1]), 0.5 * (xs[1:] - xs[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES
    r = amplitude(pts.ravel()).reshape(pts.shape)
    return np.concatenate([[0.0], np.cumsum(half * ((c / (r * r))
                                                    @ _GL_WEIGHTS))])


class TestPhase:
    def test_no_rotation(self):
        p = GPParams(n=1, eta=0.0, b=0.0, c=0.0, theta0=0.4)
        assert closed_phase(p, 2.0) == pytest.approx(0.4)

    def test_linear_phase(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        assert closed_phase(p, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_underflowing_v_squared_raises(self):
        # v^2 = 0: the closed form's phase c G(x)/(n v^2) is not finite
        p = GPParams(n=1, eta=1.0, b=-1.0, c=1.0, v=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConstraintViolated)
            seed = ClosedFormSolution(p)
        with pytest.raises(NonFinite, match=r"v\^2, which underflows"):
            phase(p, [1.0], seed, 0.0)

    def test_closed_form_antiderivative(self):
        # c G(x)/(n v^2) at n=1, eta=1, x=1: G(1) = 2
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        assert closed_phase(p, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        """theta0 + c (G(x) - G(x_ref))/(n v^2) is the closed form's phase
        bit for bit. A seed integrated in t from the closed form's data
        gives it to 1e-13, with the query points and x_ref off its t nodes
        (measured: 1.4e-14 where theta reaches 34 rad, two ulps of it)."""
        xs = np.linspace(0.5, 3.0, 301)
        for n, eta, v, theta0, x_ref in [(2, 0.5, 1.0, 0.0, 0.5),
                                         (1, 1.0, 0.7, 0.4, 1.7),
                                         (3, 0.2, 1.3, -2.0, 2.95)]:
            p = dataclasses.replace(
                GPParams.constrained(n=n, eta=eta, c=1.0, v=v),
                theta0=theta0)
            want = p.theta0 + p.c / (p.n * p.v * p.v) * (
                p.g.value(xs) - p.g.value(x_ref))
            cf = ClosedFormSolution(p)
            assert np.array_equal(phase(p, xs, cf, x_ref), want)
            (r0,), (rp0,) = cf.eval_with_derivative(0.5)
            seed = LiouvilleSolution(p, 0.5, r0, rp0, 0.5, 3.0,
                                     ToleranceSpec(1e-10, 1e-10))
            got = phase(p, xs, r_source=seed, x_ref=x_ref)
            assert np.max(np.abs(got - want)) < 1e-13
            assert phase(p, 2.5, seed, x_ref) == pytest.approx(
                want[240], abs=1e-13)

    def test_reference_point_offset(self):
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        assert closed_phase(p, 2.0, x_ref=1.0) == pytest.approx(
            closed_phase(p, 2.0) - closed_phase(p, 1.0), abs=1e-14)

    @pytest.mark.parametrize("n,eta,k", [(1, 1.0, 0.5), (2, 0.5, 0.75)])
    def test_transformed_phase_is_seed_phase_of_f(self, n, eta, k):
        """theta1 = theta0 o f + const, since r1^2 = r0(f)^2 / f' gives
        theta1' = c f' / r0(f)^2 = (theta0 o f)'.

        The seed is integrated off the closed form (amplitude and slope
        15% high). theta1 integrates c/r1^2 in x, with r1 the transform
        itself at every quadrature point; theta0 o f is gp.phase's, in t.
        The spread of theta1 - theta0 o f is 4.9e-15 (n = 1) and 8.0e-15
        (n = 2). The phase itself moves by 4 to 5 rad.
        """
        p = GPParams(n=n, eta=eta, b=-1.0, c=1.0)
        (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(1.0)
        seed = LiouvilleSolution(p, 1.0, 1.15 * r0, 1.15 * rp0, 1.0,
                                 3.5, ToleranceSpec(1e-10, 1e-10))
        shift = ShiftMap(p.g, k)
        xs = np.linspace(1.0, 2.0, 201)

        def r1(pts):
            grid = transform(shift, seed, pts)
            assert grid.meta["trimmed"] == 0
            return grid.rs

        theta1 = phase_in_x(p.c, r1, xs)
        theta0_f = phase(p, shift.f(xs), r_source=seed, x_ref=1.0)
        assert np.ptp(theta1) > 4.0
        assert np.ptp(theta1 - theta0_f) < 1e-13

    def test_non_finite_integral_raises(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        seed = LiouvilleSolution(p, 1.0, 1.0, 0.0, 1.0, 2.0,
                                 ToleranceSpec(1e-10, 1e-10))
        q = GPParams(n=1, eta=0.0, b=-1.0, c=math.inf)
        with pytest.raises(NonFinite, match="phase integral from x_ref=1.0"):
            phase(q, np.linspace(1.0, 2.0, 5), r_source=seed, x_ref=1.0)


class TestPinneyExactSolution:
    """With b = 0 the Liouville variables rho = sqrt(G') r, t = G(x) turn the
    equation into Ermakov-Pinney, rho_tt = c^2/rho^3, whose solutions are
    rho^2 = A + 2Bt + Ct^2 with AC - B^2 = c^2 (Pinney 1950). So
    r = G'^(-1/2) sqrt(A + 2BG + CG^2) and r^2 theta' = c gives
    theta = theta0 + arctan((CG + B)/c) up to the anchor.

    Integrated from the exact data at x = 0.9 to tolerance 1e-11, the
    errors were 2.0e-12 relative in r, 1.5e-10 absolute in r' and 1.1e-12
    in the phase; the bounds are 10, 100 and 10 times the tolerance.
    """

    TOL = 1e-11
    A, B, C_ANG = 2.0, 0.4, 1.3
    C = (C_ANG ** 2 + B ** 2) / A  # AC - B^2 = c^2

    def exact(self, p, x, coefficients=None):
        A, B, C = coefficients or (self.A, self.B, self.C)
        g, gp, gpp = p.g.value(x), p.g.prime(x), p.g.second(x)
        q = A + 2.0 * B * g + C * g * g
        r = np.sqrt(q / gp)
        rp = ((B + C * g) * gp / np.sqrt(q)
              - np.sqrt(q) * gpp / (2.0 * gp)) / np.sqrt(gp)
        theta = np.arctan((C * g + B) / self.C_ANG)
        return r, rp, theta

    def test_integrated_seed_matches_the_exact_solution(self):
        p = GPParams(n=2, eta=0.7, b=0.0, c=self.C_ANG, theta0=0.3)
        x0 = 0.9
        r0, rp0, theta_ref = self.exact(p, x0)
        dense = integrate(gp_rhs(p), x0, float(r0), float(rp0), 2.0,
                          ToleranceSpec(self.TOL, self.TOL))
        xs = np.linspace(x0, 2.0, 401)
        r, rp = dense.evaluate(xs)
        r_ex, rp_ex, _ = self.exact(p, xs)
        assert np.ptp(rp_ex) > 0.5  # far from any constant-amplitude form
        assert np.max(np.abs(r / r_ex - 1.0)) < 10 * self.TOL
        assert np.max(np.abs(rp - rp_ex)) < 100 * self.TOL

    def test_liouville_seed_matches_the_exact_solution(self):
        """The same data integrated in t = G(x) meets the same bounds, and
        its phase, integrated in t, meets the phase's."""
        p = GPParams(n=2, eta=0.7, b=0.0, c=self.C_ANG, theta0=0.3)
        x0 = 0.9
        r0, rp0, theta_ref = self.exact(p, x0)
        seed = LiouvilleSolution(p, x0, float(r0), float(rp0), x0, 2.0,
                                 ToleranceSpec(self.TOL, self.TOL))
        xs = np.linspace(x0, 2.0, 401)
        r, rp = seed.eval_with_derivative(xs)
        r_ex, rp_ex, theta_ex = self.exact(p, xs)
        theta = phase(p, xs, r_source=seed, x_ref=x0)
        assert np.max(np.abs(r / r_ex - 1.0)) < 10 * self.TOL
        assert np.max(np.abs(rp - rp_ex)) < 100 * self.TOL
        assert np.max(np.abs(theta - (p.theta0 + theta_ex - theta_ref))) \
            < 10 * self.TOL

    @pytest.mark.parametrize("n, eta, K", [
        (n, eta, K) for n in (1, 2, 3) for eta in (0.0, 0.3, 0.7, 1.0)
        for K in (-0.3, 0.25, 0.8, 2.0)])
    def test_transform_is_the_shifted_member(self, n, eta, K):
        """The transform translates t by K, so it maps the exact member
        (A, B, C) to (A + 2BK + CK^2, B + CK, C), which keeps AC - B^2 = c^2.

        Transformed from the exact seed, the largest deviations over this
        grid were 8.9e-16 relative in r and 1.3e-15 of max|r'|.
        """
        p = GPParams(n=n, eta=eta, b=0.0, c=self.C_ANG)
        A, B, C = self.A, self.B, self.C
        shifted = (A + 2.0 * B * K + C * K * K, B + C * K, C)
        assert shifted[0] * C - shifted[1] ** 2 == pytest.approx(
            self.C_ANG ** 2, rel=1e-14)
        seed = type("ExactSeed", (), {
            "domain": (0.0, math.inf),
            "eval_with_derivative": lambda _, xs: self.exact(p, xs)[:2]})()
        xs = np.linspace(0.9, 2.0, 201)
        grid = transform(ShiftMap(p.g, K), seed, xs)
        r_ex, rp_ex, _ = self.exact(p, xs, shifted)
        assert grid.meta["trimmed"] == 0
        assert np.max(np.abs(grid.rs / r_ex - 1.0)) < 1e-14
        assert np.max(np.abs(grid.rps - rp_ex)) < 1e-12 * np.max(np.abs(rp_ex))

    def test_exact_solution_has_zero_residual(self):
        """The oracle itself: r'' from a fine central difference of the
        exact r' matches the equation's right-hand side."""
        p = GPParams(n=2, eta=0.7, b=0.0, c=self.C_ANG)
        xs = np.linspace(0.9, 2.0, 23)
        h = 1e-5
        rpp = (self.exact(p, xs + h)[1] - self.exact(p, xs - h)[1]) / (2 * h)
        rhs = gp_rhs(p).rhs(xs, self.exact(p, xs)[0])
        assert np.max(np.abs(rpp - rhs)) < 1e-8


class TestMobiusImage:
    """The transform G(f) = m(G(x)) for a Mobius m with det > 0, read
    test-locally: f = G^{-1}(m(G(x))), f' = m'(G) G'(x)/G'(f) and
    r1 = r0(f)/sqrt(f'). In t = G(x) it is rho1(t) = rho0(m(t))/sqrt(m'(t)).
    {m o G, x} = {G, x}, so for b = 0 every such m transforms, while for
    b != 0 the cubic term admits only the translations m(t) = t + K. The
    FD residuals are on 401 points of [0.9, 2.0]."""

    XS = np.linspace(0.9, 2.0, 401)
    # not translations; c t + d > 0 and m(t) > 0 for t >= G(0.9) below
    MOBIUS = [Mobius(1.0, 0.5, 0.2, 1.0), Mobius(2.0, 0.0, 0.3, 1.5),
              Mobius(0.5, 2.0, 0.1, 1.0), Mobius(1.5, -0.4, 0.25, 1.0)]

    @staticmethod
    def image(p, r0, m, xs):
        g, w = p.g, p.g.value(xs)
        f = g.inverse(m(w))
        fp = m.det / (m.c * w + m.d) ** 2 * g.prime(xs) / g.prime(f)
        return r0(f) / np.sqrt(fp)

    @staticmethod
    def residual(p, xs, r):
        # on a uniform grid the FD residual reads r only
        return residual_max(gp_rhs(p),
                            SolutionGrid(xs, r, np.zeros_like(r)))

    @pytest.mark.parametrize("m", MOBIUS)
    @pytest.mark.parametrize("n, eta", [(1, 0.0), (1, 0.5), (2, 0.7),
                                        (3, 0.3), (3, 1.0)])
    def test_pinney_image_is_a_family_member(self, n, eta, m):
        """rho1^2 = (ct + d)^2 Q(m(t))/det with Q(t) = A + 2Bt + Ct^2 is the
        member (A', B', C') below, and A'C' - B'^2 = c^2 again. The image
        matched it to 8.9e-16 relative; its FD residual, 4.1e-10 to 3.0e-9,
        was 0.45 to 3.4 times that of the seed itself."""
        pinney = TestPinneyExactSolution()
        A, B, C = pinney.A, pinney.B, pinney.C
        a, b, c, d = m.a, m.b, m.c, m.d
        member = ((A * d * d + 2.0 * B * b * d + C * b * b) / m.det,
                  (A * c * d + B * (a * d + b * c) + C * a * b) / m.det,
                  (A * c * c + 2.0 * B * a * c + C * a * a) / m.det)
        assert member[0] * member[2] - member[1] ** 2 == pytest.approx(
            pinney.C_ANG ** 2, rel=1e-14)
        p = GPParams(n=n, eta=eta, b=0.0, c=pinney.C_ANG)
        xs = self.XS
        r1 = self.image(p, lambda x: pinney.exact(p, x)[0], m, xs)
        assert np.max(np.abs(r1 / pinney.exact(p, xs, member)[0] - 1.0)) \
            < 1e-14
        assert self.residual(p, xs, r1) \
            < 10.0 * self.residual(p, xs, pinney.exact(p, xs)[0])

    @pytest.mark.parametrize("n, eta", [(1, 0.5), (2, 0.7), (3, 0.3)])
    def test_only_translations_transform_a_cubic_seed(self, n, eta):
        """The closed form of b = -c^2/v^6 under each m: FD residuals of
        18 to 3.3e4 (its own is at most 1e-9). Under a translation it is
        its own image to rounding (4.4e-16), a fixed point."""
        p = GPParams.constrained(n=n, eta=eta, c=1.0)
        cf = ClosedFormSolution(p)
        xs = self.XS

        def r0(x):
            return cf.eval_with_derivative(x)[0]

        for m in self.MOBIUS:
            assert self.residual(p, xs, self.image(p, r0, m, xs)) > 1.0
        for K in (0.3, 1.7):
            r1 = self.image(p, r0, Mobius(1.0, K, 0.0, 1.0), xs)
            assert np.max(np.abs(r1 / r0(xs) - 1.0)) < 4 * EPS
            assert self.residual(p, xs, r1) < 1e-8


def closed_form_seed(p, x0, x_lo, x_hi, tol=1e-10):
    """A seed integrated in t from the closed form's data at x0."""
    (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(x0)
    return LiouvilleSolution(p, x0, r0, rp0, x_lo, x_hi,
                             ToleranceSpec(tol, tol))


def read_t(seed, ts):
    """(rho, rho_t) of a LiouvilleSolution at ts, folded or not, through
    its reducer: rho(s) and sign rho_t(s) from its only table."""
    _, s, sign = seed._reduce(np.asarray(ts, dtype=float))
    rho, rho_t = seed.rho.evaluate(s)
    return rho, sign * rho_t


class TestLiouvilleSolution:
    """rho = sqrt(G') r in t = G(x): the closed form is the equilibrium
    rho = v sqrt(n) and the transform is the translation t -> t + K."""

    def test_closed_form_start_stays_on_it(self):
        p = GPParams.constrained(n=2, eta=0.7, c=1.0)
        x_hi = float(p.g.inverse(p.g.value(1.0) + 4.0))
        seed = closed_form_seed(p, 1.0, 1.0, x_hi)
        xs = np.linspace(1.0, x_hi, 501)
        r, rp = seed.eval_with_derivative(xs)
        r_cf, rp_cf = ClosedFormSolution(p).eval_with_derivative(xs)
        assert seed.meta["steps"] <= 10
        assert np.max(np.abs(r / r_cf - 1.0)) < 1e-14
        assert np.max(np.abs(rp - rp_cf)) < 1e-13

    def test_closed_form_start_over_a_long_span(self):
        """A t span of 1120 is about 360 periods of the linearised
        oscillation; the step bound keeps the rounding error from growing
        (it reached 7e-9 with unbounded steps)."""
        p = GPParams.constrained(n=3, eta=1.5, c=1.2, v=0.7)
        seed = closed_form_seed(p, 1.1, 0.8, 3.0)
        xs = np.linspace(0.8, 3.0, 2001)
        r = seed.eval_with_derivative(xs)[0]
        r_cf = ClosedFormSolution(p).eval_with_derivative(xs)[0]
        assert np.max(np.abs(r / r_cf - 1.0)) < 1e-14

    def test_no_less_accurate_than_integrating_in_x(self):
        """An orbit seed of the benchmark (orbit pool of seed 2, case
        orbit2, rounded): against integrate_span at 1e-14, the seed's worst
        errors in r and r' are 0.09 and 0.08 times those of integrating in
        x at the same tolerance. Dividing the tolerance by 3 instead of 60
        gives 1.7 and 1.5 times."""
        p = GPParams(n=1, eta=0.8518, b=-1.0, c=1.0)
        data = (0.9484, 0.618, -0.2013, 0.9484, 4.654)
        xs = np.linspace(0.9484, 4.654, 4001)
        ref = integrate_span(gp_rhs(p), *data, ToleranceSpec(1e-14, 1e-14))
        r_ref, rp_ref = ref.evaluate(xs)
        tol = ToleranceSpec(1e-11, 1e-11)
        errors = []
        for read in (integrate_span(gp_rhs(p), *data, tol).evaluate,
                     LiouvilleSolution(p, *data, tol).eval_with_derivative):
            r, rp = read(xs)
            errors.append((np.max(np.abs(r / r_ref - 1.0)),
                           np.max(np.abs(rp - rp_ref))))
        (x_r, x_rp), (t_r, t_rp) = errors
        assert t_r < x_r and t_rp < x_rp

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 3), eta=st.floats(0.0, 2.0),
           factor=st.floats(0.8, 1.2), K=st.floats(-0.5, 2.0))
    def test_transform_is_a_translation_in_t(self, n, eta, factor, K):
        """r1(x) = rho(G(x) + K)/sqrt(G'(x)) and r1' = rho_t sqrt(G')
        - r1 G''/(2 G'), read from the seed's rho in t.

        The seed spans t from G(0.5) to G(0.5) + 10, so every K keeps most
        of it.
        """
        p = GPParams.constrained(n=n, eta=eta, c=1.0)
        x_hi = float(p.g.inverse(p.g.value(0.5) + 10.0))
        x0 = 0.5 * (0.5 + x_hi)
        (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(x0)
        seed = LiouvilleSolution(p, x0, factor * r0, factor * rp0, 0.5,
                                 x_hi, ToleranceSpec(1e-10, 1e-10))
        grid = transform(ShiftMap(p.g, K), seed, np.linspace(0.5, x_hi, 201))
        xs, gp = grid.xs, p.g.prime(grid.xs)
        rho, rho_t = read_t(seed, p.g.value(xs) + K)
        r = rho / np.sqrt(gp)
        rp = rho_t * np.sqrt(gp) - r * p.g.second(xs) / (2.0 * gp)
        assert np.max(np.abs(grid.rs / r - 1.0)) < 1e-13
        assert np.max(np.abs(grid.rps - rp)) <= 1e-12 * np.max(np.abs(rp))

    @pytest.mark.parametrize("folded", [False, True],
                             ids=["unfolded", "folded"])
    def test_seed_protocol_in_x(self, folded):
        """A folded seed reads its span through the reducer, not through a
        table over the span, and fails closed as an unfolded one does."""
        if folded:
            _, seed, _, _ = TestFold.seed(1, 0.5, 0.1, 8.0, start=0.4)
        else:
            p = GPParams.constrained(n=2, eta=0.5, c=1.0)
            seed = closed_form_seed(p, 1.2, 0.9, 2.0)
            assert seed.domain == (0.9, 2.0) and seed.meta["x0"] == 1.2
        lo, hi = seed.domain
        assert ("turning_points" in seed.meta) == folded
        assert seed.meta["frame"] == "t = G(x)"
        r, rp = seed.eval_with_derivative(np.array([lo, hi]))
        assert r.shape == rp.shape == (2,)
        interval = re.escape(f"outside [{lo}, {hi}]")
        for x in (hi + 0.5, lo - 0.1):
            with pytest.raises(OutOfRange, match=interval):
                seed.eval_with_derivative([lo, x])
        with pytest.raises(NonFinite, match="query point 1 of 2 is nan"):
            seed.eval_with_derivative([lo, math.nan])

    def test_overflowing_g_raises(self):
        p = GPParams.constrained(n=2, eta=0.5, c=1.0)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFinite, match=r"\[1, 1e\+200\]"):
            closed_form_seed(p, 1.0, 1.0, 1e200)


def recorded_spans(monkeypatch):
    """The (x_lo, x_hi) of every integrate_span call LiouvilleSolution makes."""
    spans = []

    def recording(ode, x0, r0, rp0, x_lo, x_hi, tol):
        spans.append((x_lo, x_hi))
        return integrate_span(ode, x0, r0, rp0, x_lo, x_hi, tol)

    monkeypatch.setattr(gp_module, "integrate_span", recording)
    return spans


class TestFold:
    """A periodic seed (b < 0, c != 0) spanning more than two periods in t is
    integrated through its first two turning points t_a < t_b and read
    elsewhere by reflection about them, with the period 2 (t_b - t_a).

    The reference is integrate_span in t at 1e-14 from the same data. Over
    300 random draws of the property's ranges, the folded seed was off it
    by at most 5.9 times the tolerance in rho and 5.3 times in rho_t, and
    2 (t_b - t_a) matched the AGM period to 2.3e-10 relative. Over 200
    draws starting at G(0.5) with tolerances 1e-12 to 1e-9, the folded
    seeds were off by up to 5.9 and 5.6 times, the same seeds integrated
    over the whole span by up to 19 and 24 times.
    """

    # (rho - rho_eq)^2 overflows a Python float's **; rho_t^2 gives inf
    @pytest.mark.parametrize("rho, rho_t", [(1e150, 0.0), (1.0, 1e160)])
    def test_overflowing_energy_fails_closed(self, rho, rho_t):
        with pytest.raises(NonFinite, match=r"E - E_min in t = G\(x\) "
                                            r"overflows"):
            _period(1.0, -1.0, rho, rho_t)

    TOL = 1e-10

    @staticmethod
    def seed(n, eta, dev, periods, start=0.0, rp0=None):
        """(p, seed, t-frame reference at 1e-14, period): data (1 + dev)
        times the closed form at the point ``start`` of the way through a
        t span of ``periods`` periods from G(0.5); ``rp0(p, x0, r0)``, if
        given, replaces the closed form's r'."""
        p = GPParams.constrained(n=n, eta=eta, c=1.0)
        cf, g = ClosedFormSolution(p), p.g
        beta = p.b / n ** 3
        x_lo = 0.5
        t_lo = float(g.value(x_lo))
        # the period of the closed form's data is 2 pi/omega; the seed's own
        # sets the span
        x0 = float(g.inverse(t_lo + start * periods * 2.0))
        (r_cf,), (rp_cf,) = cf.eval_with_derivative(x0)
        r0 = (1.0 + dev) * r_cf
        rp0 = (1.0 + dev) * rp_cf if rp0 is None else rp0(p, x0, r0)
        root = math.sqrt(float(g.prime(x0)))
        rho0 = root * r0
        rho_t0 = (rp0 + 0.5 * float(g.second(x0)) * r0 / float(g.prime(x0))) \
            / root
        period = _period(1.0, beta, rho0, rho_t0)
        t_hi = t_lo + periods * period
        seed = LiouvilleSolution(p, x0, r0, rp0, x_lo,
                                 float(g.inverse(t_hi)),
                                 ToleranceSpec(TestFold.TOL, TestFold.TOL))
        ode = SecondOrderODE(rhs=lambda t, rho: 1.0 / rho ** 3
                             + beta * rho ** 3, domain=(0.5 * t_lo, math.inf))
        t0 = float(g.value(x0))
        # over the seed's whole t span, not its table's: a folded seed's
        # table is its stretch of about one period
        ref = integrate_span(ode, t0, rho0, rho_t0, *seed._t_span,
                             ToleranceSpec(1e-14, 1e-14))
        return p, seed, ref, period

    def assert_matches(self, seed, ref):
        assert np.array_equal(ref.xs[[0, -1]], seed._t_span)
        ts = np.linspace(ref.xs[0], ref.xs[-1], 4001)
        rho, rho_t = read_t(seed, ts)
        want, want_t = ref.evaluate(ts)
        assert np.max(np.abs(rho - want)) < 20 * self.TOL
        assert np.max(np.abs(rho_t - want_t)) < 20 * self.TOL

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), eta=st.floats(0.0, 2.0),
           dev=st.floats(0.02, 0.2), sign=st.sampled_from([-1.0, 1.0]),
           periods=st.floats(2.1, 12.0),
           start=st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
    def test_agrees_with_integrate_span(self, n, eta, dev, sign, periods,
                                        start):
        """``start`` > 0 puts x0 inside the domain, so that t below t0 is
        read by the fold too."""
        _, seed, ref, period = self.seed(n, eta, sign * dev, periods, start)
        t_a, t_b = seed.meta["turning_points"]
        assert seed.rho.xs[0] <= t_a < t_b < seed.rho.xs[-1]
        assert abs(2.0 * (t_b - t_a) / period - 1.0) < 1e-6
        self.assert_matches(seed, ref)

    @pytest.mark.parametrize("n, eta, dev", [(1, 0.5, 0.15), (2, 1.0, -0.1),
                                             (3, 0.2, 0.05)])
    def test_energy_is_constant_across_seams(self, n, eta, dev):
        """E at the seams t_a + k (t_b - t_a), approached from both sides,
        stays at the initial E (the largest gap was 0.21 times the
        tolerance), and rho is even about every seam in t, rho_t odd (to
        0 and 2e-15 here)."""
        p, seed, _, period = self.seed(n, eta, dev, 6.5)
        t_a, t_b = seed.meta["turning_points"]
        lo, hi = seed._t_span
        seams = t_a + (t_b - t_a) * np.arange(-3, 14)
        seams = seams[(seams > lo + 1e-3) & (seams < hi - 1e-3)]
        assert seams.size >= 10
        sides = [p.g.inverse(seams + d) for d in (-1e-9 * period,
                                                  1e-9 * period)]
        (r_l, rp_l), (r_r, rp_r) = (seed.eval_with_derivative(x)
                                    for x in sides)
        e0 = energy(p, seed.meta["x0"], seed.meta["r0"], seed.meta["rp0"])
        for x, r, rp in ((sides[0], r_l, rp_l), (sides[1], r_r, rp_r)):
            assert np.max(np.abs(energy(p, x, r, rp) - e0)) < 2 * self.TOL
        (rho_l, rho_t_l), (rho_r, rho_t_r) = (
            read_t(seed, seams + d) for d in (-1e-3, 1e-3))
        assert np.max(np.abs(rho_l - rho_r)) < 1e-14
        assert np.max(np.abs(rho_t_l + rho_t_r)) < 1e-13

    def test_phase_matches_the_unfolded_seed(self, monkeypatch):
        """gp.phase integrates a folded seed over its stretch only, from t_a
        to t_b and to each reduced point, and adds whole half periods.
        Over 7.3 periods (theta spans 18.8 rad) the two phases were
        1.3e-9 apart; against the seed integrated at 1e-14 the folded one
        was off by 4.3e-10 and the unfolded one by 9.3e-10."""
        p, seed, _, period = self.seed(2, 0.7, -0.12, 7.3, start=0.3)
        monkeypatch.setattr(gp_module, "_FOLD_MIN_PERIODS", math.inf)
        meta = seed.meta
        flat = LiouvilleSolution(p, meta["x0"], meta["r0"], meta["rp0"],
                                 *seed.domain,
                                 ToleranceSpec(self.TOL, self.TOL))
        assert "turning_points" not in flat.meta
        assert seed.rho.xs[-1] - seed.rho.xs[0] < 1.1 * period
        xs = np.linspace(*seed.domain, 301)
        theta = phase(p, xs, r_source=seed, x_ref=seed.domain[0])
        np.testing.assert_allclose(
            theta, phase(p, xs, r_source=flat, x_ref=seed.domain[0]),
            rtol=0.0, atol=100 * self.TOL)

    @pytest.mark.parametrize("n, dev", [(1, 0.15), (1, -0.15), (2, 0.1)])
    def test_seed_starting_at_a_turning_point(self, n, dev):
        """rho_t0 = 0: t0 is itself a turning point, and no turning point
        is searched for below it (an unclamped Newton iterate once landed
        below t0, and reading there raised OutOfRange)."""
        def turning(p, x0, r0):
            return -(0.5 * float(p.g.second(x0)) * r0 / float(p.g.prime(x0)))

        _, seed, ref, _ = self.seed(n, 0.8, dev, 4.4, 0.25, rp0=turning)
        t_a, _ = seed.meta["turning_points"]
        assert t_a >= float(seed._g.value(seed.meta["x0"]))
        self.assert_matches(seed, ref)

    def test_closed_form_seed_is_not_folded(self, monkeypatch):
        """The long closed-form seed above spans about 360 periods, but its
        rho_t changes sign only by rounding: it is integrated once, over the
        whole span, as integrate_span integrates it."""
        spans = recorded_spans(monkeypatch)
        p = GPParams.constrained(n=3, eta=1.5, c=1.2, v=0.7)
        seed = closed_form_seed(p, 1.1, 0.8, 3.0)
        assert "turning_points" not in seed.meta
        assert spans == [(float(p.g.value(0.8)), float(p.g.value(3.0)))]
        ts = np.linspace(*spans[0], 20001)
        period = 2.0 * math.pi / (math.sqrt(6.0) * (1.2 * -p.b / 27) ** (1 / 3))
        assert (spans[0][1] - spans[0][0]) / period > 10
        assert np.max(np.abs(seed.rho.evaluate(ts)[0] / (0.7 * math.sqrt(3))
                             - 1.0)) < 1e-14

    def test_integrates_no_stretch_twice(self, monkeypatch):
        """The first integration reaches 1.05 periods past t0; a fold
        integrates nothing else, so it never reaches below t0."""
        spans = recorded_spans(monkeypatch)
        _, seed, _, period = self.seed(1, 0.5, 0.1, 8.0, start=0.4)
        (t0, t_end), = spans
        assert t0 == float(seed._g.value(seed.meta["x0"]))
        assert t_end == pytest.approx(t0 + 1.05 * period, rel=1e-12)

    @pytest.mark.parametrize("case", ["no-turning-points", "not-transversal",
                                      "period-cap"])
    def test_falls_back_to_integrate_span(self, case, monkeypatch):
        """Where the stretch holds no two turning points, or two of which
        rho_tt has one sign (the first one twice here), the seed is
        integrate_span over the span, node for node, as an unfolded seed
        is. So is a span of more than _MAX_ATTEMPTS periods (8 > 7 here),
        which integrates no stretch first."""
        if case == "period-cap":
            monkeypatch.setattr(gp_module, "_MAX_ATTEMPTS", 7)
        else:
            monkeypatch.setattr(
                gp_module, "stationary_points",
                lambda dense: np.empty(0) if case == "no-turning-points"
                else np.repeat(stationary_points(dense)[:1], 2))
        spans = recorded_spans(monkeypatch)
        p, seed, _, period = self.seed(1, 0.5, 0.1, 8.0, start=0.4)
        assert "turning_points" not in seed.meta
        t_lo, t_hi = seed.rho.xs[0], seed.rho.xs[-1]
        t0 = float(seed._g.value(seed.meta["x0"]))
        stretch = [] if case == "period-cap" else \
            [(t0, pytest.approx(t0 + 1.05 * period, rel=1e-12))]
        assert spans == stretch + [(t_lo, t_hi)]
        monkeypatch.setattr(gp_module, "_FOLD_MIN_PERIODS", math.inf)
        meta = seed.meta
        flat = LiouvilleSolution(p, meta["x0"], meta["r0"], meta["rp0"],
                                 *seed.domain,
                                 ToleranceSpec(self.TOL, self.TOL))
        assert spans[len(stretch) + 1:] == [(t_lo, t_hi)]
        for name in ("xs", "rs", "rps"):
            assert np.array_equal(getattr(seed.rho, name),
                                  getattr(flat.rho, name))


class TestEnergy:
    def test_closed_form_sits_at_the_equilibrium(self):
        """rho = v sqrt(n): E = c^2/(2 n v^2) - b v^4/(4 n)."""
        p = GPParams.constrained(n=2, eta=0.5, c=1.3, v=0.8)
        cf = ClosedFormSolution(p)
        xs = np.linspace(0.5, 3.0, 11)
        e = energy(p, xs, *cf.eval_with_derivative(xs))
        want = p.c ** 2 / (2 * 2 * 0.8 ** 2) - p.b * 0.8 ** 4 / (4 * 2)
        np.testing.assert_allclose(e, want, rtol=1e-14)

    def test_pinney_energy(self):
        """b = 0, rho^2 = A + 2Bt + Ct^2: E = C/2, from rho_t^2 rho^2 =
        (B + Ct)^2 and AC - B^2 = c^2."""
        pin = TestPinneyExactSolution
        p = GPParams(n=2, eta=0.7, b=0.0, c=pin.C_ANG)
        xs = np.linspace(0.9, 2.0, 11)
        r, rp, _ = pin().exact(p, xs)
        np.testing.assert_allclose(energy(p, xs, r, rp), pin.C / 2,
                                   rtol=1e-13)


def wave_table(tmp_path, p, x_min, x_max, t_samples,
               seed="seed.kind = closed_form"):
    """Rows (x, t, re, im, modulus) the wavefunction command writes for p on
    a 7-point grid over [x_min, x_max]."""
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("".join(
        f"params.{key} = {getattr(p, key)!r}\n"
        for key in ("n", "eta", "b", "c", "v", "mu", "theta0"))
        + f"grid.x_min = {x_min!r}\ngrid.x_max = {x_max!r}\n"
        + f"grid.points = 7\n{seed}\n")
    assert main(["wavefunction", "--config", str(cfg), "--out-dir",
                 str(tmp_path), "--t-samples",
                 ",".join(repr(float(t)) for t in t_samples)]) == 0
    return np.loadtxt(tmp_path / "wave.csv", delimiter=",", skiprows=1)


class TestWavefunction:
    """psi(x, t) = r(x) exp(i(theta(x) - mu t)) as the CLI assembles it
    from the seed's amplitude and ``phase``; x_min is an exact grid node."""

    def test_static_real(self, tmp_path):
        p = GPParams.constrained(n=1, eta=0.0, c=0.0, v=1.0)
        _, _, re, im, _ = wave_table(tmp_path, p, 3.0, 4.0, [0.0])[0]
        assert re == pytest.approx(1.0)
        assert im == pytest.approx(0.0)

    def test_half_period_flip(self, tmp_path):
        p = GPParams(n=1, eta=0.0, b=0.0, c=0.0, v=1.0, mu=1.0)
        _, _, re, im, _ = wave_table(tmp_path, p, 3.0, 4.0, [math.pi])[0]
        assert re == pytest.approx(-1.0, rel=1e-12)
        assert abs(im) < 1e-12

    def test_modulus_and_phase(self, tmp_path):
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        _, _, re, im, mod = wave_table(tmp_path, p, 1.0, 2.0, [0.0])[0]
        assert mod == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)
        assert re == pytest.approx(math.cos(2.0) / math.sqrt(3.0), rel=1e-12)
        assert im == pytest.approx(math.sin(2.0) / math.sqrt(3.0), rel=1e-12)

    def test_modulus_time_invariant(self, tmp_path):
        p = GPParams(n=2, eta=0.5, b=-1.0, c=1.0, v=1.0, mu=0.7)
        table = wave_table(tmp_path, p, 1.3, 2.0, np.linspace(0.0, 20.0, 9))
        mods = table[table[:, 0] == 1.3, 4]
        assert mods.size == 9
        assert np.max(np.abs(np.diff(mods))) < 1e-12 * mods[0]

    def test_dense_source(self, tmp_path):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        # x = 1, 4/3, ..., 3; r = 1 and theta(x) - theta(1) = x - 1
        table = wave_table(tmp_path, p, 1.0, 3.0, [0.0],
                           seed="seed.kind = integrate\nseed.x0 = 1.0\n"
                                "seed.r0 = 1.0\nseed.rp0 = 0.0")
        assert np.allclose(table[:, 4], 1.0, rtol=0.0, atol=1e-8)
        assert np.allclose(table[:, 2], np.cos(table[:, 0] - 1.0),
                           rtol=0.0, atol=1e-7)


class TestBoundedness:
    """r(x) ~ v x^(-(n-1)/2) as x -> 0+, probed at x = 1e-2, 1e-4, 1e-6."""

    def test_bounded_iff_n_le_1(self):
        for n in (1, 2, 3):
            p = GPParams.constrained(n=n, eta=0.0, c=1.0, v=1.0)
            r = closed_r(p)
            assert (r(1e-6) == pytest.approx(r(1e-2))) == (n <= 1)
            assert math.log(r(1e-6) / r(1e-4)) / math.log(1e-2) == \
                pytest.approx(-(n - 1) / 2.0)

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 10.0), (3, 100.0)])
    def test_eta_zero_ratios(self, n, expected):
        p = GPParams.constrained(n=n, eta=0.0, c=1.0, v=1.0)
        r = closed_r(p)
        assert r(1e-4) / r(1e-2) == pytest.approx(expected, rel=1e-6)
        assert r(1e-6) / r(1e-4) == pytest.approx(expected, rel=1e-6)
