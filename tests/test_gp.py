import math

import numpy as np
import pytest

from gpbacklund.backlund import is_fixed_point, transform
from gpbacklund.errors import ConstraintViolated, DomainError, NonFinite
from gpbacklund.functional import ShiftMap
from gpbacklund.cli import main
from gpbacklund.gp import (ClosedFormSolution, GPParams, closed_form_residual,
                           gp_rhs, linear_coefficient, linear_coefficient_check,
                           phase)
from gpbacklund.ode import (ToleranceSpec, integrate, integrate_span,
                            residual_max)

SWEEP = [(n, eta) for n in (1, 2, 3) for eta in (0.0, 0.5, 1.0)]


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


class TestClosedForm:
    @pytest.mark.parametrize("n,eta,v,x,expected", [
        (1, 0.0, 1.0, 7.0, 1.0),
        (1, 1.0, 1.0, 1.0, 1.0 / math.sqrt(3.0)),
        (2, 0.0, 2.0, 4.0, 1.0),
    ])
    def test_values(self, n, eta, v, x, expected):
        p = GPParams.constrained(n=n, eta=eta, c=1.0, v=v)
        assert ClosedFormSolution(p).value(x) == pytest.approx(expected,
                                                               rel=1e-14)

    def test_positive_everywhere(self):
        p = GPParams.constrained(n=3, eta=1.0, c=1.0)
        xs = np.logspace(-3, 1, 40)
        assert np.all(ClosedFormSolution(p).value(xs) > 0.0)

    def test_warns_when_constraint_broken(self):
        p = GPParams(n=1, eta=0.0, b=-0.99, c=1.0, v=1.0)
        with pytest.warns(ConstraintViolated):
            ClosedFormSolution(p)

    def test_domain_guard(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0)
        with pytest.raises(DomainError):
            ClosedFormSolution(p).eval_with_derivative([1.0, 0.0])

    @pytest.mark.parametrize("method", ["value", "derivative",
                                        "second_derivative"])
    @pytest.mark.parametrize("x", [-1.0, 0.0])
    def test_pointwise_domain_guard(self, method, x):
        # no nan, complex value or bare ZeroDivisionError off the domain
        sol = ClosedFormSolution(GPParams.constrained(n=2, eta=0.5, c=1.0))
        with pytest.raises(DomainError):
            getattr(sol, method)(x)

    def test_derivatives_match_finite_differences(self):
        p = GPParams.constrained(n=2, eta=0.7, c=1.0)
        sol = ClosedFormSolution(p)
        for x in (0.6, 1.1, 2.4):
            h = 1e-6 * x
            fd1 = (sol.value(x + h) - sol.value(x - h)) / (2 * h)
            assert sol.derivative(x) == pytest.approx(fd1, rel=1e-8)
            h = 1e-4 * x  # second difference needs a larger step
            fd2 = (sol.value(x + h) - 2 * sol.value(x) + sol.value(x - h)) / h ** 2
            assert sol.second_derivative(x) == pytest.approx(fd2, rel=1e-6)

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
        sol = ClosedFormSolution(p)
        from gpbacklund.ode import SolutionGrid
        grid = SolutionGrid(xs=xs, rs=sol.value(xs), rps=sol.derivative(xs))
        assert residual_max(gp_rhs(p), grid) < 1e-8

    def test_closed_form_is_transform_fixed_point(self):
        p = GPParams.constrained(n=2, eta=0.5, c=1.0, v=1.0)
        seed = ClosedFormSolution(p)
        shift = ShiftMap(p.g, 0.75)
        res = is_fixed_point(shift, seed, np.linspace(0.5, 3.0, 101))
        assert res.is_fixed and res.deviation < 1e-10


def closed_phase(p, x, x_ref=0.0):
    """Phase of the closed form of p, anchored at x_ref."""
    return phase(p, x, ClosedFormSolution(p), x_ref)


class TestPhase:
    def test_no_rotation(self):
        p = GPParams(n=1, eta=0.0, b=0.0, c=0.0, theta0=0.4)
        assert closed_phase(p, 2.0) == pytest.approx(0.4)

    def test_linear_phase(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        assert closed_phase(p, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_closed_form_antiderivative(self):
        # c G(x)/(n v^2) at n=1, eta=1, x=1: G(1) = 2
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        assert closed_phase(p, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        p = GPParams.constrained(n=2, eta=0.5, c=1.0, v=1.0)
        dense = integrate(gp_rhs(p), 0.5,
                          float(ClosedFormSolution(p).value(0.5)),
                          float(ClosedFormSolution(p).derivative(0.5)),
                          3.0, ToleranceSpec(1e-12, 1e-12))
        got = phase(p, 2.5, r_source=dense, x_ref=0.5)
        want = closed_phase(p, 2.5) - closed_phase(p, 0.5) + p.theta0
        assert got == pytest.approx(want, abs=1e-8)

    def test_reference_point_offset(self):
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        assert closed_phase(p, 2.0, x_ref=1.0) == pytest.approx(
            closed_phase(p, 2.0) - closed_phase(p, 1.0), abs=1e-14)

    @pytest.mark.parametrize("n,eta,k", [(1, 1.0, 0.5), (2, 0.5, 0.75)])
    def test_transformed_phase_is_seed_phase_of_f(self, n, eta, k):
        """theta1 = theta0 o f + const, since r1^2 = r0(f)^2 / f' gives
        theta1' = c f' / r0(f)^2 = (theta0 o f)'.

        The seed is integrated off the closed form (amplitude and slope
        15% high). theta1 integrates the transformed grid's cubic Hermite
        interpolant, whose error is O(h^4): the spread of theta1 - theta0 o f
        is 5.7e-13 (n = 1) and 3.9e-12 (n = 2) at h = 5e-4, and 1e4 times
        that at h = 5e-3. The phase itself moves by 4 to 5 rad.
        """
        p = GPParams(n=n, eta=eta, b=-1.0, c=1.0)
        exact = ClosedFormSolution(p)
        seed = integrate_span(gp_rhs(p), 1.0, 1.15 * float(exact.value(1.0)),
                              1.15 * float(exact.derivative(1.0)), 1.0, 3.5,
                              ToleranceSpec(1e-10, 1e-10))
        shift = ShiftMap(p.g, k)
        xs = np.linspace(1.0, 2.0, 2001)
        grid = transform(shift, seed, xs)
        assert grid.meta["trimmed"] == 0
        theta1 = phase(p, xs, r_source=grid.as_interpolant(), x_ref=1.0)
        theta0_f = phase(p, shift.f(xs), r_source=seed, x_ref=1.0)
        assert np.ptp(theta1) > 4.0
        assert np.ptp(theta1 - theta0_f) < 1e-10

    def test_non_finite_integral_raises(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        dense = integrate(gp_rhs(p), 1.0, 1.0, 0.0, 2.0,
                          ToleranceSpec(1e-10, 1e-10))
        q = GPParams(n=1, eta=0.0, b=-1.0, c=math.inf)
        with pytest.raises(NonFinite):
            phase(q, np.linspace(1.0, 2.0, 5), r_source=dense, x_ref=1.0)


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

    def exact(self, p, x):
        g, gp, gpp = p.g.value(x), p.g.prime(x), p.g.second(x)
        q = self.A + 2.0 * self.B * g + self.C * g * g
        r = np.sqrt(q / gp)
        rp = ((self.B + self.C * g) * gp / np.sqrt(q)
              - np.sqrt(q) * gpp / (2.0 * gp)) / np.sqrt(gp)
        theta = np.arctan((self.C * g + self.B) / self.C_ANG)
        return r, rp, theta

    def test_integrated_seed_matches_the_exact_solution(self):
        p = GPParams(n=2, eta=0.7, b=0.0, c=self.C_ANG, theta0=0.3)
        x0 = 0.9
        r0, rp0, theta_ref = self.exact(p, x0)
        dense = integrate(gp_rhs(p), x0, float(r0), float(rp0), 2.0,
                          ToleranceSpec(self.TOL, self.TOL))
        xs = np.linspace(x0, 2.0, 401)
        r, rp = dense.eval_with_derivative(xs)
        r_ex, rp_ex, theta_ex = self.exact(p, xs)
        theta = phase(p, xs, r_source=dense, x_ref=x0)
        assert np.ptp(rp_ex) > 0.5  # far from any constant-amplitude form
        assert np.max(np.abs(r / r_ex - 1.0)) < 10 * self.TOL
        assert np.max(np.abs(rp - rp_ex)) < 100 * self.TOL
        assert np.max(np.abs(theta - (p.theta0 + theta_ex - theta_ref))) \
            < 10 * self.TOL

    def test_exact_solution_has_zero_residual(self):
        """The oracle itself: r'' from a fine central difference of the
        exact r' matches the equation's right-hand side."""
        p = GPParams(n=2, eta=0.7, b=0.0, c=self.C_ANG)
        xs = np.linspace(0.9, 2.0, 23)
        h = 1e-5
        rpp = (self.exact(p, xs + h)[1] - self.exact(p, xs - h)[1]) / (2 * h)
        rhs = gp_rhs(p).rhs(xs, self.exact(p, xs)[0])
        assert np.max(np.abs(rpp - rhs)) < 1e-8


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
            r = ClosedFormSolution(p, warn=False).value
            assert (r(1e-6) == pytest.approx(r(1e-2))) == (n <= 1)
            assert math.log(r(1e-6) / r(1e-4)) / math.log(1e-2) == \
                pytest.approx(-(n - 1) / 2.0)

    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 10.0), (3, 100.0)])
    def test_eta_zero_ratios(self, n, expected):
        p = GPParams.constrained(n=n, eta=0.0, c=1.0, v=1.0)
        r = ClosedFormSolution(p, warn=False).value
        assert r(1e-4) / r(1e-2) == pytest.approx(expected, rel=1e-6)
        assert r(1e-6) / r(1e-4) == pytest.approx(expected, rel=1e-6)
