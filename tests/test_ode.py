import math
from fractions import Fraction

import numpy as np
import pytest

from gpbacklund import ode
from gpbacklund.errors import (AmplitudeCollapse, BlowUp, GridTooSmall,
                               NonFinite, OutOfRange, StepBudgetExhausted,
                               StepSizeUnderflow)
from gpbacklund.gp import (ClosedFormSolution, GPParams, LiouvilleSolution,
                           gp_rhs)
from gpbacklund.ode import (_A2, _A2_DENSE, _B, _BA, _C, _C_DENSE, _E3, _E3A,
                            _E5, _E5A, _QUINTIC_THIRDS, _SEPTIC, _W,
                            SecondOrderODE, SolutionGrid, ToleranceSpec,
                            integrate, integrate_span, residual, residual_max,
                            sample, stationary_points)

TOL = ToleranceSpec(atol=1e-10, rtol=1e-10)

FREE = SecondOrderODE(rhs=lambda x, r: 0.0, domain=(1e-3, 100.0))
SINE = SecondOrderODE(rhs=lambda x, r: -r, domain=(1e-3, 100.0))


def sine_problem(x_end=math.pi / 2, tol=TOL):
    x0 = 0.01
    return integrate(SINE, x0, math.sin(x0), math.cos(x0), x_end, tol)


class TestValidation:
    def test_tolerance_positive(self):
        with pytest.raises(ValueError):
            ToleranceSpec(atol=0.0)

    def test_domain_positive(self):
        with pytest.raises(ValueError):
            SecondOrderODE(rhs=lambda x, r: 0.0, domain=(-1.0, 1.0))

    def test_grid_shapes(self):
        with pytest.raises(ValueError):
            SolutionGrid(xs=[1, 2, 3], rs=[1, 2], rps=[0, 0, 0])

    def test_grid_monotone(self):
        with pytest.raises(ValueError):
            SolutionGrid(xs=[1, 3, 2], rs=[1, 1, 1], rps=[0, 0, 0])

    def test_grid_positive_amplitude(self):
        with pytest.raises(ValueError):
            SolutionGrid(xs=[1, 2, 3], rs=[1, -1, 1], rps=[0, 0, 0])


class TestIntegrate:
    def test_constant_solution(self):
        dense = integrate(FREE, 1.0, 1.0, 0.0, 3.0, TOL)
        r, rp = dense.evaluate(3.0)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert rp == pytest.approx(0.0, abs=1e-12)

    def test_sine_oracle(self):
        dense = sine_problem()
        r, rp = dense.evaluate(math.pi / 2)
        assert r == pytest.approx(1.0, abs=1e-8)
        assert rp == pytest.approx(0.0, abs=1e-8)

    def test_backward_integration(self):
        x0 = math.pi / 2
        dense = integrate(SINE, x0, 1.0, 0.0, 0.01, TOL)
        assert dense.xs[0] == pytest.approx(0.01)
        r, _ = dense.evaluate(0.5)
        assert r == pytest.approx(math.sin(0.5), abs=1e-8)

    def test_span_covers_both_sides(self):
        dense = integrate_span(SINE, 1.0, math.sin(1.0), math.cos(1.0),
                               0.3, 1.5, TOL)
        for x in (0.3, 0.7, 1.0, 1.5):
            assert dense.evaluate(x)[0] == pytest.approx(math.sin(x), abs=1e-8)

    @pytest.mark.parametrize("x0, x_lo, x_hi", [
        (1.0 + 2.2e-16, 1.0, 1.5), (1.5 - 2.2e-16, 1.0, 1.5)])
    def test_span_reads_a_sliver_side_from_x0(self, x0, x_lo, x_hi):
        """A side an ulp wide, where integrate's first step would
        underflow, is not integrated: x0 is the end node, and the edge reads
        its values."""
        dense = integrate_span(SINE, x0, math.sin(x0), math.cos(x0), x_lo,
                               x_hi, TOL)
        edge = x_lo if x0 < 1.25 else x_hi
        assert x0 in (dense.xs[0], dense.xs[-1])
        assert dense.evaluate(edge) == dense.evaluate(x0)
        for x in (x_lo, 1.2, x_hi):
            assert dense.evaluate(x)[0] == pytest.approx(math.sin(x), abs=1e-8)

    def test_span_within_a_sliver_of_x0_raises(self):
        x0 = 1.0 + 4.4e-16
        with pytest.raises(StepSizeUnderflow,
                           match=r"span \[1, 1\.0000000000000009\] lies "
                                 r"within 1\.000e-12 of x=1\.0000000000000004"):
            integrate_span(SINE, x0, 1.0, 0.0, 1.0, 1.0 + 8.8e-16, TOL)

    def test_amplitude_collapse(self):
        pull = SecondOrderODE(rhs=lambda x, r: -10.0, domain=(1e-3, 100.0))
        with pytest.raises(AmplitudeCollapse):
            integrate(pull, 1.0, 1.0, 0.0, 3.0, TOL)

    def test_blow_up(self):
        grow = SecondOrderODE(rhs=lambda x, r: 100.0 * r, domain=(1e-3, 100.0))
        with pytest.raises(BlowUp):
            integrate(grow, 1.0, 1.0, 0.0, 10.0, ToleranceSpec(1e-6, 1e-6))

    def test_step_underflow_on_jump(self):
        jump = SecondOrderODE(rhs=lambda x, r: 1e30 if x > 2.0 else 0.0,
                              domain=(1e-3, 100.0))
        with pytest.raises(StepSizeUnderflow):
            integrate(jump, 1.0, 1.0, 0.0, 3.0, TOL)

    def test_step_budget(self, monkeypatch):
        """An integration of n attempted steps passes with a budget of n
        attempts and raises, naming the x it reached, with n - 1."""
        calls = 0

        def rhs(x, r):  # r = 2 + sin(x - 1)
            nonlocal calls
            calls += 1
            return 2.0 - r

        wave = SecondOrderODE(rhs=rhs, domain=(1e-3, 100.0))
        integrate(wave, 1.0, 2.0, 1.0, 50.0, TOL)
        # one initial call, 12 per attempt, then 3 for the dense output
        attempts = (calls - 4) // 12
        assert attempts > 100
        monkeypatch.setattr(ode, "_MAX_ATTEMPTS", attempts)
        integrate(wave, 1.0, 2.0, 1.0, 50.0, TOL)
        monkeypatch.setattr(ode, "_MAX_ATTEMPTS", attempts - 1)
        with pytest.raises(StepBudgetExhausted,
                           match=r"reached only x=4\d\.\d+ of x_end=50"):
            integrate(wave, 1.0, 2.0, 1.0, 50.0, TOL)

    def test_max_step_bounds_every_step(self):
        """r'' = 0 with r' = 0 has a zero error estimate, so only the bound
        stops the step from growing fivefold per step."""
        bounded = SecondOrderODE(rhs=FREE.rhs, domain=FREE.domain,
                                 max_step=0.1)
        dense = integrate(bounded, 1.0, 1.0, 0.0, 3.0, TOL)
        assert np.max(np.diff(dense.xs)) <= 0.1 * (1 + 1e-15)
        assert dense.xs.size - 1 >= 20
        assert integrate(FREE, 1.0, 1.0, 0.0, 3.0, TOL).xs.size < 10
        with pytest.raises(ValueError, match="max_step"):
            SecondOrderODE(rhs=FREE.rhs, domain=FREE.domain, max_step=0.0)

    def test_initial_point_outside_domain(self):
        with pytest.raises(OutOfRange):
            integrate(FREE, 1e-5, 1.0, 0.0, 1.0, TOL)

    def test_nonpositive_initial_amplitude(self):
        with pytest.raises(ValueError):
            integrate(FREE, 1.0, -1.0, 0.0, 2.0, TOL)

    def test_convergence_order(self):
        """Endpoint error vs step size on the sine oracle r = 2 + sin(x)
        over four periods, every step bounded by max_step at a tolerance
        that never binds: the slope must sit in [7, 9] for an order-8 pair.
        (A tolerance sweep says nothing here: it takes 4-8 steps.)"""
        x0, span = 0.01, 8.0 * math.pi
        errs, steps = [], []
        for k in range(8):
            bounded = SecondOrderODE(rhs=lambda x, r: 2.0 - r,
                                     domain=(1e-3, 100.0),
                                     max_step=span / (16.0 * 1.25 ** k))
            dense = integrate(bounded, x0, 2.0 + math.sin(x0), math.cos(x0),
                              x0 + span, ToleranceSpec(1e-2, 1e-2))
            errs.append(abs(dense.rs[-1] - 2.0 - math.sin(x0 + span)))
            steps.append(span / dense.meta["steps"])
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 7.0 <= slope <= 9.0


class TestDenseOutput:
    def test_nodes_reproduced_exactly(self):
        dense = sine_problem()
        rs, rps = dense.evaluate(dense.xs)
        assert np.array_equal(rs, dense.rs)
        assert np.array_equal(rps, dense.rps)

    def test_septic_exactness(self):
        # solution r = x^7 has vanishing eighth derivative: the pair, its
        # continuous extension and the septic interpolant reproduce it to
        # rounding
        ode = SecondOrderODE(rhs=lambda x, r: 42.0 * x ** 5,
                             domain=(0.5, 10.0))
        dense = integrate(ode, 1.0, 1.0, 7.0, 2.0, ToleranceSpec(1e-8, 1e-8))
        xq = np.linspace(1.0, 2.0, 37)
        rq, rpq = dense.evaluate(xq)
        assert np.max(np.abs(rq - xq ** 7)) < 1e-10
        assert np.max(np.abs(rpq - 7 * xq ** 6)) < 1e-9

    def test_c1_continuity_at_nodes(self):
        # adjacent septics share value and first derivative at each node,
        # so straddling evaluations differ only by the smooth 2*eps drift
        dense = sine_problem()
        eps = 1e-9
        for xn in dense.xs[1:-1][::5]:
            below = dense.evaluate(xn - eps)
            above = dense.evaluate(xn + eps)
            assert below[0] == pytest.approx(above[0], abs=1e-8)
            assert below[1] == pytest.approx(above[1], abs=1e-8)

    @pytest.mark.parametrize("x0, x_end", [(0.5, 20.0), (20.0, 0.5)])
    def test_c2_continuity_at_nodes(self, x0, x_end):
        """The septic of each step ends with the r'' = rhs of its right
        node, so r'' is continuous, to the rounding of c3..c7 (about 2e-13
        of max|r''| here), in either direction of integration."""
        dense = integrate(TestStationaryPoints.SHIFTED, x0, 2.0 + math.cos(x0),
                          -math.sin(x0), x_end, TOL)
        h, _, _, c2, c3, c4, c5, c6, c7, _ = dense._table[:, :-1]
        rpp_end = (2.0 * c2 + 6.0 * c3 + 12.0 * c4 + 20.0 * c5 + 30.0 * c6
                   + 42.0 * c7) / (h * h)
        scale = np.max(np.abs(dense.rpps))
        assert np.max(np.abs(rpp_end - dense.rpps[1:])) < 1e-11 * scale

    @pytest.mark.parametrize("x0, x_end", [(0.5, 20.0), (20.0, 0.5)])
    def test_thirds_are_the_extensions_r_prime(self, x0, x_end):
        """r' at one and two thirds of every step is r' at its left node
        plus ``thirds``, and within the tolerance of the exact r'."""
        dense = integrate(TestStationaryPoints.SHIFTED, x0, 2.0 + math.cos(x0),
                          -math.sin(x0), x_end, TOL)
        h = np.diff(dense.xs)
        for j in (1, 2):
            xq = dense.xs[:-1] + j * h / 3.0
            rp = dense.evaluate(xq)[1]
            np.testing.assert_allclose(
                rp, dense.rps[:-1] + dense.thirds[j - 1], rtol=0.0, atol=1e-14)
            assert np.max(np.abs(rp + np.sin(xq))) < 1e-9

    def test_out_of_range(self):
        dense = sine_problem()
        with pytest.raises(OutOfRange):
            dense.evaluate(99.0)


def _inverse(rows):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan."""
    n = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _slope(s):
    """d/ds of s^3..s^7 at s, as Fractions."""
    return [k * s ** (k - 1) for k in range(3, 8)]


def _septic_inverse():
    """The inverse of the matrix taking c3..c7 to what the septic adds to
    its Taylor terms c0 + c1 s + c2 s^2 at s = 1 in r, h r' and h^2 r'',
    and in h r' at s = 1/3 and 2/3: its entries are dyadic, so exact in
    binary."""
    one = Fraction(1)
    return _inverse([[one] * 5, _slope(one),
                     [k * (k - 1) for k in range(3, 8)],
                     _slope(Fraction(1, 3)), _slope(Fraction(2, 3))])


def _septic(s, h, y0, d0, a0, y1, d1, a1, t1, t2):
    """The dense output's septic in power form, from its conditions on
    c3..c7 by the exact inverse of their matrix: the evaluator's polynomial
    by another route, the oracle here in np.longdouble."""
    c = [y0, h * d0, h * h * a0 / 2]
    cond = (y1 - c[0] - c[1] - c[2], h * d1 - c[1] - 2 * c[2],
            h * h * a1 - 2 * c[2], h * t1 - 2 * c[2] / 3,
            h * t2 - 4 * c[2] / 3)
    for row in _septic_inverse():
        c.append(sum(np.longdouble(float(w)) * v for w, v in zip(row, cond)))
    val = sum(c[k] * s ** k for k in range(8))
    der = sum(k * c[k] * s ** (k - 1) for k in range(1, 8)) / h
    return val, der


# (n, G(x_max), tolerance) of integrated seeds like the orbit benchmark's;
# eta, x_min and the factor off the closed form are drawn per seed
_ORBIT_LIKE = ((1, 12.0, 1e-10), (2, 12.0, 1e-11), (1, 22.0, 1e-11),
               (2, 22.0, 1e-12), (1, 40.0, 1e-12), (2, 40.0, 1e-10))


def _orbit_like_seed(i):
    n, g_max, tol = _ORBIT_LIKE[i]
    rng = np.random.default_rng(150 + i)
    eta, x_min = rng.uniform(0.5, 1.5), rng.uniform(0.8, 1.2)
    factor = rng.uniform(0.85, 1.2)
    # the closed form r = 1/sqrt(s), s = x^(n-1) (1 + 2 eta x^n), v = 1
    s = x_min ** (n - 1) * (1.0 + 2.0 * eta * x_min ** n)
    s1 = (n - 1) * x_min ** (n - 2) + 2.0 * eta * (2 * n - 1) \
        * x_min ** (2 * n - 2)
    p = GPParams(n=n, eta=eta, b=-1.0, c=1.0)
    x_max = float(p.g.inverse(g_max))
    return LiouvilleSolution(p, x_min, factor * s ** -0.5,
                             -0.5 * factor * s1 * s ** -1.5, x_min, x_max,
                             ToleranceSpec(tol, tol)), rng


class TestStationaryPoints:
    """r = 2 + cos(x) solves r'' = -(r - 2); r' vanishes at k pi."""

    SHIFTED = SecondOrderODE(rhs=lambda x, r: 2.0 - r, domain=(1e-3, 100.0))

    def test_roots_of_r_prime(self):
        dense = integrate(self.SHIFTED, 0.5, 2.0 + math.cos(0.5),
                          -math.sin(0.5), 20.0, TOL)
        roots = stationary_points(dense)
        np.testing.assert_allclose(roots, math.pi * np.arange(1, 7),
                                   rtol=0.0, atol=1e-9)
        assert np.max(np.abs(dense.evaluate(roots)[1])) < 1e-15
        # each root lies in the step it was searched in
        k = np.searchsorted(dense.xs, roots) - 1
        assert np.all((dense.xs[k] <= roots) & (roots <= dense.xs[k + 1]))

    def test_roots_of_a_backward_integration(self):
        """The septic of a backward step takes its thirds in the other
        order; its roots are the same to the tolerance."""
        dense = integrate(self.SHIFTED, 20.0, 2.0 + math.cos(20.0),
                          -math.sin(20.0), 0.5, TOL)
        roots = stationary_points(dense)
        np.testing.assert_allclose(roots, math.pi * np.arange(1, 7),
                                   rtol=0.0, atol=1e-9)
        assert np.max(np.abs(dense.evaluate(roots)[1])) < 1e-15

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_root_at_the_first_node_stays_in_its_step(self, sign):
        """Starting on a root (r' = 0 exactly, of either sign bit), that
        root is found at the first node, not below it."""
        x0 = math.pi
        dense = integrate(self.SHIFTED, x0, 1.0, sign * 0.0, 13.0, TOL)
        roots = stationary_points(dense)
        assert roots[0] == x0
        np.testing.assert_allclose(roots, math.pi * np.arange(1, 5),
                                   rtol=0.0, atol=1e-9)

    def test_none_without_a_sign_change(self):
        dense = integrate(FREE, 1.0, 1.0, 0.5, 3.0, TOL)
        assert stationary_points(dense).size == 0


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="np.longdouble is no wider than binary64 here")
class TestHornerAccuracy:
    """The Horner form against the same septic in np.longdouble, built from
    the exact inverse of its conditions on c3..c7. (A basis form of the quintic
    this replaced took r' as (g00 y0 + g01 y1)/h, which cancels: it was off
    by 300-1100 eps of max|r'| on these seeds.)"""

    @pytest.mark.parametrize("i", range(len(_ORBIT_LIKE)))
    def test_matches_longdouble_hermite(self, i):
        seed, rng = _orbit_like_seed(i)
        dense = seed.rho
        tq = rng.uniform(dense.xs[0], dense.xs[-1], 4000)
        r, rp = dense.evaluate(tq)
        k = np.clip(np.searchsorted(dense.xs, tq, side="right") - 1,
                    0, dense.xs.size - 2)
        xs, rs, rps, rpps, t1, t2 = (a.astype(np.longdouble) for a in (
            dense.xs, dense.rs, dense.rps, dense.rpps, *dense.thirds))
        h = xs[k + 1] - xs[k]
        val, der = _septic((tq - xs[k]) / h, h, rs[k], rps[k], rpps[k],
                           rs[k + 1], rps[k + 1], rpps[k + 1], t1[k], t2[k])
        eps = np.finfo(float).eps
        assert np.all(np.abs(r - val) <= 2.0 * eps * np.abs(val))
        assert np.max(np.abs(rp - der)) <= 8.0 * eps * np.max(np.abs(der))


class TestNaNQueries:
    """A NaN query raises NonFinite naming its index, ahead of OutOfRange:
    every comparison with NaN is False, so a range test alone passes it."""

    def test_dense_scalar_and_array(self):
        dense = sine_problem()
        with pytest.raises(NonFinite, match="query point 0 of 1 is nan"):
            dense.evaluate(math.nan)
        xq = np.array([0.1, 99.0, 0.2, math.nan, math.nan])
        with pytest.raises(NonFinite, match="query point 3 of 5 is nan"):
            dense.evaluate(xq)

    def test_liouville_seed_is_not_out_of_range(self):
        seed, _ = _orbit_like_seed(0)
        xq = np.array([seed.domain[0], math.nan])
        with pytest.raises(NonFinite, match="query point 1 of 2 is nan"):
            seed.eval_with_derivative(xq)
        with pytest.raises(NonFinite, match="query point 0 of 1 is nan"):
            sample(seed, [math.nan])


# n = 1, eta = 0, b = -1, c = 1: the closed form is the constant r = 1
CONSTANT = GPParams.constrained(n=1, eta=0.0, c=1.0)


class TestSample:
    def test_constant(self):
        seed = LiouvilleSolution(CONSTANT, 1.0, 1.0, 0.0, 1.0, 3.5, TOL)
        grid = sample(seed, [1.0, 2.0, 3.0])
        assert np.allclose(grid.rs, 1.0)
        assert grid.meta["frame"] == "t = G(x)"

    def test_closed_form_value(self):
        seed = ClosedFormSolution(GPParams.constrained(n=2, eta=0.5, c=1.0))
        xs = np.array([0.5, 1.0, 2.0])
        grid = sample(seed, xs)
        rs, rps = seed.eval_with_derivative(xs)
        assert np.array_equal(grid.rs, rs)
        assert np.array_equal(grid.rps, rps)
        assert grid.meta == seed.meta

    def test_empty(self):
        seed = LiouvilleSolution(CONSTANT, 1.0, 1.0, 0.0, 1.0, 3.5, TOL)
        grid = sample(seed, [])
        assert len(grid) == 0

    def test_out_of_range(self):
        seed = LiouvilleSolution(CONSTANT, 1.0, 1.0, 0.0, 1.0, 3.5, TOL)
        with pytest.raises(OutOfRange):
            sample(seed, [50.0])


class TestResidual:
    def gp_like(self):
        # rhs of the n=1, eta=0, b=-1, c=1 amplitude equation
        return SecondOrderODE(rhs=lambda x, r: 1.0 / r ** 3 - r ** 3,
                              domain=(1e-8, math.inf))

    def test_zero_for_constant(self):
        xs = np.linspace(1.0, 5.0, 101)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        res = residual(FREE, grid)
        assert np.max(np.abs(res)) < 1e-11

    def test_exact_solution_small_residual(self):
        xs = np.linspace(1.0, 5.0, 401)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        assert residual_max(self.gp_like(), grid) < 1e-9

    def test_wrong_constant_large_residual(self):
        # brute force: 1/1.1^3 - 1.1^3 = -0.5797...
        xs = np.linspace(1.0, 5.0, 401)
        grid = SolutionGrid(xs=xs, rs=np.full_like(xs, 1.1),
                            rps=np.zeros_like(xs))
        res = residual_max(self.gp_like(), grid)
        assert res >= 0.1
        assert res == pytest.approx(abs(1.0 / 1.1 ** 3 - 1.1 ** 3), rel=1e-9)

    def test_sine_residual_tracks_tolerance(self):
        dense = sine_problem(x_end=1.5)
        xs = np.linspace(0.02, 1.5, 401)
        grid = SolutionGrid(xs, *dense.evaluate(xs))
        assert residual_max(SINE, grid) < 100 * TOL.atol

    def test_grid_too_small(self):
        xs = np.linspace(1.0, 2.0, 5)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        with pytest.raises(GridTooSmall):
            residual(FREE, grid)

    def test_non_uniform_raises(self):
        xs = np.sort(np.append(np.linspace(1.0, 2.0, 95), 1.513))
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        with pytest.raises(ValueError, match="uniform grid"):
            residual(FREE, grid)

    def test_narrow_grid_far_from_zero_is_uniform(self):
        """np.linspace rounds its points by up to an ulp of 1000 here,
        5e-8 of the step, more than 1e-8 of it: the grid is uniform to
        that rounding, and a run of it is too."""
        xs = np.linspace(1000.0, 1000.001, 401)
        assert np.max(np.abs(np.diff(xs) - 2.5e-6)) > 1e-8 * 2.5e-6
        for run in (xs, xs[37:300]):
            grid = SolutionGrid(xs=run, rs=np.ones_like(run),
                                rps=np.zeros_like(run))
            assert np.max(np.abs(residual(FREE, grid))) < 1e-3

    def test_one_sided_stencils_are_fourth_order(self):
        # quartic data is differentiated exactly by every stencil in use
        xs = np.linspace(1.0, 2.0, 25)
        rs = xs ** 4
        grid = SolutionGrid(xs=xs, rs=rs, rps=4 * xs ** 3)
        res = residual(FREE, grid)
        assert np.allclose(res, 12.0 * xs ** 2, rtol=1e-10)


# ---------------------------------------------------------------------------
# Bit-for-bit pin of integrate's FSAL step against a loop over the Nystrom
# rows of ode._A2 that skips zero weights. The oracle evaluates rhs 13 times
# per attempted step, tests each stage as it goes, and sums in the step's
# order (start at 0.0, add left to right). Its dense-output stages are
# scalar calls, one step at a time.

def _oracle_rhs(rhs, x, r):
    try:
        return float(rhs(x, r))
    except (ZeroDivisionError, OverflowError, ValueError):
        return math.inf


def _dot(weights, k):
    acc = 0.0
    for w, kj in zip(weights, k):
        if w != 0.0:
            acc += w * kj
    return acc


def _oracle_thirds(rhs, step, node, k13, direction):
    """The ``thirds`` of one accepted step from its (h, k1..k12), its start
    node (x, r, r') and k13."""
    h, k = step[0], [*step[1:], k13]
    x, r, rp = node
    for c, row in zip(_C_DENSE, _A2_DENSE):
        k.append(float(rhs(x + c * h, r + h * (c * rp + h * _dot(row, k)))))
    if direction > 0.0:
        return [h * _dot(w, k) for w in _W]
    return [h * (_dot(w, k) - _dot(_B, k)) for w in _W[::-1]]


def reference_integrate(ode, x0, r0, rp0, x_end, tol=ToleranceSpec(),
                        amplitude_floor=1e-6):
    """(xs, rs, rps, rpps, thirds, attempted steps) of the row-driven loop."""
    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    x, r, rp = float(x0), float(r0), float(rp0)
    nodes = [(x, r, rp, _oracle_rhs(ode.rhs, x, r))]
    steps = []
    h = direction * min(0.01 * span, span)
    attempts = 0
    while (x_end - x) * direction > 0.0:
        last = (x + h - x_end) * direction >= 0.0
        if last:
            h = x_end - x
        if abs(h) < 1e-14 * max(1.0, abs(x)) or x + h == x:
            raise StepSizeUnderflow(f"step {h:.3e} underflowed at x={x:.6g}")
        attempts += 1
        k = [_oracle_rhs(ode.rhs, x, r)]
        bad = not math.isfinite(k[0])
        # stage i + 1 from row i - 1 of _A2
        for i in range(1, 12):
            if bad:
                break
            c = _C[i - 1]
            ri = r + h * (c * rp + h * _dot(_A2[i - 1], k))
            k.append(_oracle_rhs(ode.rhs, x + c * h, ri))
            bad = not (math.isfinite(ri) and math.isfinite(k[i]))
        if not bad:
            r_new = r + h * (rp + h * _dot(_BA, k))
            rp_new = rp + h * _dot(_B, k)
            k13 = _oracle_rhs(ode.rhs, x + h, r_new)
            sc_r = h * h / (tol.atol + tol.rtol * max(abs(r), abs(r_new)))
            sc_rp = h / (tol.atol + tol.rtol * max(abs(rp), abs(rp_new)))
            q5r, q5 = _dot(_E5A, k) * sc_r, _dot(_E5, k) * sc_rp
            q3r, q3 = _dot(_E3A, k) * sc_r, _dot(_E3, k) * sc_rp
            n5 = q5r * q5r + q5 * q5
            n3 = q3r * q3r + q3 * q3
            den = 2.0 * (n5 + 0.01 * n3)
            bad = not (math.isfinite(r_new) and math.isfinite(rp_new)
                       and math.isfinite(k13) and math.isfinite(den))
        err = math.inf if bad else (n5 / math.sqrt(den) if n5 else 0.0)
        if err <= 1.0:
            steps.append((h, *k))
            x = x_end if last else x + h
            r, rp = r_new, rp_new
            if r < amplitude_floor:
                raise AmplitudeCollapse(
                    f"amplitude {r:.3e} fell below floor {amplitude_floor} "
                    f"at x={x:.6g}")
            if abs(r) > 1e12 or abs(rp) > 1e12:
                raise BlowUp(f"state exceeded {1e12:.1e} at x={x:.6g}")
            nodes.append((x, r, rp, k13))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
        h *= factor
    thirds = np.array([_oracle_thirds(ode.rhs, step, node[:3], end[3],
                                      direction)
                       for step, node, end in zip(steps, nodes, nodes[1:])]).T
    xs, rs, rps, rpps = (np.array(col) for col in zip(*nodes))
    if direction < 0.0:
        xs, rs, rps, rpps = xs[::-1], rs[::-1], rps[::-1], rpps[::-1]
        thirds = thirds[:, ::-1]
    return xs, rs, rps, rpps, thirds, attempts


def _counting(ode):
    """A copy of ode whose rhs counts its calls in the returned list."""
    calls = [0]

    def rhs(x, r):
        calls[0] += 1
        return ode.rhs(x, r)

    return SecondOrderODE(rhs=rhs, domain=ode.domain), calls


def _gp_ode(n, eta):
    return gp_rhs(GPParams(n=n, eta=eta, b=-1.0, c=1.0))


def _kinked(x, r):
    """A unit oscillation about r = 1 under a square-wave force: every jump
    of the force rejects a run of steps. A scalar call raises ValueError
    above r = 1.6, where some large trial steps overshoot, so those are
    rejected mid-step."""
    if np.ndim(r) == 0:
        math.sqrt(1.6 - r)
    return (1.0 - r) + np.where(np.sin(5.0 * x) > 0.0, 0.5, -0.5)


KINKED = SecondOrderODE(rhs=_kinked, domain=(1e-3, 1e3))

# a unit oscillation about r = 1 whose rhs returns inf, without raising, at
# the third stage of the first attempted step only, x = 1 + c3 0.02
MIDDLE_STAGE_X = 1.0 + _C[1] * (0.01 * 2.0)
MIDDLE_STAGE_INF = SecondOrderODE(
    rhs=lambda x, r: np.where(x == MIDDLE_STAGE_X, math.inf, 1.0 - r),
    domain=(1e-3, 1e3))

# (ode, x0, r0, rp0, x_end, tol)
PINNED = {
    "middle_stage_inf": (MIDDLE_STAGE_INF, 1.0, 1.5, 0.0, 3.0, TOL),
    "gp_n1_forward": (_gp_ode(1, 1.0), 1.0, 0.664, -0.2214, 3.0,
                      ToleranceSpec(1e-10, 1e-10)),
    "gp_n1_backward": (_gp_ode(1, 0.5), 2.0, 0.5, 0.1, 0.3,
                       ToleranceSpec(1e-9, 1e-11)),
    "gp_n2_forward": (_gp_ode(2, 0.7), 1.0, 0.5, -0.1, 3.0,
                      ToleranceSpec(1e-12, 1e-12)),
    "gp_n2_backward": (_gp_ode(2, 0.3), 2.5, 0.4, 0.3, 0.5,
                       ToleranceSpec(1e-8, 1e-8)),
    "many_rejections": (KINKED, 1.0, 1.5, 0.0, 30.0,
                        ToleranceSpec(1e-6, 1e-6)),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_tableau_loop(self, name):
        """The nodes bit for bit; ``thirds``, from array calls of rhs and
        numpy's sums in integrate, scalar calls and sums here, to 1e-14 of
        its largest value."""
        ode, x0, r0, rp0, x_end, tol = PINNED[name]
        dense = integrate(ode, x0, r0, rp0, x_end, tol)
        xs, rs, rps, rpps, thirds, _ = reference_integrate(
            ode, x0, r0, rp0, x_end, tol)
        for got, want in ((dense.xs, xs), (dense.rs, rs), (dense.rps, rps),
                          (dense.rpps, rpps)):
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(dense.thirds, thirds, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(thirds)))

    def test_many_rejections_case_rejects(self):
        ode, x0, r0, rp0, x_end, tol = PINNED["many_rejections"]
        counting, calls = _counting(ode)
        integrate(counting, x0, r0, rp0, x_end, tol)
        xs, _, _, _, _, attempts = reference_integrate(ode, x0, r0, rp0,
                                                       x_end, tol)
        accepted = xs.size - 1
        assert attempts - accepted > accepted
        # some rejected steps stop early at a stage that raised
        assert calls[0] < 1 + 12 * attempts + 3

    @pytest.mark.parametrize("rhs, x_end, tol, error", [
        (lambda x, r: 100.0 * r, 10.0, ToleranceSpec(1e-6, 1e-6), BlowUp),
        (lambda x, r: -10.0, 3.0, TOL, AmplitudeCollapse),
        (lambda x, r: 1e30 if x > 2.0 else 0.0, 3.0, TOL, StepSizeUnderflow),
        (lambda x, r: 1.0 / (2.5 - x) ** 2, 3.0, TOL, StepSizeUnderflow),
    ])
    def test_failures_at_reference_point(self, rhs, x_end, tol, error):
        ode = SecondOrderODE(rhs=rhs, domain=(1e-3, 100.0))
        with pytest.raises(error) as got:
            integrate(ode, 1.0, 1.0, 0.0, x_end, tol)
        with pytest.raises(error) as want:
            reference_integrate(ode, 1.0, 1.0, 0.0, x_end, tol)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["gp_n1_forward", "gp_n2_backward"])
    def test_twelve_rhs_calls_per_attempt(self, name):
        """One call at the initial point, 12 per attempt, then one array
        call for each of the three dense-output stages."""
        ode, x0, r0, rp0, x_end, tol = PINNED[name]
        counting, calls = _counting(ode)
        integrate(counting, x0, r0, rp0, x_end, tol)
        attempts = reference_integrate(ode, x0, r0, rp0, x_end, tol)[5]
        assert calls[0] == 1 + 12 * attempts + 3

    def test_non_finite_middle_stage_rejects_the_step(self):
        ode, x0, r0, rp0, x_end, tol = PINNED["middle_stage_inf"]
        counting, calls = _counting(ode)
        dense = integrate(counting, x0, r0, rp0, x_end, tol)
        # the first attempt runs all its stages, and is rejected: the first
        # step, 0.01 * span, shrinks by 0.2
        assert calls[0] == 1 + 12 * reference_integrate(*PINNED[
            "middle_stage_inf"])[5] + 3
        assert dense.xs[1] == pytest.approx(1.0 + 0.2 * 0.02, rel=1e-15)

    @pytest.mark.parametrize("call", range(2, 14))
    def test_non_finite_stage_rejects_the_attempt(self, call):
        # call 1 is the initial point and calls 2-13 the stages of the first
        # attempt, 13 its last (FSAL) stage. Stages 2-5 have zero weight in
        # the new r' and the error in r'; k4 and k5 reach the error in r,
        # and k2 and k3 reach r5 and so k5, because this rhs is not finite
        # where its amplitude is not
        calls = [0]

        def rhs(x, r):
            calls[0] += 1
            return math.inf if calls[0] == call else 1.0 - r

        ode = SecondOrderODE(rhs=rhs, domain=(1e-3, 100.0))
        dense = integrate(ode, 1.0, 1.0, 0.0, 3.0, TOL)
        # the rejection shrinks the first step, 0.01 * span, by 0.2
        assert dense.xs[1] == pytest.approx(1.0 + 0.2 * 0.01 * 2.0, rel=1e-15)
        assert np.all(dense.rs == 1.0) and np.all(dense.rps == 0.0)


def _nystrom_trees(n):
    """Every special Nystrom tree of n vertices (Hairer, Norsett & Wanner,
    II.14): a tuple of the meagre children of its fat root, each () for a
    leaf or (t,) for one carrying the fat tree t, sorted."""
    if n == 1:
        return [()]
    trees = set()

    def extend(rest, children):
        if rest == 0:
            trees.add(tuple(sorted(children)))
            return
        for m in range(1, rest + 1):
            for child in ([()] if m == 1 else
                          [(t,) for t in _nystrom_trees(m - 1)]):
                extend(rest - m, children + [child])

    extend(n - 1, [])
    return sorted(trees)


def _order(tree):
    return 1 + sum(1 if not m else 1 + _order(m[0]) for m in tree)


def _gamma(tree):
    g = _order(tree)
    for m in tree:
        if m:
            g *= (1 + _order(m[0])) * _gamma(m[0])
    return g


class TestNystromTableau:
    """ode.py's literals follow from DOP853's published 30-digit decimals
    (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.6; those of
    scipy's dop853_coefficients.py), held here as strings and read as exact
    rationals. The decimals meet the order conditions to about 1e-28, not
    exactly, so a derived weight below ZERO is a rounding of 0."""

    C = ("0.0", "0.526001519587677318785587544488e-01",
         "0.789002279381515978178381316732e-01",
         "0.118350341907227396726757197510",
         "0.281649658092772603273242802490",
         "0.333333333333333333333333333333", "0.25",
         "0.307692307692307692307692307692",
         "0.651282051282051282051282051282", "0.6",
         "0.857142857142857142857142857142", "1.0", "1.0", "0.1",
         "0.2", "0.777777777777777777777777777778")
    A = {  # row: {column: a}
        1: {0: "5.26001519587677318785587544488e-2"},
        2: {0: "1.97250569845378994544595329183e-2",
            1: "5.91751709536136983633785987549e-2"},
        3: {0: "2.95875854768068491816892993775e-2",
            2: "8.87627564304205475450678981324e-2"},
        4: {0: "2.41365134159266685502369798665e-1",
            2: "-8.84549479328286085344864962717e-1",
            3: "9.24834003261792003115737966543e-1"},
        5: {0: "3.7037037037037037037037037037e-2",
            3: "1.70828608729473871279604482173e-1",
            4: "1.25467687566822425016691814123e-1"},
        6: {0: "3.7109375e-2", 3: "1.70252211019544039314978060272e-1",
            4: "6.02165389804559606850219397283e-2", 5: "-1.7578125e-2"},
        7: {0: "3.70920001185047927108779319836e-2",
            3: "1.70383925712239993810214054705e-1",
            4: "1.07262030446373284651809199168e-1",
            5: "-1.53194377486244017527936158236e-2",
            6: "8.27378916381402288758473766002e-3"},
        8: {0: "6.24110958716075717114429577812e-1",
            3: "-3.36089262944694129406857109825",
            4: "-8.68219346841726006818189891453e-1",
            5: "2.75920996994467083049415600797e1",
            6: "2.01540675504778934086186788979e1",
            7: "-4.34898841810699588477366255144e1"},
        9: {0: "4.77662536438264365890433908527e-1",
            3: "-2.48811461997166764192642586468",
            4: "-5.90290826836842996371446475743e-1",
            5: "2.12300514481811942347288949897e1",
            6: "1.52792336328824235832596922938e1",
            7: "-3.32882109689848629194453265587e1",
            8: "-2.03312017085086261358222928593e-2"},
        10: {0: "-9.3714243008598732571704021658e-1",
            3: "5.18637242884406370830023853209",
            4: "1.09143734899672957818500254654",
            5: "-8.14978701074692612513997267357",
            6: "-1.85200656599969598641566180701e1",
            7: "2.27394870993505042818970056734e1",
            8: "2.49360555267965238987089396762",
            9: "-3.0467644718982195003823669022"},
        11: {0: "2.27331014751653820792359768449",
            3: "-1.05344954667372501984066689879e1",
            4: "-2.00087205822486249909675718444",
            5: "-1.79589318631187989172765950534e1",
            6: "2.79488845294199600508499808837e1",
            7: "-2.85899827713502369474065508674",
            8: "-8.87285693353062954433549289258",
            9: "1.23605671757943030647266201528e1",
            10: "6.43392746015763530355970484046e-1"},
        12: {0: "5.42937341165687622380535766363e-2",
            5: "4.45031289275240888144113950566",
            6: "1.89151789931450038304281599044",
            7: "-5.8012039600105847814672114227",
            8: "3.1116436695781989440891606237e-1",
            9: "-1.52160949662516078556178806805e-1",
            10: "2.01365400804030348374776537501e-1",
            11: "4.47106157277725905176885569043e-2"},
        13: {0: "5.61675022830479523392909219681e-2",
            6: "2.53500210216624811088794765333e-1",
            7: "-2.46239037470802489917441475441e-1",
            8: "-1.24191423263816360469010140626e-1",
            9: "1.5329179827876569731206322685e-1",
            10: "8.20105229563468988491666602057e-3",
            11: "7.56789766054569976138603589584e-3", 12: "-8.298e-3"},
        14: {0: "3.18346481635021405060768473261e-2",
            5: "2.83009096723667755288322961402e-2",
            6: "5.35419883074385676223797384372e-2",
            7: "-5.49237485713909884646569340306e-2",
            10: "-1.08347328697249322858509316994e-4",
            11: "3.82571090835658412954920192323e-4",
            12: "-3.40465008687404560802977114492e-4",
            13: "1.41312443674632500278074618366e-1"},
        15: {0: "-4.28896301583791923408573538692e-1",
            5: "-4.69762141536116384314449447206",
            6: "7.68342119606259904184240953878",
            7: "4.06898981839711007970213554331",
            8: "3.56727187455281109270669543021e-1",
            12: "-1.39902416515901462129418009734e-3",
            13: "2.9475147891527723389556272149",
            14: "-9.15095847217987001081870187138"},
    }
    # the embedded 3rd order formula's weights, nonzero on k1, k9, k12:
    # E3 = b - B_HAT3
    B_HAT3 = {0: "0.244094488188976377952755905512",
              8: "0.733846688281611857341361741547",
              11: "0.220588235294117647058823529412e-1"}
    # the weights of the 5th order error estimate
    E5 = {0: "0.1312004499419488073250102996e-1",
          5: "-0.1225156446376204440720569753e+1",
          6: "-0.4957589496572501915214079952",
          7: "0.1664377182454986536961530415e+1",
          8: "-0.3503288487499736816886487290",
          9: "0.3341791187130174790297318841",
          10: "0.8192320648511571246570742613e-1",
          11: "-0.2235530786388629525884427845e-1"}
    D = (  # the continuous extension's F3..F6 weights: {stage: d}
        {0: "-0.84289382761090128651353491142e+1",
         5: "0.56671495351937776962531783590",
         6: "-0.30689499459498916912797304727e+1",
         7: "0.23846676565120698287728149680e+1",
         8: "0.21170345824450282767155149946e+1",
         9: "-0.87139158377797299206789907490",
         10: "0.22404374302607882758541771650e+1",
         11: "0.63157877876946881815570249290",
         12: "-0.88990336451333310820698117400e-1",
         13: "0.18148505520854727256656404962e+2",
         14: "-0.91946323924783554000451984436e+1",
         15: "-0.44360363875948939664310572000e+1"},
        {0: "0.10427508642579134603413151009e+2",
         5: "0.24228349177525818288430175319e+3",
         6: "0.16520045171727028198505394887e+3",
         7: "-0.37454675472269020279518312152e+3",
         8: "-0.22113666853125306036270938578e+2",
         9: "0.77334326684722638389603898808e+1",
         10: "-0.30674084731089398182061213626e+2",
         11: "-0.93321305264302278729567221706e+1",
         12: "0.15697238121770843886131091075e+2",
         13: "-0.31139403219565177677282850411e+2",
         14: "-0.93529243588444783865713862664e+1",
         15: "0.35816841486394083752465898540e+2"},
        {0: "0.19985053242002433820987653617e+2",
         5: "-0.38703730874935176555105901742e+3",
         6: "-0.18917813819516756882830838328e+3",
         7: "0.52780815920542364900561016686e+3",
         8: "-0.11573902539959630126141871134e+2",
         9: "0.68812326946963000169666922661e+1",
         10: "-0.10006050966910838403183860980e+1",
         11: "0.77771377980534432092869265740",
         12: "-0.27782057523535084065932004339e+1",
         13: "-0.60196695231264120758267380846e+2",
         14: "0.84320405506677161018159903784e+2",
         15: "0.11992291136182789328035130030e+2"},
        {0: "-0.25693933462703749003312586129e+2",
         5: "-0.15418974869023643374053993627e+3",
         6: "-0.23152937917604549567536039109e+3",
         7: "0.35763911791061412378285349910e+3",
         8: "0.93405324183624310003907691704e+2",
         9: "-0.37458323136451633156875139351e+2",
         10: "0.10409964950896230045147246184e+3",
         11: "0.29840293426660503123344363579e+2",
         12: "-0.43533456590011143754432175058e+2",
         13: "0.96324553959188282948394950600e+2",
         14: "-0.39177261675615439165231486172e+2",
         15: "-0.14972683625798562581422125276e+3"},
    )

    ZERO = Fraction(1, 10 ** 25)

    @classmethod
    def rationals(cls):
        """c, the 16 x 16 A, b, the E5 and E3 weights over k1..k12."""
        F = Fraction
        c = [F(v) for v in cls.C]
        a = [[F(0)] * 16 for _ in range(16)]
        for i, row in cls.A.items():
            for j, v in row.items():
                a[i][j] = F(v)
        b = a[12][:12]
        e5 = [F(cls.E5.get(j, "0")) for j in range(12)]
        e3 = [b[j] - F(cls.B_HAT3.get(j, "0")) for j in range(12)]
        return c, a, b, e5, e3

    @staticmethod
    def times(v, a):
        """The row vector v A over the first len(v) rows of A."""
        return [sum((v[m] * a[m][j] for m in range(len(v))), Fraction(0))
                for j in range(16)]

    def expect(self, values):
        return tuple(0.0 if abs(v) < self.ZERO else float(v) for v in values)

    def extension(self, theta, b):
        """W with r'(theta) = r' + h W . k over the 16 stages: the velocity
        of DOP853's continuous extension, y0 + theta (F0 + (1 - theta) (F1
        + theta (F2 + ...))) with F0 = h b . k, F1 = h k1 - F0,
        F2 = 2 F0 - h (k13 + k1) and F3..F6 = h D . k."""
        unit = [[Fraction(int(i == j)) for j in range(16)] for i in (0, 12)]
        f0 = list(b) + [Fraction(0)] * 4
        fs = [f0, [u - v for u, v in zip(unit[0], f0)],
              [2 * v - u - w for v, u, w in zip(f0, *unit)]]
        fs += [[Fraction(row.get(j, "0")) for j in range(16)]
               for row in self.D]
        w = [Fraction(0)] * 16
        for i, f in enumerate(reversed(fs)):
            factor = theta if i % 2 == 0 else 1 - theta
            w = [(u + v) * factor for u, v in zip(w, f)]
        return w

    def test_order_conditions_behind_the_nystrom_form(self):
        """Each row of A sums to its c, which is what lets a stage take
        c_i h r' for h sum_j a_ij r'; E5 and E3 sum to 0, which makes their
        error in r h^2 EA . k. Then with the Nystrom rows D = A^2 and the
        r weights bA: sum_i b_i Phi_i(t) = 1/gamma(t) on every special
        Nystrom tree t of up to 8 vertices, and sum_i (bA)_i Phi_i(t) =
        1/((rho(t) + 1) gamma(t)) on those of up to 7, to the decimals'
        precision: the step is of order 8, and not 9."""
        c, a, b, e5, e3 = self.rationals()
        for row, ci in zip(a, c):
            assert abs(sum(row) - ci) < 1e-28
        assert abs(sum(e5)) < 1e-27 and abs(sum(e3)) < 1e-27
        d = [self.times(row, a)[:12] for row in a[:12]]
        ba = self.times(b, a)[:12]
        phis = {}

        def phi(tree):
            if tree not in phis:
                v = [Fraction(1)] * 12
                for m in tree:
                    if m:
                        sub = phi(m[0])
                        f = [sum(di[j] * sub[j] for j in range(12))
                             for di in d]
                    else:
                        f = c[:12]
                    v = [x * y for x, y in zip(v, f)]
                phis[tree] = v
            return phis[tree]

        # 1, 1, 2, 3, 6, 10, 20 and 36 trees of 1 to 8 vertices
        assert [len(_nystrom_trees(n)) for n in range(1, 9)] == [
            1, 1, 2, 3, 6, 10, 20, 36]
        for n in range(1, 9):
            for tree in _nystrom_trees(n):
                p, gamma = phi(tree), _gamma(tree)
                assert abs(sum(x * y for x, y in zip(b, p))
                           - Fraction(1, gamma)) < 1e-25
                if n <= 7:
                    assert abs(sum(x * y for x, y in zip(ba, p))
                               - Fraction(1, (n + 1) * gamma)) < 1e-25
        ninth = sum(x * y ** 8 for x, y in zip(b, c))
        assert abs(ninth - Fraction(1, 9)) > 1e-6

    def test_literals_match_the_rationals(self):
        c, a, b, e5, e3 = self.rationals()
        a2 = [self.times(row, a) for row in a]
        assert _C == tuple(float(v) for v in c[1:12])
        # row i of A^2 for stage i + 1 weighs k1..k(i-1)
        for i, row in enumerate(_A2, start=1):
            assert row == self.expect(a2[i][:i - 1])
        for i, row in enumerate(_A2_DENSE, start=13):
            assert row == self.expect(a2[i][:i - 1])
        assert _C_DENSE == tuple(float(v) for v in c[13:16])
        ba = self.times(b, a)
        assert ba[11] == 0 and _BA == self.expect(ba[:12])
        assert _B == tuple(float(v) for v in b)
        assert _E5 == tuple(float(v) for v in e5)
        assert _E3 == tuple(float(v) for v in e3)
        for literal, e in ((_E5A, e5), (_E3A, e3)):
            ea = self.times(e, a)
            assert ea[11] == 0 and literal == self.expect(ea[:12])
        thirds = [self.extension(Fraction(j, 3), b) for j in (1, 2)]
        assert _W == tuple(self.expect(w) for w in thirds)
        # the extension starts at r' and ends at the step's new r'
        assert not any(self.extension(Fraction(0), b))
        assert self.extension(Fraction(1), b) == list(b) + [0] * 4

    def test_septic_weights_are_the_exact_inverse(self):
        """_SEPTIC after _QUINTIC_THIRDS, applied to (delta, dd, aa, p1, p2),
        is the inverse of the septic's conditions on c3..c7, exactly."""
        quintic = [[Fraction(w) / 81 for w in row] for row in _QUINTIC_THIRDS]
        for col, want in enumerate(zip(*_septic_inverse())):
            unit = [Fraction(int(i == col)) for i in range(5)]
            # e_j = p_j - (quintic_j . (delta, dd, aa))
            cond = unit[:3] + [unit[3 + j] - sum(
                w * v for w, v in zip(quintic[j], unit[:3])) for j in (0, 1)]
            got = [sum(Fraction(w) * v for w, v in zip(row, cond))
                   for row in _SEPTIC]
            assert got == list(want)
