import math

import numpy as np
import pytest

from gpbacklund import ode
from gpbacklund.errors import (AmplitudeCollapse, BlowUp, GridTooSmall,
                               NonFinite, OutOfRange, StepBudgetExhausted,
                               StepSizeUnderflow)
from gpbacklund.gp import GPParams, LiouvilleSolution, gp_rhs
from gpbacklund.ode import (_A, _B5, _C, _E, DenseSolution, SecondOrderODE,
                            SolutionGrid, ToleranceSpec, integrate,
                            integrate_span, residual, residual_max, sample,
                            stationary_points)

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
        assert dense.domain[0] == pytest.approx(0.01)
        r, _ = dense.evaluate(0.5)
        assert r == pytest.approx(math.sin(0.5), abs=1e-8)

    def test_span_covers_both_sides(self):
        dense = integrate_span(SINE, 1.0, math.sin(1.0), math.cos(1.0),
                               0.3, 1.5, TOL)
        for x in (0.3, 0.7, 1.0, 1.5):
            assert dense.evaluate(x)[0] == pytest.approx(math.sin(x), abs=1e-8)

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
        attempts = (calls - 1) // 6  # one initial call, then 6 per attempt
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
        """Endpoint error vs mean step size on the sine oracle: the slope
        must sit in [4, 6] for an order-5 pair."""
        errs, steps = [], []
        for k in range(8):
            tol = ToleranceSpec(atol=1e-7 * 4.0 ** -k, rtol=1e-7 * 4.0 ** -k)
            dense = sine_problem(tol=tol)
            errs.append(abs(dense.evaluate(math.pi / 2)[0] - 1.0))
            steps.append((math.pi / 2 - 0.01) / dense.meta["steps"])
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 4.0 <= slope <= 6.0


class TestDenseOutput:
    def test_nodes_reproduced_exactly(self):
        dense = sine_problem()
        rs, rps = dense.eval_with_derivative(dense.xs)
        assert np.array_equal(rs, dense.rs)
        assert np.array_equal(rps, dense.rps)

    def test_quintic_exactness(self):
        # solution r = x^5 has vanishing sixth derivative: both the pair and
        # the quintic interpolant reproduce it to rounding
        ode = SecondOrderODE(rhs=lambda x, r: 20.0 * x ** 3, domain=(0.5, 10.0))
        dense = integrate(ode, 1.0, 1.0, 5.0, 2.0, ToleranceSpec(1e-8, 1e-8))
        xq = np.linspace(1.0, 2.0, 37)
        rq, rpq = dense.eval_with_derivative(xq)
        assert np.max(np.abs(rq - xq ** 5)) < 1e-10
        assert np.max(np.abs(rpq - 5 * xq ** 4)) < 1e-9

    def test_c1_continuity_at_nodes(self):
        # adjacent quintics share value and first derivative at each node,
        # so straddling evaluations differ only by the smooth 2*eps drift
        dense = sine_problem()
        eps = 1e-9
        for xn in dense.xs[1:-1][::5]:
            below = dense.evaluate(xn - eps)
            above = dense.evaluate(xn + eps)
            assert below[0] == pytest.approx(above[0], abs=1e-8)
            assert below[1] == pytest.approx(above[1], abs=1e-8)

    def test_out_of_range(self):
        dense = sine_problem()
        with pytest.raises(OutOfRange):
            dense.evaluate(99.0)


def _hermite5(s, h, y0, d0, a0, y1, d1, a1):
    """Quintic Hermite basis matching value/1st/2nd derivative at both ends:
    the evaluator's former form, the oracle here in np.longdouble."""
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
    """The Horner form against the same quintic Hermite in np.longdouble.
    The basis form it replaced took r' as (g00 y0 + g01 y1)/h, which
    cancels: it was off by 300-1100 eps of max|r'| on these seeds."""

    @pytest.mark.parametrize("i", range(len(_ORBIT_LIKE)))
    def test_matches_longdouble_hermite(self, i):
        seed, rng = _orbit_like_seed(i)
        dense = seed.rho
        tq = rng.uniform(dense.xs[0], dense.xs[-1], 4000)
        r, rp = dense.evaluate(tq)
        k = np.clip(np.searchsorted(dense.xs, tq, side="right") - 1,
                    0, dense.xs.size - 2)
        xs, rs, rps, rpps = (a.astype(np.longdouble) for a in
                             (dense.xs, dense.rs, dense.rps, dense.rpps))
        h = xs[k + 1] - xs[k]
        val, der = _hermite5((tq - xs[k]) / h, h, rs[k], rps[k], rpps[k],
                             rs[k + 1], rps[k + 1], rpps[k + 1])
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
            dense.eval_with_derivative(xq)

    def test_grid_interpolant(self):
        grid = sample(sine_problem(), np.linspace(0.05, 1.4, 11))
        with pytest.raises(NonFinite, match="query point 1 of 2 is nan"):
            grid.as_interpolant().eval_with_derivative([0.5, math.nan])

    def test_liouville_seed_is_not_out_of_range(self):
        seed, _ = _orbit_like_seed(0)
        xq = np.array([seed.domain[0], math.nan])
        with pytest.raises(NonFinite, match="query point 1 of 2 is nan"):
            seed.eval_with_derivative(xq)
        with pytest.raises(NonFinite, match="query point 0 of 1 is nan"):
            sample(seed, [math.nan])


class TestSample:
    def test_constant(self):
        dense = integrate(FREE, 1.0, 1.0, 0.0, 3.5, TOL)
        grid = sample(dense, [1.0, 2.0, 3.0])
        assert np.allclose(grid.rs, 1.0)

    def test_sine_value(self):
        grid = sample(sine_problem(), [math.pi / 2])
        assert grid.rs[0] == pytest.approx(1.0, abs=1e-8)

    def test_empty(self):
        grid = sample(sine_problem(), [])
        assert len(grid) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            sample(sine_problem(), [50.0])


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
        grid = sample(dense, xs)
        assert residual_max(SINE, grid) < 100 * TOL.atol

    def test_grid_too_small(self):
        xs = np.linspace(1.0, 2.0, 5)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        with pytest.raises(GridTooSmall):
            residual(FREE, grid)

    def test_non_uniform_resampled(self):
        dense = sine_problem(x_end=1.5)
        xs = np.sort(np.concatenate([np.linspace(0.05, 1.45, 95),
                                     [0.513, 0.7177]]))
        grid = sample(dense, xs)
        res = residual(SINE, grid)
        assert np.max(np.abs(res)) < 1e-4  # limited by cubic resampling

    def test_one_sided_stencils_are_fourth_order(self):
        # quartic data is differentiated exactly by every stencil in use
        xs = np.linspace(1.0, 2.0, 25)
        rs = xs ** 4
        grid = SolutionGrid(xs=xs, rs=rs, rps=4 * xs ** 3)
        res = residual(FREE, grid)
        assert np.allclose(res, 12.0 * xs ** 2, rtol=1e-10)


class TestRoundTrip:
    def test_grid_interpolant_matches_nodes(self):
        dense = sine_problem()
        xs = np.linspace(0.05, 1.4, 51)
        grid = sample(dense, xs)
        interp = grid.as_interpolant()
        rs, rps = interp.eval_with_derivative(xs)
        assert np.allclose(rs, grid.rs, rtol=0, atol=1e-14)
        assert np.allclose(rps, grid.rps, rtol=0, atol=1e-12)

    def test_grid_interpolant_is_exact_on_cubics(self):
        xs = np.array([1.0, 1.3, 2.0, 2.2, 3.0])
        grid = SolutionGrid(xs=xs, rs=xs ** 3 - xs + 2.0, rps=3 * xs ** 2 - 1)
        xq = np.linspace(1.0, 3.0, 41)
        rs, rps = grid.as_interpolant().eval_with_derivative(xq)
        assert np.allclose(rs, xq ** 3 - xq + 2.0, rtol=1e-14, atol=0)
        assert np.allclose(rps, 3 * xq ** 2 - 1, rtol=1e-13, atol=0)
        with pytest.raises(OutOfRange):
            grid.as_interpolant().eval_with_derivative([3.1])


# ---------------------------------------------------------------------------
# Bit-for-bit pin of the straight-line FSAL step against the generic
# tableau-driven Dormand-Prince loop it replaced. The oracle evaluates rhs
# seven times per attempted step and walks the tableau with the same sum
# order (start at 0.0, add left to right, skip zero weights).

def _oracle_rhs(rhs, x, r):
    try:
        return float(rhs(x, r))
    except (ZeroDivisionError, OverflowError, ValueError):
        return math.inf


def reference_integrate(ode, x0, r0, rp0, x_end, tol=ToleranceSpec(),
                        amplitude_floor=1e-6):
    """(xs, rs, rps, rpps, attempted steps) of the tableau-driven loop."""
    direction = 1.0 if x_end > x0 else -1.0
    span = abs(x_end - x0)
    x, r, rp = float(x0), float(r0), float(rp0)
    nodes = [(x, r, rp, _oracle_rhs(ode.rhs, x, r))]
    h = direction * min(0.01 * span, span)
    k = [(0.0, 0.0)] * 7
    attempts = 0
    while (x_end - x) * direction > 0.0:
        last = (x + h - x_end) * direction >= 0.0
        if last:
            h = x_end - x
        if abs(h) < 1e-14 * max(1.0, abs(x)) or x + h == x:
            raise StepSizeUnderflow(f"step {h:.3e} underflowed at x={x:.6g}")
        attempts += 1
        k[0] = (rp, _oracle_rhs(ode.rhs, x, r))
        bad = not math.isfinite(k[0][1])
        for i in range(1, 7):
            if bad:
                break
            sr = srp = 0.0
            for j, aij in enumerate(_A[i]):
                if aij != 0.0:
                    sr += aij * k[j][0]
                    srp += aij * k[j][1]
            ri = r + h * sr
            rpi = rp + h * srp
            acc = _oracle_rhs(ode.rhs, x + _C[i] * h, ri)
            if not (math.isfinite(ri) and math.isfinite(rpi)
                    and math.isfinite(acc)):
                bad = True
                break
            k[i] = (rpi, acc)
        if not bad:
            dr = drp = er = erp = 0.0
            for i in range(7):
                if _B5[i] != 0.0:
                    dr += _B5[i] * k[i][0]
                    drp += _B5[i] * k[i][1]
                if _E[i] != 0.0:
                    er += _E[i] * k[i][0]
                    erp += _E[i] * k[i][1]
            r_new = r + h * dr
            rp_new = rp + h * drp
            sc_r = tol.atol + tol.rtol * max(abs(r), abs(r_new))
            sc_rp = tol.atol + tol.rtol * max(abs(rp), abs(rp_new))
            e1 = h * er / sc_r
            e2 = h * erp / sc_rp
            err = math.sqrt(0.5 * (e1 * e1 + e2 * e2))
            bad = not math.isfinite(err)
        if bad:
            err = math.inf
        if err <= 1.0:
            x = x_end if last else x + h
            r, rp = r_new, rp_new
            if r < amplitude_floor:
                raise AmplitudeCollapse(
                    f"amplitude {r:.3e} fell below floor {amplitude_floor} "
                    f"at x={x:.6g}")
            if abs(r) > 1e12 or abs(rp) > 1e12:
                raise BlowUp(f"state exceeded {1e12:.1e} at x={x:.6g}")
            nodes.append((x, r, rp, k[6][1]))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        h *= factor
    xs, rs, rps, rpps = (np.array(col) for col in zip(*nodes))
    if direction < 0.0:
        xs, rs, rps, rpps = xs[::-1], rs[::-1], rps[::-1], rpps[::-1]
    return xs, rs, rps, rpps, attempts


def _counting(ode):
    """A copy of ode whose rhs counts its calls in the returned list."""
    calls = [0]

    def rhs(x, r):
        calls[0] += 1
        return ode.rhs(x, r)

    return SecondOrderODE(rhs=rhs, domain=ode.domain), calls


def _gp_ode(n, eta):
    return gp_rhs(GPParams(n=n, eta=eta, b=-1.0, c=1.0))


# a unit oscillation about r = 1 under a square-wave force: every jump of
# the force rejects a run of steps. The rhs raises ValueError above r = 1.6,
# where some large trial steps overshoot, so those are rejected mid-step.
KINKED = SecondOrderODE(
    rhs=lambda x, r: ((1.0 - r) + (0.5 if math.sin(5.0 * x) > 0.0 else -0.5)
                      + 0.0 * math.sqrt(1.6 - r)),
    domain=(1e-3, 1e3))

# a unit oscillation about r = 1 whose rhs returns inf, without raising, at
# the third stage of the first attempted step only, x = 1 + (3/10) 0.02
MIDDLE_STAGE_X = 1.0 + 0.3 * (0.01 * 2.0)
MIDDLE_STAGE_INF = SecondOrderODE(
    rhs=lambda x, r: math.inf if x == MIDDLE_STAGE_X else 1.0 - r,
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
        ode, x0, r0, rp0, x_end, tol = PINNED[name]
        dense = integrate(ode, x0, r0, rp0, x_end, tol)
        xs, rs, rps, rpps, attempts = reference_integrate(
            ode, x0, r0, rp0, x_end, tol)
        for got, want in ((dense.xs, xs), (dense.rs, rs), (dense.rps, rps),
                          (dense.rpps, rpps)):
            assert got.tobytes() == want.tobytes()

    def test_many_rejections_case_rejects(self):
        ode, x0, r0, rp0, x_end, tol = PINNED["many_rejections"]
        counting, calls = _counting(ode)
        integrate(counting, x0, r0, rp0, x_end, tol)
        xs, _, _, _, attempts = reference_integrate(ode, x0, r0, rp0, x_end,
                                                    tol)
        accepted = xs.size - 1
        assert attempts - accepted > accepted
        # some rejected steps stop early at a stage that raised
        assert calls[0] < 1 + 6 * attempts

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
    def test_six_rhs_calls_per_attempt(self, name):
        ode, x0, r0, rp0, x_end, tol = PINNED[name]
        counting, calls = _counting(ode)
        integrate(counting, x0, r0, rp0, x_end, tol)
        attempts = reference_integrate(ode, x0, r0, rp0, x_end, tol)[4]
        assert calls[0] == 1 + 6 * attempts

    def test_non_finite_middle_stage_rejects_the_step(self):
        ode, x0, r0, rp0, x_end, tol = PINNED["middle_stage_inf"]
        counting, calls = _counting(ode)
        dense = integrate(counting, x0, r0, rp0, x_end, tol)
        # the first attempt runs all its stages, and is rejected: the first
        # step, 0.01 * span, shrinks by 0.2
        assert calls[0] == 1 + 6 * reference_integrate(*PINNED[
            "middle_stage_inf"])[4]
        assert dense.xs[1] == pytest.approx(1.0 + 0.2 * 0.02, rel=1e-15)

    def test_failure_at_the_last_stage_only_rejects_the_step(self):
        # call 1 is the initial point, calls 2-6 the stages of the first
        # attempt and call 7 its last (FSAL) stage, the only one to fail
        calls = [0]

        def rhs(x, r):
            calls[0] += 1
            return math.inf if calls[0] == 7 else 0.0

        ode = SecondOrderODE(rhs=rhs, domain=(1e-3, 100.0))
        dense = integrate(ode, 1.0, 1.0, 0.0, 3.0, TOL)
        # the rejection shrinks the first step, 0.01 * span, by 0.2
        assert dense.xs[1] == pytest.approx(1.0 + 0.2 * 0.01 * 2.0, rel=1e-15)
        assert np.all(dense.rs == 1.0)
