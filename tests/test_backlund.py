import numpy as np
import pytest

from gpbacklund.backlund import is_fixed_point, orbit, transform
from gpbacklund.errors import DomainEscape
from gpbacklund.functional import PolyG, ShiftMap
from gpbacklund.gp import ClosedFormSolution, GPParams, gp_rhs
from gpbacklund.ode import (SolutionGrid, ToleranceSpec, integrate_span,
                            residual_max, sample)

TOL = ToleranceSpec(atol=1e-10, rtol=1e-10)


def closed_form(n=1, eta=1.0):
    return ClosedFormSolution(GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0))


def integrated_seed(n=1, eta=1.0, bump=1.15, x0=1.0, x_hi=3.3):
    """Generic solution: closed-form slope, amplitude off by ``bump``."""
    p = GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0)
    exact = ClosedFormSolution(p)
    return p, integrate_span(gp_rhs(p), x0,
                             bump * float(exact.value(x0)),
                             bump * float(exact.derivative(x0)),
                             x0, x_hi, TOL)


class TestTransform:
    def test_zero_shift_is_identity(self):
        seed = closed_form()
        xs = np.linspace(1.0, 2.5, 101)
        shift = ShiftMap(PolyG(1, 1.0), 0.0)
        grid = transform(shift, seed, xs)
        assert np.allclose(grid.rs, seed.value(xs), rtol=0, atol=1e-13)
        assert np.allclose(grid.rps, seed.derivative(xs), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("K", [0.25, 0.5, 1.0, 2.0])
    def test_closed_form_is_reproduced(self, K):
        seed = closed_form()
        xs = np.linspace(0.5, 3.0, 201)
        shift = ShiftMap(PolyG(1, 1.0), K)
        grid = transform(shift, seed, xs)
        assert np.max(np.abs(grid.rs - seed.value(grid.xs))) < 1e-10

    def test_transforms_generic_solution_to_solution(self):
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 0.5)
        grid = transform(shift, dense, np.linspace(1.0, 2.5, 4001))
        assert residual_max(gp_rhs(p), grid) < 1e-5

    def test_large_excursion_seed(self):
        # r(1) = 1.3 swings down to r ~ 0.11: the sharp bounces demand a
        # tight seed tolerance and a fine differencing grid
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        ode = gp_rhs(p)
        dense = integrate_span(ode, 1.0, 1.3, 0.0, 1.0, 2.65,
                               ToleranceSpec(1e-12, 1e-12))
        shift = ShiftMap(p.g, 0.5)
        grid = transform(shift, dense, np.linspace(1.0, 2.5, 16001))
        assert residual_max(ode, grid) < 1e-5

    def test_derivative_column_consistent(self):
        # chain-rule r1' must match differentiating the r1 samples
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 0.5)
        grid = transform(shift, dense, np.linspace(1.0, 2.5, 2001))
        mid = np.gradient(grid.rs, grid.xs)
        assert np.max(np.abs(mid[5:-5] - grid.rps[5:-5])) < 5e-4

    def test_trims_escaping_points(self):
        # seed known only on [1, 2]: the transform must keep f(x) inside
        seed = closed_form()
        p = seed.params
        dense = integrate_span(gp_rhs(p), 1.0, float(seed.value(1.0)),
                               float(seed.derivative(1.0)), 1.0, 2.0, TOL)
        shift = ShiftMap(p.g, 1.0)
        xs = np.linspace(0.5, 2.0, 301)
        grid = transform(shift, dense, xs)
        lo, hi = grid.meta["interval"]
        assert hi < 2.0
        fs = shift.f(grid.xs)
        assert np.all((fs >= 1.0) & (fs <= 2.0))
        assert grid.meta["trimmed"] > 0

    def test_all_points_escaping_raises(self):
        # f(3.2) > 3.3 for K=1, so every requested point leaves the seed
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 1.0)
        with pytest.raises(DomainEscape):
            transform(shift, dense, np.linspace(3.2, 3.29, 11))

    def test_inverse_shift_returns_seed(self):
        # apply K then -K: the composition is the identity where defined
        p, dense = integrated_seed()
        xs = np.linspace(1.0, 2.5, 2001)
        step1 = transform(ShiftMap(p.g, 0.6), dense, xs)
        step2 = transform(ShiftMap(p.g, -0.6),
                          step1.as_interpolant(), xs)
        ref, _ = dense.eval_with_derivative(step2.xs)
        assert np.max(np.abs(step2.rs - ref)) < 1e-7


class TestOrbit:
    def test_zero_schedule_copies_seed(self):
        seed = closed_form()
        xs = np.linspace(1.0, 2.0, 51)
        grids = orbit(PolyG(1, 1.0), [0.0, 0.0, 0.0], seed, xs)
        assert len(grids) == 3
        for g in grids:
            assert np.allclose(g.rs, seed.value(xs), rtol=0, atol=1e-13)

    def test_constant_solution_eta_zero(self):
        # n=1, eta=0: f(x) = x + K, f' = 1, so constants are fixed
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        seed = ClosedFormSolution(p)
        xs = np.linspace(1.0, 4.0, 101)
        for g in orbit(PolyG(1, 0.0), [1.0, 2.0], seed, xs):
            assert np.allclose(g.rs, 1.0, rtol=0, atol=1e-14)

    def test_schedule_sums_match_single_shift(self):
        seed = closed_form()
        xs = np.linspace(1.0, 2.0, 101)
        split = orbit(PolyG(1, 1.0), [0.5, 0.5], seed, xs)[-1]
        single = orbit(PolyG(1, 1.0), [1.0], seed, xs)[0]
        assert np.max(np.abs(split.rs - single.rs)) < 1e-9

    def test_empty_schedule(self):
        assert orbit(PolyG(1, 1.0), [], closed_form(), [1.0, 2.0]) == []

    def test_failure_names_orbit_index(self):
        # cumulative K=13.5 pushes f past the seed's right edge everywhere
        p, dense = integrated_seed()
        with pytest.raises(DomainEscape, match="orbit element 2"):
            orbit(p.g, [0.5, 13.0], dense, np.linspace(1.0, 2.5, 101))


class TestFixedPoint:
    @pytest.mark.parametrize("K", [0.25, 0.5, 1.0])
    def test_closed_form_is_fixed(self, K):
        seed = closed_form()
        shift = ShiftMap(PolyG(1, 1.0), K)
        res = is_fixed_point(shift, seed, np.linspace(0.5, 3.0, 101))
        assert res.is_fixed
        assert res.deviation < 1e-10

    def test_constant_grid_eta_zero(self):
        xs = np.linspace(1.0, 4.0, 101)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        shift = ShiftMap(PolyG(1, 0.0), 0.7)
        res = is_fixed_point(shift, grid.as_interpolant(), grid.xs)
        assert res.is_fixed

    def test_generic_seed_is_not_fixed(self):
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 0.7)
        res = is_fixed_point(shift, dense, np.linspace(1.0, 2.3, 101))
        assert not res.is_fixed
        assert res.deviation > 1e-2

    def test_grid_input_uses_own_nodes(self):
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        xs = np.linspace(1.0, 4.0, 51)
        grid = SolutionGrid(xs=xs, rs=np.ones_like(xs), rps=np.zeros_like(xs))
        shift = ShiftMap(p.g, 0.3)
        res = is_fixed_point(shift, grid.as_interpolant(), grid.xs)
        assert res.deviation < 1e-12

    def test_array_parameters_give_the_worst_map(self):
        # K = -0.5 trims the points below its x_min, for every map
        eta = np.array([[[0.0]], [[1.0]]])
        k = np.array([[-0.5], [0.5]])
        xs = np.linspace(0.1, 3.0, 50)
        seed = ClosedFormSolution(GPParams.constrained(n=2, eta=eta, c=1.0))
        res = is_fixed_point(ShiftMap(PolyG(2, eta), k),
                             seed, xs)
        common = xs[xs > ShiftMap(PolyG(2, 0.0), -0.5).x_min]
        assert common.size < xs.size
        assert res.deviation == max(
            is_fixed_point(ShiftMap(PolyG(2, e), kk),
                           closed_form(n=2, eta=e), common).deviation
            for e in (0.0, 1.0) for kk in (-0.5, 0.5))


class TestEffectiveDomain:
    @pytest.mark.parametrize("seed_domain", [(0.0, np.inf), (0.7, 2.5)])
    def test_array_parameters_match_scalar_parameters(self, seed_domain):
        # K = 60 maps no point into (0.7, 2.5): an empty interval
        eta = np.array([[0.0], [0.5]])
        k = np.array([-2.0, -0.1, 0.0, 0.4, 60.0])
        lo, hi = ShiftMap(PolyG(2, eta), k).effective_domain(seed_domain)
        hi = np.broadcast_to(hi, lo.shape)
        for i, e in enumerate(eta[:, 0]):
            for j, kk in enumerate(k):
                expected = ShiftMap(PolyG(2, e), kk).effective_domain(
                    seed_domain)
                # numpy's array pow may round an ulp away from the scalar
                for got, want in zip((lo[i, j], hi[i, j]), expected):
                    assert got == want or abs(got - want) <= np.spacing(want)

    @pytest.mark.parametrize("k", [-0.7, 0.0, 0.7, 60.0])
    def test_scalar_parameters_give_floats(self, k):
        shift = ShiftMap(PolyG(2, 0.5), k)
        assert type(shift.x_min) is float
        lo, hi = shift.effective_domain((0.7, 2.5))
        assert type(lo) is float and type(hi) is float


class TestSolutionMappingSweep:
    @pytest.mark.parametrize("n,eta", [(1, 0.0), (1, 0.5), (1, 1.0),
                                       (2, 0.5), (2, 1.0)])
    def test_residual_bounded_after_transform(self, n, eta):
        p, dense = integrated_seed(n=n, eta=eta, bump=1.12, x_hi=3.1)
        seed_grid = sample(dense, np.linspace(1.0, 2.3, 4001))
        seed_res = residual_max(gp_rhs(p), seed_grid)
        grid = transform(ShiftMap(p.g, 0.5), dense,
                         np.linspace(1.0, 2.3, 4001))
        res = residual_max(gp_rhs(p), grid)
        assert res < 100.0 * seed_res + 1e-5
