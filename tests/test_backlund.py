import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import (_pull_back, is_fixed_point, orbit,
                                 transform)
from gpbacklund.errors import DomainEscape, NonFinite
from gpbacklund.functional import PolyG, ShiftMap
from gpbacklund.gp import (ClosedFormSolution, GPParams, LiouvilleSolution,
                           gp_rhs)
from gpbacklund.ode import ToleranceSpec, residual_max, sample

TOL = ToleranceSpec(atol=1e-10, rtol=1e-10)


def closed_form(n=1, eta=1.0):
    return ClosedFormSolution(GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0))


def two_read_fixed_point(shift, seed, xs):
    """The fixed-point check by its own route: one pull-back, then the seed
    read at the kept points and at their roots."""
    kept, f, fp = _pull_back(shift, seed, xs)
    return is_fixed_point(seed.eval_with_derivative(kept)[0],
                          seed.eval_with_derivative(f)[0], fp)


def integrated_seed(n=1, eta=1.0, bump=1.15, x0=1.0, x_hi=3.3):
    """Generic solution: closed-form slope, amplitude off by ``bump``."""
    p = GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0)
    (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(x0)
    return p, LiouvilleSolution(p, x0, bump * r0, bump * rp0, x0, x_hi, TOL)


class TestTransform:
    def test_zero_shift_is_identity(self):
        seed = closed_form()
        xs = np.linspace(1.0, 2.5, 101)
        shift = ShiftMap(PolyG(1, 1.0), 0.0)
        grid = transform(shift, seed, xs)
        rs, rps = seed.eval_with_derivative(xs)
        assert np.allclose(grid.rs, rs, rtol=0, atol=1e-13)
        assert np.allclose(grid.rps, rps, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("K", [0.25, 0.5, 1.0, 2.0])
    def test_closed_form_is_reproduced(self, K):
        seed = closed_form()
        xs = np.linspace(0.5, 3.0, 201)
        shift = ShiftMap(PolyG(1, 1.0), K)
        grid = transform(shift, seed, xs)
        rs = seed.eval_with_derivative(grid.xs)[0]
        assert np.max(np.abs(grid.rs - rs)) < 1e-10

    def test_transforms_generic_solution_to_solution(self):
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 0.5)
        grid = transform(shift, dense, np.linspace(1.0, 2.5, 4001))
        assert residual_max(gp_rhs(p), grid) < 1e-5

    def test_large_excursion_seed(self):
        # r(1) = 1.3 swings down to r ~ 0.11: the sharp bounces demand a
        # tight seed tolerance and a fine differencing grid
        p = GPParams.constrained(n=1, eta=1.0, c=1.0, v=1.0)
        seed = LiouvilleSolution(p, 1.0, 1.3, 0.0, 1.0, 2.65,
                                 ToleranceSpec(1e-12, 1e-12))
        shift = ShiftMap(p.g, 0.5)
        grid = transform(shift, seed, np.linspace(1.0, 2.5, 16001))
        assert residual_max(gp_rhs(p), grid) < 1e-5

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
        (r0,), (rp0,) = seed.eval_with_derivative(1.0)
        dense = LiouvilleSolution(p, 1.0, r0, rp0, 1.0, 2.0, TOL)
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
        # apply K then -K: r1(f_-K(x))/sqrt(f_-K'(x)) = r0(x), with the
        # first transform taken at the points f_-K(x) (measured: 5.0e-16)
        p, seed = integrated_seed()
        back = ShiftMap(p.g, -0.6)
        xs = np.linspace(1.5, 2.5, 2001)
        ys = back.f(xs)
        step1 = transform(ShiftMap(p.g, 0.6), seed, ys)
        assert step1.meta["trimmed"] == 0
        r2 = step1.rs / np.sqrt(back.f_prime(xs, ys))
        ref, _ = seed.eval_with_derivative(xs)
        assert np.max(np.abs(r2 - ref)) < 1e-12


class TestOrbit:
    def test_zero_schedule_copies_seed(self):
        seed = closed_form()
        xs = np.linspace(1.0, 2.0, 51)
        grids = orbit(PolyG(1, 1.0), [0.0, 0.0, 0.0], seed, xs)
        assert len(grids) == 3
        rs = seed.eval_with_derivative(xs)[0]
        for g in grids:
            assert np.allclose(g.rs, rs, rtol=0, atol=1e-13)

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
        res = two_read_fixed_point(shift, seed, np.linspace(0.5, 3.0, 101))
        assert res.is_fixed
        assert res.deviation < 1e-10

    def test_constant_grid_eta_zero(self):
        # n = 1, eta = 0: f(x) = x + K, f' = 1, so the constant r = 1, here
        # integrated from its own data, is fixed
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        seed = LiouvilleSolution(p, 1.0, 1.0, 0.0, 1.0, 4.0, TOL)
        shift = ShiftMap(PolyG(1, 0.0), 0.7)
        res = two_read_fixed_point(shift, seed, np.linspace(1.0, 4.0, 101))
        assert res.is_fixed

    def test_generic_seed_is_not_fixed(self):
        p, dense = integrated_seed()
        shift = ShiftMap(p.g, 0.7)
        res = two_read_fixed_point(shift, dense, np.linspace(1.0, 2.3, 101))
        assert not res.is_fixed
        assert res.deviation > 1e-2

    def test_grid_input_uses_own_nodes(self):
        # read at the integrator's own nodes, which are x = t for n = 1,
        # eta = 0, the constant seed reproduces itself to rounding
        p = GPParams.constrained(n=1, eta=0.0, c=1.0, v=1.0)
        seed = LiouvilleSolution(p, 1.0, 1.0, 0.0, 1.0, 4.0, TOL)
        shift = ShiftMap(p.g, 0.3)
        res = two_read_fixed_point(shift, seed, seed.rho.xs)
        assert res.deviation < 1e-12

    def test_array_parameters_give_the_worst_map(self):
        # K = -0.5 trims the points below its x_min, for every map
        eta = np.array([[[0.0]], [[1.0]]])
        k = np.array([[-0.5], [0.5]])
        xs = np.linspace(0.1, 3.0, 50)
        seed = ClosedFormSolution(GPParams.constrained(n=2, eta=eta, c=1.0))
        res = two_read_fixed_point(ShiftMap(PolyG(2, eta), k), seed, xs)
        common = xs[xs > ShiftMap(PolyG(2, 0.0), -0.5).x_min]
        assert common.size < xs.size
        assert res.deviation == max(
            two_read_fixed_point(ShiftMap(PolyG(2, e), kk),
                                 closed_form(n=2, eta=e), common).deviation
            for e in (0.0, 1.0) for kk in (-0.5, 0.5))


class NanAbove:
    """A seed that reads as ``seed`` up to ``edge`` and as nan beyond it."""

    def __init__(self, seed, edge):
        self.seed, self.edge, self.domain = seed, edge, seed.domain

    def eval_with_derivative(self, xs):
        r, rp = self.seed.eval_with_derivative(xs)
        beyond = np.asarray(xs) > self.edge
        return np.where(beyond, np.nan, r), np.where(beyond, np.nan, rp)


class TestNonFiniteSeed:
    def test_transform_raises(self):
        # f(x) > 2 on the upper points: r0(f) is nan there
        seed = NanAbove(closed_form(), 2.0)
        with pytest.raises(NonFinite, match="not finite"):
            transform(ShiftMap(PolyG(1, 1.0), 0.5), seed,
                      np.linspace(1.0, 2.5, 31))

    def test_fixed_point_check_raises(self):
        # K = -1.5 keeps f(x) < 1.91 < 2, so the transform is finite, but
        # r0(x) is nan at the kept x > 2
        seed = NanAbove(closed_form(), 2.0)
        shift = ShiftMap(PolyG(1, 1.0), -1.5)
        xs = np.linspace(1.0, 2.2, 25)
        grid = transform(shift, seed, xs)
        with pytest.raises(NonFinite, match="not finite"):
            is_fixed_point(seed.eval_with_derivative(grid.xs)[0],
                           grid.r0_f, grid.f_prime)
        with pytest.raises(NonFinite, match="not finite"):
            two_read_fixed_point(shift, seed, xs)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), eta=st.floats(0.0, 2.0), k=st.floats(-0.5, 1.0),
       factor=st.floats(0.8, 1.2), closed=st.booleans())
def test_check_from_the_transform_equals_the_two_read_check(n, eta, k, factor,
                                                            closed):
    """The fixed-point check the CLI makes, from the transform's f' and
    r0(f) and one read of the seed at every x taken at the kept points,
    equals the two-read check bit for bit, verdict and deviation. The
    closed form (v = factor) keeps every point; the integrated seed, off
    the closed form by ``factor`` and known on [0.95, 2.05] only, trims
    points at the top for K > 0 and at the bottom for K < 0."""
    p = GPParams.constrained(n=n, eta=eta, c=1.0, v=factor if closed else 1.0)
    exact = ClosedFormSolution(p)
    (r0,), (rp0,) = exact.eval_with_derivative(1.0)
    seed = exact if closed else LiouvilleSolution(
        p, 1.0, factor * r0, factor * rp0, 0.95, 2.05, TOL)
    shift = ShiftMap(p.g, k)
    xs = np.linspace(1.0, 2.0, 201)
    grid = transform(shift, seed, xs)
    r_xs = seed.eval_with_derivative(xs)[0]
    res = is_fixed_point(r_xs[np.searchsorted(xs, grid.xs)], grid.r0_f,
                         grid.f_prime)
    assert res == two_read_fixed_point(shift, seed, xs)
    assert res.is_fixed or not closed


class DomainOnly:
    """A seed stand-in for the pull-back, which reads only ``domain``."""

    def __init__(self, domain):
        self.domain = domain


class TestPullBack:
    @pytest.mark.parametrize("seed_domain", [(0.0, np.inf), (0.7, 2.5)])
    @pytest.mark.parametrize("k", [[-2.0, -0.1, 0.0, 0.4, 60.0],
                                   [-2.0, -0.1, 0.0, 0.4]])
    def test_array_parameters_keep_what_every_map_keeps(self, seed_domain,
                                                         k):
        eta, k = np.array([[[0.0]], [[0.5]]]), np.array(k)[:, None]
        seed = DomainOnly(seed_domain)
        xs = np.linspace(0.05, 3.0, 60)
        common = np.ones(xs.size, dtype=bool)
        for e in eta.ravel():
            for kk in k.ravel():
                try:
                    kept = _pull_back(ShiftMap(PolyG(2, e), kk), seed, xs)[0]
                except DomainEscape:
                    kept = np.array([])
                common &= np.isin(xs, kept)
        shift = ShiftMap(PolyG(2, eta), k)
        if not common.any():
            # K = 60 maps no point into (0.7, 2.5)
            assert 60.0 in k and seed_domain[1] < np.inf
            with pytest.raises(DomainEscape):
                _pull_back(shift, seed, xs)
            return
        kept, f, fp = _pull_back(shift, seed, xs)
        assert np.array_equal(kept, xs[common])
        assert f.shape == fp.shape == (2, k.size, kept.size)
        assert np.all((f >= seed_domain[0]) & (f <= seed_domain[1]))

    def test_nonpositive_points_are_trimmed(self):
        seed = closed_form()
        xs = np.linspace(-1.0, 2.0, 31)  # holds x = 0 and ten points below
        grid = transform(ShiftMap(PolyG(1, 1.0), 0.5), seed, xs)
        assert np.array_equal(grid.xs, xs[xs > 0.0])
        assert grid.meta["trimmed"] == 11
        kept = _pull_back(ShiftMap(PolyG(1, 1.0), -0.5), seed, xs)[0]
        assert np.all(PolyG(1, 1.0).value(kept) > 0.5)

    def test_escape_names_the_seed_domain(self):
        p, dense = integrated_seed()
        with pytest.raises(DomainEscape, match=r"domain \[1, 3\.3\]"):
            transform(ShiftMap(p.g, 1.0), dense, np.linspace(3.2, 3.29, 11))


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
