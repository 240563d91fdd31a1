import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import _pull_back, is_fixed_point
from gpbacklund.calculus import SmoothMap, compose, derivative, schwarzian
from gpbacklund.errors import NumericalError
from gpbacklund.functional import Mobius, PolyG, ShiftMap, solve_f
from gpbacklund.gp import (ClosedFormSolution, GPParams, closed_form_residual,
                           linear_coefficient_check)
from gpbacklund.verify import (_TARGET_CAP, SWEEP_ETAS, _draw_pool,
                               _in_target, _rows,
                               check_closed_form_residual,
                               check_composition_law,
                               check_constraint_activity,
                               check_fixed_point, check_linear_coefficient,
                               check_mobius_kernel, check_q_identity,
                               check_semigroup, check_translation_property,
                               random_mobius_with_points)


PARAM_SWEEP = [(n, eta) for n in (1, 2, 3) for eta in SWEEP_ETAS]


class TestFailClosed:
    def test_nan_residual_fails(self):
        res = check_closed_form_residual(c=math.nan)
        assert math.isnan(res.deviation)
        assert not res.passed

    def test_nan_reversed_check_fails(self):
        res = check_constraint_activity(c=math.nan)
        assert math.isnan(res.deviation)
        assert not res.passed


class _Recorder:
    """A generator that keeps every uniform draw it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size)
        self.draws.append(out)
        return out


def _hits(row, zs):
    a, b, c, d = row
    return [z for z in zs if max(0.7, abs(c)) <= abs(c * z + d) <= 2.0]


def loop_first_hits(draws, n_maps, n_points):
    """The maps and points a per-row loop picks from recorded draws, and how
    many of the maps it picks filled only in the second stage.

    Each round is a batch of candidate coefficients, a first-stage row of
    points per candidate with |det| >= 0.5 and, if any of them is short of
    hits, a second-stage row per short candidate, in candidate order.
    """
    draws = iter(draws)
    maps, points, late = [], [], 0
    while len(maps) < n_maps:
        cands = [row for row in next(draws).tolist()
                 if abs(row[0] * row[3] - row[1] * row[2]) >= 0.5]
        found = [_hits(row, zs) for row, zs in zip(cands,
                                                   next(draws).tolist())]
        short = [len(h) < n_points for h in found]
        if any(short):
            more = iter(next(draws).tolist())
            found = [h + _hits(row, next(more)) if s else h
                     for row, h, s in zip(cands, found, short)]
        for row, h, s in zip(cands, found, short):
            if len(h) >= n_points and len(maps) < n_maps:
                maps.append(row)
                points.append(h[:n_points])
                late += s
    return maps, points, late


def _check_draw(seed, n_maps, n_points):
    rng = _Recorder(seed)
    coefs, points = random_mobius_with_points(rng, n_maps, n_points)
    assert coefs.shape == (n_maps, 4) and points.shape == (n_maps, n_points)
    a, b, c, d = coefs.T[..., None]
    assert np.all(np.abs(a * d - b * c) >= 0.5)
    denom = np.abs(c * points + d)
    assert np.all((np.maximum(0.7, np.abs(c)) <= denom) & (denom <= 2.0))
    assert np.all((-2.0 <= points) & (points < 2.0))
    maps, looped, late = loop_first_hits(rng.draws, n_maps, n_points)
    assert coefs.tolist() == maps
    assert points.tolist() == looped
    return late


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 63), n_maps=st.integers(1, 40),
       n_points=st.integers(1, 15))
def test_mobius_draw_picks_each_maps_first_hits(seed, n_maps, n_points):
    _check_draw(seed, n_maps, n_points)


@pytest.mark.parametrize("seed, n_maps, n_points", [(0, 12, 10), (4, 5, 3),
                                                    (3, 100, 10)])
def test_mobius_draw_fills_short_maps_in_the_second_stage(seed, n_maps,
                                                          n_points):
    # on these draws some map is short of hits after its first 10 draws per
    # point, and is kept with hits from its other 50
    assert _check_draw(seed, n_maps, n_points) > 0


# The per-sample loops the batched checks replaced, kept as references:
# each takes its samples from the check's own draw helper, on a generator
# with the same seed, checks them against their conditions one by one and
# evaluates them one map or one (n, eta, K) per library call. Each returns
# the worst deviation.

def reference_mobius_kernel(rng, n_maps=100, n_points=10):
    coefs, points = random_mobius_with_points(rng, n_maps, n_points)
    devs = []
    for (a, b, c, d), row in zip(coefs.tolist(), points):
        assert abs(a * d - b * c) >= 0.5
        for z in row.tolist():
            denom = abs(c * z + d)
            assert -2.0 <= z < 2.0
            assert 0.7 <= denom <= 2.0 and denom >= abs(c)
        m = Mobius(a, b, c, d)
        devs.append(np.abs(schwarzian(m.as_smooth_map(), row)))
    return np.max(devs)


def _reference_pool(kind, p, q):
    """Map and first derivative of one drawn row of the pool, after
    checking the row against its kind's parameter ranges."""
    kind, p, q = int(kind), float(p), float(q)
    lo, hi, signed = [(0.7, 1.5, True), (0.4, 0.9, True), (-0.5, 0.5, False),
                      (0.05, 0.3, False), (0.3, 0.8, False)][kind]
    assert lo <= (abs(p) if signed else p) < hi
    assert -1.0 <= q < 1.0 if kind == 0 else q == 0.0
    if kind == 0:
        return (lambda z: p * z + q), (lambda z: p)
    if kind == 1:
        return (lambda z: np.exp(p * z)), (lambda z: p * np.exp(p * z))
    if kind == 2:
        return (lambda z: z + p * np.sin(z)), (lambda z: 1.0 + p * np.cos(z))
    if kind == 3:
        return (lambda z: z + p * z ** 3), (lambda z: 1.0 + 3 * p * z * z)
    return (lambda z: np.tanh(p * z) + z), \
           (lambda z: p / np.cosh(p * z) ** 2 + 1.0)


def reference_composition_law(rng, n_pairs=100):
    devs = []
    while len(devs) < n_pairs:
        size = n_pairs - len(devs)
        f_tab, g_tab = _draw_pool(rng, size), _draw_pool(rng, size)
        zs = rng.uniform(-1.2, 1.2, size).tolist()
        for f_row, g_row, z in zip(f_tab.T, g_tab.T, zs):
            f_ev, f_d1 = _reference_pool(*f_row)
            g_ev, g_d1 = _reference_pool(*g_row)
            u = f_ev(z)
            if abs(f_d1(z)) < 0.3 or abs(g_d1(u)) < 0.3 or abs(u) > 2.5:
                continue
            f_map = SmoothMap(eval=f_ev)
            g_map = SmoothMap(eval=g_ev)
            fp = derivative(f_map, 1, z)
            devs.append(abs(schwarzian(compose(g_map, f_map), z)
                            - fp * fp * schwarzian(g_map, u)
                            - schwarzian(f_map, z)))
    return np.max(devs)


def reference_translation_property(rng, n_samples=400):
    rows = _rows(rng, 1, 4, [(0.0, 2.0), (0.1, 10.0), (-2.0, 3.0)],
                 n_samples, accept=_in_target)
    devs = []
    for n, eta, x, k in rows.tolist():
        g = PolyG(int(n), eta)
        assert 1e-6 < g.value(x) + k < _TARGET_CAP
        f = ShiftMap(g, k).f(x)
        devs.append(abs(g.value(f) - g.value(x) - k))
    return np.max(devs)


def reference_semigroup(rng, n_samples=200):
    rows = _rows(rng, 1, 4, [(0.0, 2.0), (0.2, 5.0), (0.0, 2.0), (0.0, 2.0)],
                 n_samples)
    devs = []
    for n, eta, x, k1, k2 in rows.tolist():
        g = PolyG(int(n), eta)
        chained = ShiftMap(g, k1).f(ShiftMap(g, k2).f(x))
        direct = ShiftMap(g, k1 + k2).f(x)
        devs.append(abs(chained - direct))
    return np.max(devs)


# (batched check, reference loop, largest allowed |deviation shift|).
# The Mobius kernel is bit-identical: elementwise IEEE arithmetic and one
# np.dot per stencil, whatever the batch. The others may move at rounding
# level, because numpy's array pow/exp round differently from scalar libm:
# - composition law: a last-bit change in u = f(z) moves the differenced
#   Schwarzian by its own noise, ~1e-9 (1e-8 is 1% of the 1e-6 tolerance);
# - translation property: the deviation is a difference of G values below
#   _TARGET_CAP, and moves by a few of their ulps (4 ulps = 2.9e-11);
# - semigroup: the deviation is already a few ulps of f ~ 1 (1e-12 bound).
BATCHED = [
    (check_mobius_kernel, reference_mobius_kernel, 0.0),
    (check_composition_law, reference_composition_law, 1e-8),
    (check_translation_property, reference_translation_property,
     4 * np.spacing(_TARGET_CAP)),
    (check_semigroup, reference_semigroup, 1e-12),
]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("check, reference, bound", BATCHED,
                         ids=[c.__name__ for c, _, _ in BATCHED])
def test_batched_check_matches_per_sample_loop(check, reference, bound, seed):
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    result = check(rng)
    expected = reference(ref_rng)
    assert result.passed
    assert abs(result.deviation - expected) <= bound


# The sampled checks in the order run_identity_checks draws them from one
# generator, each with a bound on deviation/tolerance. Over verify.rng_seed
# 0-999 the worst were 0.54 (Mobius), 0.020, 0.42 and 2.7e-6; over 8,000
# further seeds drawn from [0, 2^31), 0.62, 0.021, 0.52 and 3.6e-6. Every
# bound is at least 1.5 times the first set.
SAMPLED_MARGINS = [(check_mobius_kernel, 0.9), (check_composition_law, 0.05),
                   (check_translation_property, 0.75),
                   (check_semigroup, 1e-5)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_sampled_checks_keep_their_margins(seed):
    rng = np.random.default_rng(seed)
    for check, bound in SAMPLED_MARGINS:
        result = check(rng)
        assert result.passed
        assert result.deviation / result.tolerance < bound, check.__name__


# The per-parameter loops the per-degree checks replaced, kept as references:
# one (n, eta, K) per round of library calls.

def reference_q_identity(k_values=(0.5, 1.0), x_lo=0.8, x_hi=3.0, points=12):
    devs = []
    for n, eta in [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0), (3, 0.5)]:
        g = PolyG(n, eta)
        for k in k_values:
            shift = ShiftMap(g, float(k))
            f_map = shift.as_smooth_map()
            xs = np.linspace(max(x_lo, shift.x_min + 0.2), x_hi, points)
            f, fp = solve_f(shift, xs)
            devs.append(np.abs(g.schwarzian(xs) - fp * fp * g.schwarzian(f)
                               - schwarzian(f_map, xs)))
    return np.max(devs)


def _reference_fixed_point_for(params, k_values, xs):
    p = GPParams.constrained(n=params.n, eta=params.eta, c=params.c,
                             v=params.v)
    seed = ClosedFormSolution(p)
    devs = []
    for k in k_values:
        shift = ShiftMap(p.g, float(k))
        shift.f(xs)  # validity probe for the whole grid
        kept, f, fp = _pull_back(shift, seed, xs)
        res = is_fixed_point(seed.eval_with_derivative(kept)[0],
                             seed.eval_with_derivative(f)[0], fp)
        devs.append(res.deviation)
    return float(np.max(devs))


def reference_fixed_point(params, k_values, xs):
    sweep = [params] + [GPParams.constrained(n=n, eta=eta, c=params.c,
                                             v=params.v)
                        for n, eta in PARAM_SWEEP]
    return np.max([_reference_fixed_point_for(p, k_values, xs)
                   for p in sweep])


def reference_linear_coefficient():
    xs = np.linspace(0.5, 5.0, 19)
    return np.max([np.abs(linear_coefficient_check(
        GPParams(n=n, eta=eta, b=-1.0, c=1.0), xs)) for n, eta in PARAM_SWEEP])


def reference_closed_form_residual(c=1.0, v=1.0):
    xs = np.linspace(0.5, 5.0, 401)
    return np.max([np.max(np.abs(closed_form_residual(
        GPParams.constrained(n=n, eta=eta, c=c, v=v), xs)))
        for n, eta in PARAM_SWEEP])


def reference_constraint_activity(c=1.0, v=1.0):
    xs = np.linspace(0.5, 5.0, 401)
    b = -(c * c) / v ** 6 + 0.01
    return np.min([np.max(np.abs(closed_form_residual(
        GPParams(n=n, eta=eta, b=b, c=c, v=v), xs)))
        for n, eta in PARAM_SWEEP])


GRID = np.linspace(0.5, 3.0, 101)

# id: (per-degree check, reference loop, largest allowed |deviation shift|,
# keyword arguments): K schedules of two and three values, a negative K,
# and a configured set of each degree. Both checks evaluate the loops'
# elementwise expressions on the same points, so with K > 0 q_identity is
# bit-identical. A negative K moves the first point of a q_identity row to
# x_min + 0.2, and the batch takes x_min from one array G^{-1}, whose pow
# may round an ulp away from the scalar one; an ulp in a row's start moves
# the finite-difference {f, x} by its noise, up to 3.4e-9 when the loop's
# starts were nudged by one or two ulps (1e-8 bound). fixed_point's
# deviations are themselves a few ulps of O(1) terms, so even a grid point
# kept or trimmed differently at an array x_min stays below 1e-15; every
# fixed-point set accepts K = -0.05 on GRID.
SWEPT = {
    "check_q_identity-0": (check_q_identity, reference_q_identity, 0.0,
                           dict(k_values=(0.5, 1.0))),
    "check_q_identity-1": (check_q_identity, reference_q_identity, 0.0,
                           dict(k_values=(0.25, 0.5, 1.0))),
    "check_q_identity-2": (check_q_identity, reference_q_identity, 1e-8,
                           dict(k_values=(0.5, -0.3))),
    **{f"check_fixed_point-{i}": (check_fixed_point, reference_fixed_point,
                                  1e-15, dict(params=p, k_values=ks, xs=GRID))
       for i, (ks, p) in enumerate([
           ((0.5, 1.0), GPParams.constrained(n=1, eta=1.0, c=1.0)),
           ((0.5, -0.05), GPParams.constrained(n=2, eta=0.7, c=1.3, v=0.8)),
           ((0.25, 0.5, 1.0), GPParams.constrained(n=3, eta=0.3, c=2.0,
                                                   v=1.5)),
       ], start=4)},
    # the closed-form sweeps take one call per degree, with a row of points
    # per eta; every value is the same elementwise expression, and a
    # point's Schwarzian stencil does not depend on its neighbours, so the
    # deviations are bit-identical
    "check_linear_coefficient-7": (check_linear_coefficient,
                                   reference_linear_coefficient, 0.0, {}),
    "check_closed_form_residual-9": (check_closed_form_residual,
                                     reference_closed_form_residual, 0.0, {}),
    "check_closed_form_residual-10": (check_closed_form_residual,
                                      reference_closed_form_residual, 0.0,
                                      dict(c=1.3, v=0.8)),
    "check_constraint_activity-11": (check_constraint_activity,
                                     reference_constraint_activity, 0.0, {}),
    "check_constraint_activity-12": (check_constraint_activity,
                                     reference_constraint_activity, 0.0,
                                     dict(c=0.7, v=1.2)),
}


@pytest.mark.parametrize("check, reference, bound, kwargs", SWEPT.values(),
                         ids=SWEPT.keys())
def test_per_degree_check_matches_per_parameter_loop(check, reference, bound,
                                                     kwargs):
    result = check(**kwargs)
    assert result.passed
    assert abs(result.deviation - reference(**kwargs)) <= bound


@pytest.mark.parametrize("k_values, params", [
    # the configured set passes; the sweep's n = 3 sets raise DomainError
    ((0.5, -0.2), GPParams.constrained(n=1, eta=1.0, c=1.0)),
    # the configured set passes; in the sweep, n = 1: eta = 0 raises
    # DomainError before eta = 1 raises NoRealRoot, which a probe of the
    # whole group would report
    ((0.5, -1.0), GPParams.constrained(n=1, eta=3.0, c=1.0)),
    # the configured set fails first
    ((-30.0,), GPParams.constrained(n=1, eta=2.0, c=1.0)),
])
def test_fixed_point_raises_the_loops_first_error(k_values, params):
    with pytest.raises(NumericalError) as batched:
        check_fixed_point(params, k_values, GRID)
    with pytest.raises(NumericalError) as looped:
        reference_fixed_point(params, k_values, GRID)
    assert type(batched.value) is type(looped.value)
    assert str(batched.value) == str(looped.value)


def _fraction_filter(share):
    """A deterministic accept mask that depends on every value of a row and
    keeps about ``share`` of rows whose floats spread over at least 0.01."""
    if share is None:
        return None
    return lambda rows: np.mod(1e3 * rows.sum(axis=1), 1.0) < share


_RANGE = st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 10.0)).map(
    lambda a_width: (a_width[0], a_width[0] + a_width[1]))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 63), lo=st.integers(-5, 5),
       span=st.integers(1, 6), ranges=st.lists(_RANGE, min_size=1, max_size=5),
       count=st.integers(1, 400),
       share=st.one_of(st.none(), st.floats(0.1, 0.9)))
def test_rows_draws_count_accepted_rows_in_range(seed, lo, span, ranges,
                                                 count, share):
    accept = _fraction_filter(share)
    rows = _rows(np.random.default_rng(seed), lo, lo + span, ranges, count,
                 accept=accept)
    assert rows.shape == (count, 1 + len(ranges))
    ints = rows[:, 0]
    assert np.all((ints == np.floor(ints)) & (lo <= ints) & (ints < lo + span))
    low, high = np.array(ranges).T
    assert np.all((low <= rows[:, 1:]) & (rows[:, 1:] < high))
    if accept is not None:
        assert np.all(accept(rows))
    again = _rows(np.random.default_rng(seed), lo, lo + span, ranges, count,
                  accept=accept)
    assert np.array_equal(rows, again)
