import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import BacklundMap, is_fixed_point
from gpbacklund.calculus import SmoothMap, compose, derivative, schwarzian
from gpbacklund.errors import NumericalError
from gpbacklund.functional import Mobius, PolyG, ShiftMap, solve_f
from gpbacklund.gp import (ClosedFormSolution, GPParams, closed_form_residual,
                           linear_coefficient_check)
from gpbacklund.verify import (_TAPE_BLOCK, _TARGET_CAP, SWEEP_ETAS, _Tape,
                               _in_target,
                               check_closed_form_residual,
                               check_composition_law,
                               check_constraint_activity,
                               check_fixed_point, check_linear_coefficient,
                               check_mobius_kernel, check_q_identity,
                               check_semigroup, check_translation_property)


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


# The per-sample loops the batched checks replaced, kept as references: one
# map or one (n, eta, K) per library call, with the same draws in the same
# order. Each returns the worst deviation.

def _reference_mobius_with_points(rng, n_points):
    while True:
        a, b, c, d = rng.uniform(-1.5, 1.5, size=4)
        if abs(a * d - b * c) < 0.5:
            continue
        m = Mobius(a, b, c, d)
        points = []
        for _ in range(60 * n_points):
            z = float(rng.uniform(-2.0, 2.0))
            denom = abs(c * z + d)
            if 0.7 <= denom <= 2.0 and denom >= abs(c):
                points.append(z)
                if len(points) == n_points:
                    return m, points


def reference_mobius_kernel(rng, n_maps=100, n_points=10):
    devs = []
    for _ in range(n_maps):
        m, points = _reference_mobius_with_points(rng, n_points)
        devs.append(np.abs(schwarzian(m.as_smooth_map(), np.array(points))))
    return np.max(devs)


def _reference_pool(rng):
    kind = rng.integers(0, 5)
    if kind == 0:
        alpha = rng.uniform(0.7, 1.5) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(-1.0, 1.0)
        return (lambda z: alpha * z + beta), (lambda z: alpha)
    if kind == 1:
        alpha = rng.uniform(0.4, 0.9) * rng.choice([-1.0, 1.0])
        return (lambda z: np.exp(alpha * z)), \
               (lambda z: alpha * np.exp(alpha * z))
    if kind == 2:
        gam = rng.uniform(-0.5, 0.5)
        return (lambda z: z + gam * np.sin(z)), \
               (lambda z: 1.0 + gam * np.cos(z))
    if kind == 3:
        dlt = rng.uniform(0.05, 0.3)
        return (lambda z: z + dlt * z ** 3), (lambda z: 1.0 + 3 * dlt * z * z)
    w = rng.uniform(0.3, 0.8)
    return (lambda z: np.tanh(w * z) + z), \
           (lambda z: w / np.cosh(w * z) ** 2 + 1.0)


def reference_composition_law(rng, n_pairs=100):
    devs = []
    while len(devs) < n_pairs:
        f_ev, f_d1 = _reference_pool(rng)
        g_ev, g_d1 = _reference_pool(rng)
        z = rng.uniform(-1.2, 1.2)
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
    devs = []
    for _ in range(n_samples):
        while True:
            n = int(rng.integers(1, 4))
            eta = float(rng.uniform(0.0, 2.0))
            x = float(rng.uniform(0.1, 10.0))
            k = float(rng.uniform(-2.0, 3.0))
            g = PolyG(n, eta)
            if 1e-6 < g.value(x) + k < _TARGET_CAP:
                break
        f = ShiftMap(g, k).f(x)
        devs.append(abs(g.value(f) - g.value(x) - k))
    return np.max(devs)


def reference_semigroup(rng, n_samples=200):
    devs = []
    for _ in range(n_samples):
        n = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.0, 2.0))
        x = float(rng.uniform(0.2, 5.0))
        k1 = float(rng.uniform(0.0, 2.0))
        k2 = float(rng.uniform(0.0, 2.0))
        g = PolyG(n, eta)
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
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert result.passed
    assert abs(result.deviation - expected) <= bound


# The per-parameter loops the per-degree checks replaced, kept as references:
# one (n, eta, K) per round of library calls.

def reference_q_identity(k_values=(0.5, 1.0), x_lo=0.8, x_hi=3.0, points=12):
    devs = []
    for n, eta in [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0), (3, 0.5)]:
        g = PolyG(n, eta)
        g_map = g.as_smooth_map()
        for k in k_values:
            shift = ShiftMap(g, float(k))
            f_map = shift.as_smooth_map()
            xs = np.linspace(max(x_lo, shift.x_min + 0.2), x_hi, points)
            f, fp = solve_f(shift, xs)
            devs.append(np.abs(schwarzian(g_map, xs)
                               - fp * fp * schwarzian(g_map, f)
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
        res = is_fixed_point(BacklundMap(shift=shift), seed, xs, tol=1e-10)
        devs.append(res.deviation)
    return float(np.max(devs))


def reference_fixed_point(k_values=(0.25, 0.5, 1.0), c=1.0, v=1.0,
                          params=None, xs=None):
    if xs is None:
        xs = np.linspace(0.5, 3.0, 101)
    sweep = [GPParams.constrained(n=n, eta=eta, c=c, v=v)
             for n, eta in PARAM_SWEEP]
    if params is not None:
        sweep.insert(0, params)
    return np.max([_reference_fixed_point_for(p, k_values, xs)
                   for p in sweep])


def reference_linear_coefficient(points=19):
    xs = np.linspace(0.5, 5.0, points)
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

# (per-degree check, reference loop, largest allowed |deviation shift|,
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
SWEPT = [
    (check_q_identity, reference_q_identity, 0.0,
     dict(k_values=(0.5, 1.0))),
    (check_q_identity, reference_q_identity, 0.0,
     dict(k_values=(0.25, 0.5, 1.0))),
    (check_q_identity, reference_q_identity, 1e-8,
     dict(k_values=(0.5, -0.3))),
    *((check_fixed_point, reference_fixed_point, 1e-15,
       dict(k_values=ks, params=p, xs=GRID))
      for ks, p in [
          ((0.25, 0.5, 1.0), None),
          ((0.5, 1.0), GPParams.constrained(n=1, eta=1.0, c=1.0)),
          ((0.5, -0.05), GPParams.constrained(n=2, eta=0.7, c=1.3, v=0.8)),
          ((0.25, 0.5, 1.0), GPParams.constrained(n=3, eta=0.3, c=2.0,
                                                  v=1.5)),
      ]),
    # the closed-form sweeps take one call per degree, with a row of points
    # per eta; every value is the same elementwise expression, and a
    # point's Schwarzian stencil does not depend on its neighbours, so the
    # deviations are bit-identical
    (check_linear_coefficient, reference_linear_coefficient, 0.0, {}),
    (check_linear_coefficient, reference_linear_coefficient, 0.0,
     dict(points=33)),
    (check_closed_form_residual, reference_closed_form_residual, 0.0, {}),
    (check_closed_form_residual, reference_closed_form_residual, 0.0,
     dict(c=1.3, v=0.8)),
    (check_constraint_activity, reference_constraint_activity, 0.0, {}),
    (check_constraint_activity, reference_constraint_activity, 0.0,
     dict(c=0.7, v=1.2)),
]


@pytest.mark.parametrize("check, reference, bound, kwargs", SWEPT,
                         ids=[f"{c.__name__}-{i}"
                              for i, (c, _, _, _) in enumerate(SWEPT)])
def test_per_degree_check_matches_per_parameter_loop(check, reference, bound,
                                                     kwargs):
    result = check(**kwargs)
    assert result.passed
    assert abs(result.deviation - reference(**kwargs)) <= bound


@pytest.mark.parametrize("k_values, params", [
    # the configured set passes; the sweep's n = 3 sets raise DomainError
    ((0.5, -0.2), GPParams.constrained(n=1, eta=1.0, c=1.0)),
    # n = 1: eta = 0 raises DomainError before eta = 1 raises NoRealRoot,
    # which a probe of the whole group would report
    ((0.5, -1.0), None),
    # the configured set fails first
    ((-30.0,), GPParams.constrained(n=1, eta=2.0, c=1.0)),
])
def test_fixed_point_raises_the_loops_first_error(k_values, params):
    with pytest.raises(NumericalError) as batched:
        check_fixed_point(k_values=k_values, params=params, xs=GRID)
    with pytest.raises(NumericalError) as looped:
        reference_fixed_point(k_values=k_values, params=params, xs=GRID)
    assert type(batched.value) is type(looped.value)
    assert str(batched.value) == str(looped.value)


# _Tape replays numpy's PCG64 draws from raw output: every value and the
# final generator state must equal the same calls made on a Generator.
# (name, args, keyword arguments) of each call, made in order.
TAPE_CALLS = {
    "uniform": [("uniform", (lo, hi), {}) for lo, hi in
                [(0.0, 1.0), (-1.5, 1.5), (0.1, 10.0), (-2.0, 3.0),
                 (1e-3, 1e3)] for _ in range(40)],
    "integers": [("integers", span, {}) for span in
                 [(1, 4), (0, 5), (0, 2)] for _ in range(41)],
    # Lemire's rejection loop: hi - lo = 2**31 + 1 rejects about half of
    # the 32-bit draws and 3 * 2**30 a quarter
    "rejection": [("integers", (0, 2 ** 31 + 1), {}),
                  ("integers", (5, 5 + 3 * 2 ** 30), {})] * 51,
    # a uniform draw leaves the buffered upper half of a 32-bit draw alone
    "interleaved": [call for _ in range(60) for call in
                    [("integers", (1, 4), {}), ("uniform", (0.0, 2.0), {}),
                     ("integers", (0, 2), {}), ("uniform", (0.2, 5.0), {})]],
    "arrays": [("uniform", (-2.0, 2.0), {"size": 600}),
               ("integers", (0, 5), {}), ("uniform", (-1.5, 1.5), {}),
               ("uniform", (0.0, 1.0), {"size": 7})],
    # scalar draws cross the end of the first block, then an array draw
    # outgrows the grown one
    "outgrows_block": [("uniform", (0.0, 1.0), {"size": _TAPE_BLOCK - 3})]
    + [("uniform", (0.0, 1.0), {}), ("integers", (0, 5), {})] * 4
    + [("uniform", (-2.0, 2.0), {"size": 3 * _TAPE_BLOCK}),
       ("integers", (1, 4), {})],
}


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["empty_buffer", "has_uint32"])
@pytest.mark.parametrize("calls", TAPE_CALLS.values(), ids=TAPE_CALLS.keys())
def test_tape_matches_generator(calls, buffered):
    for seed in range(40):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        if buffered:  # a 32-bit draw leaves has_uint32 = 1
            rng.integers(0, 5)
            ref.integers(0, 5)
            assert ref.bit_generator.state["has_uint32"] == 1
        with _Tape(rng) as tape:
            got = [getattr(tape, name)(*args, **kw)
                   for name, args, kw in calls]
        expected = [getattr(ref, name)(*args, **kw)
                    for name, args, kw in calls]
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
            assert np.ndim(g) == np.ndim(e)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_tape_runs_the_rejection_loop():
    with _Tape(np.random.default_rng(3)) as tape:
        for _ in range(100):
            tape.integers(0, 2 ** 31 + 1)
        # without a rejection, 100 draws take 50 raw outputs
        assert tape.pos > 60


def test_tape_rewind_undraws_uniforms():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        with _Tape(rng) as tape:
            start = tape.pos
            z = tape.uniform(-2.0, 2.0, size=600)
            tape.pos = start + 37
            after = tape.uniform(0.0, 1.0)
        assert np.array_equal(z[:37], ref.uniform(-2.0, 2.0, size=37))
        assert after == ref.uniform(0.0, 1.0)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                    np.random.SFC64, np.random.PCG64DXSM])
def test_tape_rejects_other_bit_generators(bitgen):
    with pytest.raises(TypeError):
        _Tape(np.random.Generator(bitgen(1)))


@pytest.mark.parametrize("lo, hi", [(0, 1), (3, 3), (0, 2 ** 32)])
def test_tape_rejects_ranges_it_cannot_replay(lo, hi):
    with pytest.raises(ValueError):
        _Tape(np.random.default_rng(1)).integers(lo, hi)


# Tape.records decodes fixed-pattern rows in one array pass: each row must
# be what integers(lo, hi) and one uniform(a, b) per range return when
# called one at a time, and the generator must end in the same state.
RANGES = [(0.0, 2.0), (0.1, 10.0), (-2.0, 3.0), (0.2, 5.0), (-1.5, 1.5)]


def _sine_filter(cut):
    """A deterministic accept mask that depends on every value of a row."""
    if cut is None:
        return None
    return lambda rows: np.sin(7.3 * rows.sum(axis=1)) < cut


def _rows_one_at_a_time(draw_int, draw_uniform, lo, hi, ranges, count,
                        accept):
    rows = []
    while len(rows) < count:
        row = np.array([[draw_int(lo, hi),
                         *(draw_uniform(a, b) for a, b in ranges)]])
        if accept is None or accept(row)[0]:
            rows.append(row[0])
    return np.array(rows).reshape(count, 1 + len(ranges))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 63), buffered=st.booleans(),
       span=st.sampled_from([(1, 4), (0, 5), (0, 2), (3, 3 + 2 ** 31 + 1)]),
       ranges=st.lists(st.sampled_from(RANGES), max_size=5),
       count=st.integers(1, 400),
       cut=st.one_of(st.none(), st.floats(-0.8, 0.9)))
def test_records_match_draws_one_at_a_time(seed, buffered, span, ranges,
                                           count, cut):
    rng = np.random.default_rng(seed)
    ref = np.random.default_rng(seed)
    if buffered:  # a 32-bit draw leaves has_uint32 = 1
        rng.integers(0, 5)
        ref.integers(0, 5)
    # rows of integers alone may take too few values to pass a filter
    accept = _sine_filter(cut) if ranges else None
    with _Tape(rng) as tape:
        got = tape.records(*span, ranges, count, accept=accept)
    expected = _rows_one_at_a_time(ref.integers, ref.uniform, *span, ranges,
                                   count, accept)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == ref.bit_generator.state


def _tape_on_block(raw, buffered, upper):
    """A tape reading the given raw outputs, with the given 32-bit buffer."""
    tape = _Tape(np.random.default_rng(0))
    tape._raw = raw.copy()
    tape._has_upper, tape._upper = buffered, upper
    return tape


@pytest.mark.parametrize("buffered, upper", [(False, 7), (True, 0),
                                             (True, 12345)])
@pytest.mark.parametrize("cut", [None, 0.3])
def test_records_draw_lemire_rejections_one_at_a_time(buffered, upper, cut):
    """32-bit halves of 0 are the only ones Lemire rejects for a range of
    3: with zeros in low halves, high halves and both halves of chosen raw
    outputs, the rows and the tape's position and buffer still equal the
    draws made one at a time."""
    raw = np.random.default_rng(11).integers(
        1, 2 ** 64 - 1, size=4096, dtype=np.uint64, endpoint=True)
    for word in (0, 9, 40, 41, 100, 333):
        raw[word] &= np.uint64(0xFFFFFFFF00000000)  # low half 0
    for word in (4, 18, 57, 210, 500):
        raw[word] &= np.uint64(0x00000000FFFFFFFF)  # high half 0
    for word in (27, 28, 150, 640):
        raw[word] = 0
    ranges, count, accept = RANGES[:3], 200, _sine_filter(cut)

    tape = _tape_on_block(raw, buffered, upper)
    got = tape.records(1, 4, ranges, count, accept=accept)
    ref = _tape_on_block(raw, buffered, upper)
    halves = []
    next32 = ref._next32
    ref._next32 = lambda: halves.append(next32()) or halves[-1]
    expected = _rows_one_at_a_time(ref.integers, ref.uniform, 1, 4, ranges,
                                   count, accept)
    assert halves.count(0) >= 3  # the rejection loop ran
    assert np.array_equal(got, expected)
    assert (tape.pos, tape._has_upper, tape._upper) == \
        (ref.pos, ref._has_upper, ref._upper)


@pytest.mark.parametrize("check", [check_translation_property,
                                   check_semigroup])
def test_records_checks_make_no_scalar_draw(check, monkeypatch):
    """Without a Lemire rejection, every sample comes from the array pass."""
    def scalar_draw(*args, **kwargs):
        raise AssertionError("scalar tape draw")

    monkeypatch.setattr(_Tape, "integers", scalar_draw)
    monkeypatch.setattr(_Tape, "uniform", scalar_draw)
    for seed in range(10):
        assert check(np.random.default_rng(seed)).passed


def test_target_filter_takes_pythons_pow():
    """The translation samples are filtered as the scalar draw loop filters
    them, with x^n from Python's float pow, even on rows whose G(x) + K
    sits within an ulp or two of the lower bound, where numpy's array pow
    could decide the other way."""
    rows, expected = [], []
    for n in (2, 3):
        for x in np.random.default_rng(5).uniform(0.1, 10.0, 1000).tolist():
            xn = x ** n
            k0 = 1e-6 - xn
            for k in (np.nextafter(k0, -1.0), k0, np.nextafter(k0, 1.0)):
                rows.append((n, 0.0, x, k))
                expected.append(1e-6 < xn * (1.0 + 0.0 * xn) + k < _TARGET_CAP)
    assert any(expected) and not all(expected)
    assert np.array_equal(_in_target(np.array(rows)), expected)
