import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gpbacklund.calculus import (SmoothMap, compose, default_stencil,
                                 derivative, fd_weights, schwarzian)
from gpbacklund.errors import CriticalPoint, DomainError, NonFinite
from gpbacklund.functional import Mobius, PolyG, ShiftMap
from gpbacklund.verify import _fits


def smooth(fn, **kw):
    return SmoothMap(eval=fn, **kw)


EXP = smooth(np.exp)
SQUARE = smooth(lambda z: z * z)


class TestFdWeights:
    def test_central_first_derivative_5pt(self):
        w = fd_weights((-2.0, -1.0, 0.0, 1.0, 2.0), 1)
        assert np.allclose(w, [1 / 12, -8 / 12, 0, 8 / 12, -1 / 12])

    def test_central_second_derivative_5pt(self):
        w = fd_weights((-2.0, -1.0, 0.0, 1.0, 2.0), 2)
        assert np.allclose(w, [-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12])

    def test_exact_on_polynomials(self):
        # a 7-point stencil for the third derivative must kill x^3 exactly
        offs = tuple(float(o) for o in range(-3, 4))
        w = fd_weights(offs, 3)
        vals = np.array([o ** 3 for o in offs])
        assert w @ vals == pytest.approx(6.0, abs=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fd_weights((0.0, 1.0), 2)

    def test_solved_once_and_read_only(self):
        # the one-sided stencil of ode.residual, shared by every call
        w = fd_weights(tuple(range(6)), 2)
        assert fd_weights(tuple(range(6)), 2) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0


class TestDerivative:
    def test_square_first(self):
        assert derivative(SQUARE, 1, 3.0) == pytest.approx(6.0, abs=1e-9)

    def test_square_second(self):
        assert derivative(SQUARE, 2, 3.0) == pytest.approx(2.0, abs=1e-8)

    def test_exp_third_at_zero(self):
        # closed-form oracle: d^3/dz^3 e^z = e^z = 1 at z = 0
        assert derivative(EXP, 3, 0.0) == pytest.approx(1.0, abs=1e-7)

    def test_domain_guard(self):
        m = smooth(math.log, domain=(0.0, 10.0))
        with pytest.raises(DomainError):
            derivative(m, 1, 1e-5)

    def test_domain_broadcasts_like_parameters(self):
        # one map log(z - a) per row of points, with a and the domain's left
        # end shaped (rows, 1, 1, 1) against the stencil nodes
        a = np.array([0.0, 2.0]).reshape(2, 1, 1, 1)
        m = smooth(lambda z: np.log(z - a), domain=(a, math.inf))
        z = np.array([[0.5, 1.0], [2.5, 3.0]])
        assert derivative(m, 1, z) == pytest.approx(1.0 / (z - a[..., 0, 0]),
                                                     rel=1e-8)
        with pytest.raises(DomainError):
            derivative(m, 1, z - [[0.0], [0.5 - 1e-4]])

    def test_non_finite_samples(self):
        m = smooth(lambda z: math.nan)
        with pytest.raises(NonFinite):
            derivative(m, 1, 0.0)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            derivative(SQUARE, 4, 1.0)

    @pytest.mark.parametrize("z", [-2.0, -0.3, 0.0, 0.7, 5.0])
    def test_exp_first_derivative_everywhere(self, z):
        assert derivative(EXP, 1, z) == pytest.approx(math.exp(z), rel=1e-10)


class TestStencil:
    def test_default_step_scales_with_z(self):
        h1 = default_stencil(0.0)
        assert h1 == np.finfo(float).eps ** (1.0 / 8.0)
        assert default_stencil(100.0) == pytest.approx(100.0 * h1)


class TestSchwarzian:
    def test_identity_is_zero(self):
        ident = smooth(lambda z: z)
        assert schwarzian(ident, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_fractional_linear_vanishes(self):
        flt = smooth(lambda z: (2 * z + 1) / (z + 1), domain=(-0.5, math.inf))
        assert abs(schwarzian(flt, 1.0)) < 1e-7

    def test_exp_is_minus_half(self):
        assert schwarzian(EXP, 0.7) == pytest.approx(-0.5, abs=1e-7)

    def test_tan_is_two(self):
        # {tan, z} = 2 sec^2 - 2 tan^2 = 2 identically
        m = smooth(np.tan, domain=(-1.5, 1.5))
        assert schwarzian(m, 0.3) == pytest.approx(2.0, abs=1e-7)

    def test_critical_point_raises(self):
        with pytest.raises(CriticalPoint):
            schwarzian(SQUARE, 0.0)

    def test_closed_form_path_matches_fd(self):
        """PolyG.schwarzian, the closed form of Q = {G, .}, against the
        finite-difference Schwarzian of G (at most 2.2e-9 relative here);
        n = 1, eta = 0 is left out, where both are zero."""
        xs = np.array([0.1, 0.4, 1.0, 2.5, 5.0])
        for n in (1, 2, 3, 4):
            for eta in (0.0, 0.3, 1.0, 2.0)[n == 1:]:
                g = PolyG(n, eta)
                np.testing.assert_allclose(
                    g.schwarzian(xs), schwarzian(g.as_smooth_map(), xs),
                    rtol=1e-7, atol=0.0)


class TestSharedStencil:
    """f', f'' and f''' share one evaluation of the map on their stencil."""

    def test_one_evaluation_per_schwarzian(self):
        calls = []

        def ev(z):
            calls.append(z.shape)
            return np.exp(z)

        schwarzian(smooth(ev), np.array([0.1, 0.7]))
        # two points, two Richardson steps, seven nodes each
        assert calls == [(2, 2, 7)]

    @pytest.mark.parametrize("m, zs", [
        (Mobius(1.2, 0.3, 0.2, 0.9).as_smooth_map(), [-1.0, 0.4, 2.0]),
        (EXP, [-1.0, 0.0, 0.9, 2.0]),
        (compose(EXP, smooth(np.sin)), [-0.6, 0.3, 1.1]),
    ], ids=["mobius", "exp", "composed"])
    def test_equals_three_derivative_calls(self, m, zs):
        def from_derivatives(z):
            f1, f2, f3 = (derivative(m, k, z) for k in (1, 2, 3))
            ratio = f2 / f1
            return f3 / f1 - 1.5 * ratio * ratio

        for z in zs:
            assert schwarzian(m, z) == from_derivatives(z)
        assert (schwarzian(m, np.array(zs)).tobytes()
                == from_derivatives(np.array(zs)).tobytes())

    # (map, points, error and message), with the half-width and |f'| of
    # the shared 7-point stencil
    @pytest.mark.parametrize("m, z, error, message", [
        (smooth(np.log, domain=(0.0, math.inf)), 1e-3, DomainError,
         "stencil of half-width 3.315e-02 around z=0.001 exits the declared "
         "domain (0.0, inf)"),
        (smooth(np.log, domain=(0.0, math.inf)), [1.0, 2e-3, 1e-3],
         DomainError, "stencil of half-width 3.315e-02 around z=0.002 exits "
         "the declared domain (0.0, inf)"),
        (smooth(np.sqrt), [[1.0, 2.0], [3.0, -0.5]], NonFinite,
         "map returned a non-finite value near z=-0.5"),
        (SQUARE, 0.0, CriticalPoint, "|f'(0.0)| = 2.175e-19 is numerically "
         "zero"),
        (SQUARE, [1.0, 1e-12], CriticalPoint, "|f'(1e-12)| = 2.000e-12 is "
         "numerically zero"),
    ], ids=["domain", "domain_array", "non_finite", "critical",
            "critical_array"])
    def test_errors_keep_their_messages(self, m, z, error, message):
        with np.errstate(all="ignore"):
            with pytest.raises(error) as raised:
                schwarzian(m, np.array(z) if isinstance(z, list) else z)
        assert str(raised.value) == message

    # critical points whose stencil, of half-width 3.3e-2, leaves the
    # domain (z = 0.01) or meets a NaN (z = 1): the stencil's error is
    # raised, not CriticalPoint
    @pytest.mark.parametrize("m, z, error", [
        (smooth(lambda z: (z - 0.01) ** 2, domain=(0.0, math.inf)), 0.01,
         DomainError),
        (smooth(lambda z: np.where(z < 0.985, np.nan, (z - 1.0) ** 2)), 1.0,
         NonFinite),
    ], ids=["domain", "non_finite"])
    def test_stencil_errors_come_before_critical_point(self, m, z, error):
        with pytest.raises(error):
            schwarzian(m, z)


class TestCompose:
    def test_eval_chains(self):
        c = compose(EXP, SQUARE)
        assert c.eval(2.0) == pytest.approx(math.exp(4.0))


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5),
       c=st.floats(-1.5, 1.5), d=st.floats(-1.5, 1.5),
       z=st.floats(-2.0, 2.0))
@example(a=0.0, b=1.0, c=1.5, d=1.5, z=-1.5)
def test_mobius_kernel_property(a, b, c, d, z):
    """Finite-difference Schwarzian of any well-conditioned fractional
    linear transformation vanishes.

    Precondition, as in verify: |c z + d| >= |c| keeps the pole -d/c at
    least 1 from z, outside the declared domain (z - 1, z + 1). The pinned
    example breaks it (pole 0.5 away) and is filtered out.
    """
    det = a * d - b * c
    denom = abs(c * z + d)
    if abs(det) < 0.5 or denom < 0.7 or denom > 2.0 or denom < abs(c):
        return
    m = smooth(lambda w: (a * w + b) / (c * w + d),
               domain=(z - 1.0, z + 1.0))
    assert abs(schwarzian(m, z)) < 1e-7


@pytest.mark.xfail(strict=True, reason="the fixed stencil step ignores the "
                   "distance to the pole: 1.05e-6 with the pole 0.5 away")
def test_mobius_kernel_near_pole():
    m = smooth(lambda w: 1.0 / (1.5 * w + 1.5), domain=(-2.5, -1.0))
    assert abs(schwarzian(m, -1.5)) < 1e-7


def _pair_pool(rng):
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


def test_composition_cocycle():
    """{g o f, z} = (f'(z))^2 {g, f(z)} + {f, z} for random smooth pairs."""
    rng = np.random.default_rng(7)
    worst = 0.0
    trials = 0
    while trials < 100:
        f_ev, f_d1 = _pair_pool(rng)
        g_ev, g_d1 = _pair_pool(rng)
        z = rng.uniform(-1.2, 1.2)
        u = f_ev(z)
        if abs(f_d1(z)) < 0.3 or abs(g_d1(u)) < 0.3 or abs(u) > 2.5:
            continue
        trials += 1
        f_map = smooth(f_ev)
        g_map = smooth(g_ev)
        comp = compose(g_map, f_map)
        fp = derivative(f_map, 1, z)
        lhs = schwarzian(comp, z)
        rhs = fp * fp * schwarzian(g_map, u) + schwarzian(f_map, z)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-6


def test_fd_matches_supplied_first_derivative():
    """The FD estimate agrees with each pool map's exact first
    derivative."""
    rng = np.random.default_rng(3)
    for _ in range(25):
        f_ev, f_d1 = _pair_pool(rng)
        z = rng.uniform(-1.5, 1.5)
        bare = smooth(f_ev)
        assert derivative(bare, 1, z) == pytest.approx(f_d1(z), abs=1e-8)


@st.composite
def maps_with_points(draw):
    """A Mobius, PolyG or ShiftMap map with points well inside its domain;
    Mobius points keep verify's unit distance from the pole."""
    kind = draw(st.sampled_from(["mobius", "poly", "shift"]))
    zs = draw(st.lists(st.floats(-2.0, 5.0), min_size=1, max_size=8))
    if kind == "mobius":
        a, b, c, d = (draw(st.floats(-1.5, 1.5)) for _ in range(4))
        assume(abs(a * d - b * c) >= 0.5)
        zs = [z for z in zs if 0.7 <= abs(c * z + d) <= 2.0
              and abs(c * z + d) >= abs(c)]
        m = Mobius(a, b, c, d).as_smooth_map()
    else:
        g = PolyG(draw(st.integers(1, 3)), draw(st.floats(0.0, 2.0)))
        if kind == "shift":
            shift = ShiftMap(g, draw(st.floats(-1.0, 2.0)))
            m, lo = shift.as_smooth_map(), shift.x_min + 0.2
        else:
            m, lo = g.as_smooth_map(), 0.3
        zs = [z for z in zs if z >= lo]
    assume(zs)
    return m, zs


@settings(max_examples=80, deadline=None)
@given(case=maps_with_points())
def test_array_calls_equal_scalar_calls(case):
    """One array call gives bit for bit the values of one call per point."""
    m, zs = case
    for order in (1, 2, 3):
        each = np.array([derivative(m, order, z) for z in zs])
        assert derivative(m, order, np.array(zs)).tobytes() == each.tobytes()
    each = np.array([schwarzian(m, z) for z in zs])
    assert schwarzian(m, np.array(zs)).tobytes() == each.tobytes()


@st.composite
def exact_schwarzians(draw):
    """(map, points, its exact Schwarzian there, rtol, atol), one of:

    - G = x^n (1 + eta x^n) against PolyG.schwarzian; atol covers the
      rounding floor of f''' (about 4e-9) where {G, x} nearly vanishes
      (n = 1, eta near 0);
    - exp(a z), whose Schwarzian is -a^2/2; f''' rounds to about 1e-9/|a|
      of f' (3.0e-8 at worst over 150,000 draws);
    - a Mobius map with points conditioned by verify's rule, whose
      Schwarzian vanishes (3.9e-8 at worst over the pools of 300 seeds).
    """
    def points(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=1,
                                      max_size=8)))

    kind = draw(st.sampled_from(["poly", "exp", "mobius"]))
    if kind == "poly":
        g = PolyG(draw(st.integers(1, 4)), draw(st.floats(0.0, 2.0)))
        xs = points(0.2, 5.0)
        return g.as_smooth_map(), xs, g.schwarzian(xs), 1e-7, 1e-8
    zs = points(-2.0, 2.0)
    if kind == "exp":
        a = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        exp = smooth(lambda z: np.exp(a * z))
        return exp, zs, np.full(zs.shape, -a * a / 2), 0.0, 1e-7
    coef = np.array([[draw(st.floats(-1.5, 1.5)) for _ in range(4)]])
    a, b, c, d = coef[0]
    assume(abs(a * d - b * c) >= 0.5)
    zs = zs[_fits(coef, zs[None])[0]]
    assume(zs.size)
    return Mobius(a, b, c, d).as_smooth_map(), zs, np.zeros(zs.shape), 0.0, 1e-7


@settings(max_examples=150, deadline=None)
@given(case=exact_schwarzians())
def test_one_stencil_schwarzian_matches_exact_values(case):
    """The Schwarzian from one stencil against three closed forms."""
    m, zs, exact, rtol, atol = case
    np.testing.assert_allclose(schwarzian(m, zs), exact, rtol=rtol, atol=atol)


BAD_POINTS = [
    (smooth(np.log, domain=(0.0, math.inf)), st.floats(-3.0, 0.03),
     DomainError),
    (smooth(np.sqrt), st.floats(-3.0, -0.1), NonFinite),
    (SQUARE, st.floats(-1e-10, 1e-10), CriticalPoint),
]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(BAD_POINTS), data=st.data(),
       zs=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=8))
def test_one_bad_point_raises_its_own_error(case, data, zs):
    """An array with one bad point raises the error that point raises alone."""
    m, bad_points, error = case
    bad = data.draw(bad_points)
    at = data.draw(st.integers(0, len(zs)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(error):
            schwarzian(m, bad)
        with pytest.raises(error):
            schwarzian(m, np.insert(zs, at, bad))
