import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gpbacklund.calculus import derivative, schwarzian
from gpbacklund.errors import DomainError, NonFinite, NoRealRoot, Pole
from gpbacklund.functional import Mobius, PolyG, ShiftMap, solve_f
from gpbacklund.gp import GPParams


class TestPolyG:
    @pytest.mark.parametrize("n,eta,x,expected", [
        (1, 0.0, 2.0, 2.0),
        (1, 1.0, 1.0, 2.0),
        (2, 1.0, 1.0, 2.0),
    ])
    def test_value(self, n, eta, x, expected):
        assert PolyG(n, eta).value(x) == pytest.approx(expected)

    @pytest.mark.parametrize("n,eta,x,expected", [
        (1, 0.0, 5.0, 1.0),
        (1, 1.0, 1.0, 3.0),
        (2, 1.0, math.sqrt(2.0), 10.0 * math.sqrt(2.0)),
    ])
    def test_prime(self, n, eta, x, expected):
        assert PolyG(n, eta).prime(x) == pytest.approx(expected)

    def test_rejects_nonpositive_argument(self):
        g = PolyG(2, 0.5)
        with pytest.raises(DomainError):
            g.value(0.0)
        with pytest.raises(DomainError):
            g.prime(-1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PolyG(0, 1.0)
        with pytest.raises(ValueError):
            PolyG(1, -0.5)
        with pytest.raises(ValueError):
            PolyG(1, math.nan)

    def test_rejects_bad_parameter_arrays(self):
        with pytest.raises(ValueError):
            PolyG(2, np.array([0.5, -0.5, 1.0]))
        with pytest.raises(ValueError):
            PolyG(2, np.array([0.5, math.nan]))

    def test_scalar_eta_stays_a_float(self):
        assert type(PolyG(1, np.float64(0.5)).eta) is float
        assert PolyG(1, [0.5, 1.0]).eta.shape == (2,)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_inverse_matches_deleted_branches(self, n):
        """The conjugate root equals the deleted special cases bit for bit:
        u = y at eta = 0, and no power at n = 1."""
        def deleted(g, y):
            if g.eta == 0.0:
                u = y
            else:
                u = 2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * g.eta * y))
            x = u if g.n == 1 else u ** (1.0 / g.n)
            for _ in range(2):
                x = x - (g.value(x) - y) / g.prime(x)
            return x

        rng = np.random.default_rng(n)
        y = np.exp(rng.uniform(-12.0, 12.0, size=2000))
        etas = [0.0] if n > 1 else [0.0, *rng.uniform(0.0, 2.0, size=5)]
        for eta in etas:
            g = PolyG(n, eta)
            assert g.inverse(y).tobytes() == deleted(g, y).tobytes()
            for v in y[:100].tolist():
                assert g.inverse(v) == deleted(g, v)

    def test_array_parameters_match_scalar_parameters(self):
        rng = np.random.default_rng(7)
        eta = rng.uniform(0.0, 2.0, size=50)
        k = rng.uniform(-0.5, 2.0, size=50)
        x = rng.uniform(1.0, 4.0, size=50)
        for n in (1, 2, 3):
            f = ShiftMap(PolyG(n, eta), k).f(x)
            assert f == pytest.approx(
                [ShiftMap(PolyG(n, e), kk).f(xx) for e, kk, xx in zip(eta, k, x)],
                rel=1e-14)

    @pytest.mark.parametrize("make", [
        lambda a: PolyG(1, a),
        lambda a: ShiftMap(PolyG(2, a), a - 1.0),
        lambda a: Mobius(a, 0.0, 0.0, 1.0),
        lambda a: GPParams(n=1, eta=a, b=-1.0, c=1.0),
    ], ids=["PolyG", "ShiftMap", "Mobius", "GPParams"])
    def test_array_parameters_compare_by_identity(self, make):
        a = np.array([0.5, 1.0])
        obj, twin = make(a), make(a.copy())
        assert {obj: 1}[obj] == 1
        assert obj == obj
        assert obj != twin

    def test_inverse_round_trip(self):
        g = PolyG(3, 0.7)
        for x in (0.2, 1.0, 2.5, 7.0):
            assert g.inverse(g.value(x)) == pytest.approx(x, rel=1e-13)

    def test_higher_derivatives_match_fd(self):
        g = PolyG(3, 0.4)
        m = g.as_smooth_map()
        for x in (0.7, 1.3, 2.1):
            assert derivative(m, 2, x) == pytest.approx(g.second(x), rel=1e-7)
            assert derivative(m, 3, x) == pytest.approx(g.third(x), rel=1e-6)

    @given(n=st.sampled_from([1, 2, 3]), eta=st.floats(0.0, 2.0),
           x=st.floats(0.05, 8.0), y=st.floats(0.05, 8.0))
    @settings(max_examples=80, deadline=None)
    def test_strictly_increasing(self, n, eta, x, y):
        assume(abs(x - y) > 1e-9)
        g = PolyG(n, eta)
        lo, hi = sorted((x, y))
        assert g.value(hi) > g.value(lo) > 0.0


class TestMobius:
    def test_identity(self):
        assert Mobius(1, 0, 0, 1)(7.0) == 7.0

    def test_translation(self):
        assert Mobius(1, 3, 0, 1)(2.0) == 5.0

    def test_generic(self):
        assert Mobius(2, 1, 1, 1)(1.0) == pytest.approx(1.5)

    def test_pole_raises(self):
        m = Mobius(1, 0, 1, -2)
        with pytest.raises(Pole):
            m(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Mobius(2, 4, 1, 2)


class TestSolveF:
    def test_pure_translation(self):
        shift = ShiftMap(PolyG(1, 0.0), 3.0)
        f, fp = solve_f(shift, 2.0)
        assert f == pytest.approx(5.0)
        assert fp == pytest.approx(1.0)

    def test_quadratic_case(self):
        # oracle: f^2 + f - 4 = 0 => f = (-1 + sqrt(17)) / 2
        shift = ShiftMap(PolyG(1, 1.0), 2.0)
        f, fp = solve_f(shift, 1.0)
        assert f == pytest.approx((-1 + math.sqrt(17)) / 2, rel=1e-14)
        assert fp == pytest.approx(3 / math.sqrt(17), rel=1e-14)

    def test_quartic_case(self):
        # oracle: f^4 + f^2 - 6 = 0 => f^2 = 2
        shift = ShiftMap(PolyG(2, 1.0), 4.0)
        f, fp = solve_f(shift, 1.0)
        assert f == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert fp == pytest.approx(6 / (10 * math.sqrt(2.0)), rel=1e-14)

    def test_no_real_root(self):
        shift = ShiftMap(PolyG(1, 2.0), -5.0)
        with pytest.raises(NoRealRoot):
            shift.f(0.1)

    @pytest.mark.parametrize("k, x", [
        (0.5, np.array([1.0, math.nan])),
        (math.inf, 1.0),
    ])
    def test_non_finite_fails_closed(self, k, x):
        """A NaN point or an infinite K raises, with no RuntimeWarning and
        no NaN root."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                ShiftMap(PolyG(2, 0.5), k).f(x)

    @pytest.mark.parametrize("n, eta, k", [(2, 2.0, 1e308), (1, 0.0, 1e308)])
    def test_overflowing_root_fails_closed(self, n, eta, k):
        """A finite G(x) + K whose root overflows raises, not a NaN root."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite):
                ShiftMap(PolyG(n, eta), k).f(1.0)

    def test_negative_target_domain_error(self):
        # eta = 0 keeps the discriminant trivially valid, G(x) + K < 0
        shift = ShiftMap(PolyG(1, 0.0), -5.0)
        with pytest.raises(DomainError):
            shift.f(1.0)

    def test_valid_domain_left_endpoint(self):
        shift = ShiftMap(PolyG(2, 0.5), -3.0)
        x_min = shift.x_min
        assert shift.g.value(x_min) == pytest.approx(3.0, rel=1e-12)
        assert shift.f(x_min * 1.01) > 0.0
        with pytest.raises(DomainError):
            shift.f(x_min * 0.99)

    def test_array_k_x_min_matches_scalar_x_min(self):
        eta = np.array([[0.0], [0.5], [2.0]])
        k = np.array([-3.0, -0.05, 0.0, 0.7])
        x_min = ShiftMap(PolyG(2, eta), k).x_min
        assert x_min.shape == (3, 4)
        for i, e in enumerate(eta[:, 0]):
            for j, kk in enumerate(k):
                # numpy's array pow may round an ulp away from the scalar
                expected = ShiftMap(PolyG(2, e), kk).x_min
                assert abs(x_min[i, j] - expected) <= np.spacing(expected)
        lo, hi = ShiftMap(PolyG(2, eta), k).as_smooth_map().domain
        assert np.array_equal(lo, x_min) and hi == math.inf

    def test_vectorized(self):
        shift = ShiftMap(PolyG(2, 1.0), 1.5)
        xs = np.linspace(0.5, 4.0, 11)
        fs = shift.f(xs)
        assert fs.shape == xs.shape
        assert np.allclose(shift.g.value(fs), shift.g.value(xs) + 1.5,
                           rtol=1e-13, atol=1e-13)

    @given(n=st.sampled_from([1, 2, 3]), eta=st.floats(0.0, 2.0),
           K=st.floats(-2.0, 3.0), x=st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_translation_property(self, n, eta, K, x):
        g = PolyG(n, eta)
        t = g.value(x) + K
        assume(t > 1e-6)
        assume(t < 5e4)  # double-precision floor of the absolute criterion
        shift = ShiftMap(g, K)
        f = shift.f(x)
        assert abs(g.value(f) - g.value(x) - K) < 1e-10

    @given(n=st.sampled_from([1, 2, 3]), eta=st.floats(0.0, 2.0),
           K=st.floats(-1.0, 3.0), x=st.floats(0.1, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_root_postcondition_relative(self, n, eta, K, x):
        """Relative form of the root residual bound, valid at any magnitude."""
        g = PolyG(n, eta)
        t = g.value(x) + K
        assume(t > 1e-6)
        f = ShiftMap(g, K).f(x)
        assert abs(g.value(f) - t) < 1e-12 * max(1.0, abs(t))

    def test_semigroup(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            eta = rng.uniform(0.0, 2.0)
            x = rng.uniform(0.2, 5.0)
            k1 = rng.uniform(0.0, 2.0)
            k2 = rng.uniform(0.0, 2.0)
            g = PolyG(n, eta)
            f21 = ShiftMap(g, k1).f(ShiftMap(g, k2).f(x))
            f_sum = ShiftMap(g, k1 + k2).f(x)
            assert abs(f21 - f_sum) < 1e-9

    def test_fprime_matches_finite_difference(self):
        shift = ShiftMap(PolyG(2, 0.8), 1.2)
        m = shift.as_smooth_map()
        for x in (0.5, 1.0, 2.0, 4.0):
            assert shift.f_prime(x, shift.f(x)) == pytest.approx(
                derivative(m, 1, x), abs=1e-6)

    def test_second_matches_finite_difference(self):
        shift = ShiftMap(PolyG(2, 0.8), 1.2)
        m = shift.as_smooth_map()
        for x in (0.8, 1.5, 3.0):
            f, fp = solve_f(shift, x)
            assert shift.f_second(x, f, fp) == pytest.approx(
                derivative(m, 2, x), abs=1e-6)

    def test_q_identity(self):
        """Q(x) = f'(x)^2 Q(f(x)) + {f, x} with Q the Schwarzian of G."""
        worst = 0.0
        for n, eta, K in [(1, 0.5, 0.5), (1, 1.0, 1.0), (2, 0.5, 1.0),
                          (2, 1.0, 0.5), (3, 0.5, 0.5)]:
            g = PolyG(n, eta)
            shift = ShiftMap(g, K)
            g_map = g.as_smooth_map()
            f_map = shift.as_smooth_map()  # finite differences of solve_f
            for x in np.linspace(0.8, 3.0, 12):
                f, fp = solve_f(shift, float(x))
                q_here = schwarzian(g_map, float(x))
                q_there = schwarzian(g_map, float(f))
                dev = abs(q_here - fp * fp * q_there - schwarzian(f_map, float(x)))
                worst = max(worst, dev)
        assert worst < 1e-5
