"""Hypothesis properties of the transformation over random (n, eta, K),
taken from the identities in PAPER.md."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import is_fixed_point, transform
from gpbacklund.functional import PolyG, ShiftMap, _half_density
from gpbacklund.gp import (ClosedFormSolution, GPParams, LiouvilleSolution,
                           _liouville, energy)
from gpbacklund.ode import ToleranceSpec

degrees = st.integers(1, 3)
etas = st.floats(0.0, 2.0)
EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), eta=etas, x=st.floats(1e-3, 20.0),
       rho=st.floats(1e-3, 1e3), rho_t=st.floats(-1e3, 1e3))
def test_reading_in_x_inverts_the_liouville_variables(n, eta, x, rho, rho_t):
    """(rho, rho_t) read in x by _half_density through G, then taken back
    to t = G(x) by _liouville, is itself to rounding. rho_t's error is
    relative to the terms that cancel, rho_t and rho G''/(2 G'^2) in t;
    over 200,000 random draws of wider ranges than these the worst were
    0.98 eps for rho and 1.6 eps for rho_t."""
    g = PolyG(n, eta)
    d1, d2 = g.prime(x), g.second(x)
    back, back_t = _liouville(g, x, *_half_density(rho, rho_t, d1, d2))
    assert abs(back - rho) <= 4 * EPS * rho
    assert abs(back_t - rho_t) <= 4 * EPS * (abs(rho_t)
                                             + rho * abs(d2) / (d1 * d1))


@settings(max_examples=60, deadline=None)
@given(n=degrees, eta=etas, k=st.floats(-0.5, 2.0), v=st.floats(0.5, 2.0))
def test_closed_form_stays_a_fixed_point(n, eta, k, v):
    p = GPParams.constrained(n=n, eta=eta, c=1.0, v=v)
    shift = ShiftMap(p.g, k)
    seed = ClosedFormSolution(p)
    grid = transform(shift, seed, np.linspace(0.5, 3.0, 101))
    res = is_fixed_point(seed.eval_with_derivative(grid.xs)[0], grid.r0_f,
                         grid.f_prime)
    assert res.deviation < 1e-10


class Transformed:
    """The transform of ``seed`` by ``shift``, read as a seed at exactly
    the points asked for, with no grid in between; it keeps every point."""

    domain = (0.0, np.inf)

    def __init__(self, shift, seed):
        self.shift, self.seed = shift, seed

    def eval_with_derivative(self, xs):
        grid = transform(self.shift, self.seed, xs)
        assert grid.meta["trimmed"] == 0
        return grid.rs, grid.rps


@settings(max_examples=40, deadline=None)
@given(n=degrees, eta=etas, k1=st.floats(-0.4, 1.0), k2=st.floats(-0.4, 1.0),
       bump=st.floats(0.8, 1.2))
@example(n=1, eta=1.0, k1=0.6, k2=-0.6, bump=1.15)
def test_chained_transforms_equal_the_summed_shift(n, eta, k1, k2, bump):
    """Transforming by K1 and then by K2 equals one transform by K1 + K2;
    for K2 = -K1 (the example) the chain gives back the seed.

    The seed is integrated off the closed form (amplitude and slope scaled
    by ``bump``). The chained route reads the K1 transform at the roots
    f_K2(x) themselves, so the two routes differ only by the rounding of
    the roots and of the chain rule: over 1,000 random draws (50 of them
    with K2 = -K1) the worst relative gaps were 4.1e-15 in r and 4.4e-13
    in r'. The tolerances leave a factor of about 250 and 20 on those.
    """
    p = GPParams.constrained(n=n, eta=eta, c=1.0)
    (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(1.0)
    direct_shift = ShiftMap(p.g, k1 + k2)
    inner = ShiftMap(p.g, k2)
    ends = np.array([1.0, 1.5])
    cover = np.concatenate([direct_shift.f(ends), ShiftMap(p.g, k1).f(ends),
                            inner.f(ends), ends])
    seed = LiouvilleSolution(p, 1.0, bump * r0, bump * rp0,
                             min(cover.min(), 1.0) * 0.95, cover.max() + 0.1,
                             ToleranceSpec(1e-10, 1e-10))
    xs = np.linspace(1.0, 1.5, 201)
    chained = transform(inner, Transformed(ShiftMap(p.g, k1), seed), xs)
    direct = transform(direct_shift, seed, xs)
    for grid in (chained, direct):
        assert grid.meta["trimmed"] == 0
    scale = np.maximum(direct.rs, np.abs(direct.rps))
    assert np.max(np.abs(chained.rs - direct.rs) / direct.rs) < 1e-12
    assert np.max(np.abs(chained.rps - direct.rps) / scale) < 1e-11


@settings(max_examples=40, deadline=None)
@given(n=degrees, eta=etas, factor=st.floats(0.8, 1.2), k=st.floats(0.0, 2.0),
       tol_exp=st.floats(-12.0, -9.0))
def test_energy_is_kept_along_a_seed_and_by_its_transforms(n, eta, factor, k,
                                                           tol_exp):
    """E = rho_t^2/2 + c^2/(2 rho^2) - beta rho^4/4 is constant along the
    seed, and a transform by K, a translation in t = G(x), keeps it.

    The seed starts ``factor`` times the closed form at x = 1 and covers
    G spans up to about 140. Over 1,000 random draws of these ranges the
    worst spread of E along the seed and the worst gap between a
    transform's E and the seed's initial E were both 4.2 times the
    tolerance; the bound leaves a factor of about 5.
    """
    tol = 10.0 ** tol_exp
    p = GPParams.constrained(n=n, eta=eta, c=1.0)
    (r0,), (rp0,) = ClosedFormSolution(p).eval_with_derivative(1.0)
    r0, rp0 = factor * r0, factor * rp0
    x_hi = float(ShiftMap(p.g, k).f(2.0))
    seed = LiouvilleSolution(p, 1.0, r0, rp0, 0.9, x_hi,
                             ToleranceSpec(tol, tol))
    e0 = energy(p, 1.0, r0, rp0)
    xs = np.linspace(0.9, x_hi, 2001)
    assert np.ptp(energy(p, xs, *seed.eval_with_derivative(xs))) < 20 * tol
    grid = transform(ShiftMap(p.g, k), seed, np.linspace(0.95, 1.95, 501))
    assert grid.meta["trimmed"] == 0
    assert np.max(np.abs(energy(p, grid.xs, grid.rs, grid.rps) - e0)) \
        < 20 * tol
