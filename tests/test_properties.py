"""Hypothesis properties of the transformation over random (n, eta, K),
taken from the identities in PAPER.md."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gpbacklund.backlund import is_fixed_point, transform
from gpbacklund.functional import ShiftMap
from gpbacklund.gp import ClosedFormSolution, GPParams, gp_rhs
from gpbacklund.ode import ToleranceSpec, integrate_span

degrees = st.integers(1, 3)
etas = st.floats(0.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(n=degrees, eta=etas, k=st.floats(-0.5, 2.0), v=st.floats(0.5, 2.0))
def test_closed_form_stays_a_fixed_point(n, eta, k, v):
    p = GPParams.constrained(n=n, eta=eta, c=1.0, v=v)
    shift = ShiftMap(p.g, k)
    res = is_fixed_point(shift, ClosedFormSolution(p),
                         np.linspace(0.5, 3.0, 101))
    assert res.deviation < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=degrees, eta=etas, k1=st.floats(0.0, 1.0), k2=st.floats(0.0, 1.0),
       bump=st.floats(0.8, 1.2))
def test_chained_transforms_equal_the_summed_shift(n, eta, k1, k2, bump):
    """Transforming by K1 and then by K2 equals one transform by K1 + K2.

    The seed is integrated off the closed form (amplitude and slope scaled
    by ``bump``). The chained route reads the K1 grid (2001 points, h about
    4e-4) through ``as_interpolant``, a cubic Hermite whose value error is
    O(h^4) and slope error O(h^3); the direct route interpolates nothing.
    Over 300 random draws the worst relative gaps were 1.8e-10 in r and
    7e-7 in r', and they grew 14x and 11x when h doubled. The tolerances
    leave a factor of about 50 and 30 on those.
    """
    p = GPParams.constrained(n=n, eta=eta, c=1.0)
    exact = ClosedFormSolution(p)
    direct_shift = ShiftMap(p.g, k1 + k2)
    seed = integrate_span(gp_rhs(p), 1.0, bump * float(exact.value(1.0)),
                          bump * float(exact.derivative(1.0)), 0.9,
                          float(direct_shift.f(1.5)) + 0.1,
                          ToleranceSpec(1e-10, 1e-10))
    inner = ShiftMap(p.g, k2)
    ys = np.linspace(float(inner.f(1.0)) - 0.05, float(inner.f(1.5)) + 0.05,
                     2001)
    first = transform(ShiftMap(p.g, k1), seed, ys)
    xs = np.linspace(1.0, 1.5, 201)
    chained = transform(inner, first.as_interpolant(), xs)
    direct = transform(direct_shift, seed, xs)
    for grid in (first, chained, direct):
        assert grid.meta["trimmed"] == 0
    scale = np.maximum(direct.rs, np.abs(direct.rps))
    assert np.max(np.abs(chained.rs - direct.rs) / direct.rs) < 1e-8
    assert np.max(np.abs(chained.rps - direct.rps) / scale) < 2e-5
