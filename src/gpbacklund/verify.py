"""Numerical verification suites for the functional identities behind the
transformation machinery.

Each check returns a CheckResult with the measured worst-case deviation and
the tolerance it was held to. ``constraint_activity`` is a reversed check:
it passes when the deviation is at least the tolerance, confirming that
breaking the closed-form constraint visibly breaks the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backlund import _pull_back, is_fixed_point
from .calculus import SmoothMap, compose, derivative, schwarzian
from .errors import NumericalError
from .functional import Mobius, PolyG, ShiftMap, solve_f
from .gp import (ClosedFormSolution, GPParams, closed_form_residual,
                 linear_coefficient_check)

SWEEP_ETAS = (0.0, 0.5, 1.0)
# the swept etas as a column, one row each against a row of points
_ETA_ROWS = np.array(SWEEP_ETAS)[:, None]

# double-precision floor of the absolute translation criterion: the computed
# residual G(f) - G(x) - K cannot beat ~eps * |G| however exact the root is
_TARGET_CAP = 5e4


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool
    higher_is_better: bool = False

    def as_dict(self) -> dict:
        return {"name": self.name, "deviation": self.deviation,
                "tolerance": self.tolerance, "pass": self.passed}


def _result(name: str, deviation: float, tolerance: float,
            higher_is_better: bool = False) -> CheckResult:
    deviation = float(deviation)
    tolerance = float(tolerance)
    passed = deviation >= tolerance if higher_is_better else deviation < tolerance
    return CheckResult(name=name, deviation=deviation, tolerance=tolerance,
                       passed=bool(passed), higher_is_better=higher_is_better)


def _fits(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Which points of each row of z keep |c z + d| in [max(0.7, |c|), 2]
    for that row's coefficients (a, b, c, d)."""
    c, d = coef[:, 2:3], coef[:, 3:4]
    denom = np.abs(c * z + d)
    return (np.maximum(0.7, np.abs(c)) <= denom) & (denom <= 2.0)


def _first_hits(z: np.ndarray, hits: np.ndarray, n_points: int):
    """(filled, points): which rows of z have at least ``n_points`` hits,
    and the first ``n_points`` hits of each such row, one row each."""
    taken = hits & (np.cumsum(hits, axis=1) <= n_points)
    filled = np.count_nonzero(taken, axis=1) == n_points
    return filled, z[taken & filled[:, None]].reshape(-1, n_points)


def random_mobius_with_points(rng: np.random.Generator, n_maps: int,
                              n_points: int):
    """Coefficients (a, b, c, d) of ``n_maps`` well-conditioned random
    Mobius maps, shape (n_maps, 4), with ``n_points`` evaluation points
    each, shape (n_maps, n_points).

    Conditioning: |det| >= 0.5, moderate denominator, and unit distance from
    the pole (differencing any map is hopeless against the pole's factorial
    derivative growth). A map's points are its first ``n_points`` hits
    among 60 draws per point; a map with fewer is redrawn. Each round draws
    a batch of candidate maps, the first 10 draws per point for every map
    with a large enough |det|, and the other 50 only for the maps still
    short of hits. Maps keep their candidate order, so the first
    ``n_maps`` are independent draws of the rule above.
    """
    coef, points = np.empty((0, 4)), np.empty((0, n_points))
    while len(coef) < n_maps:
        need = n_maps - len(coef)
        # about 61% of candidates pass |det| >= 0.5, so one round nearly
        # always suffices
        cand = rng.uniform(-1.5, 1.5, (2 * need + 8, 4))
        a, b, c, d = cand.T
        cand = cand[np.abs(a * d - b * c) >= 0.5]
        z = rng.uniform(-2.0, 2.0, (len(cand), 10 * n_points))
        hits = _fits(cand, z)
        filled, first = _first_hits(z, hits, n_points)
        drawn = np.empty((len(cand), n_points))
        drawn[filled] = first
        short = np.flatnonzero(~filled)
        if short.size:
            more = rng.uniform(-2.0, 2.0, (short.size, 50 * n_points))
            late, first = _first_hits(
                np.concatenate([z[short], more], axis=1),
                np.concatenate([hits[short], _fits(cand[short], more)],
                               axis=1), n_points)
            drawn[short[late]] = first
            filled[short[late]] = True
        coef = np.concatenate([coef, cand[filled]])
        points = np.concatenate([points, drawn[filled]])
    return coef[:n_maps], points[:n_maps]


def check_mobius_kernel(rng: np.random.Generator) -> CheckResult:
    """Finite-difference Schwarzian of 100 fractional linear maps vanishes.

    All maps are drawn first, with 10 points each; one Schwarzian call then
    takes every map's points as one row of a (maps, points) array.
    """
    coef, points = random_mobius_with_points(rng, 100, 10)
    # one map per row: the coefficients broadcast over the points and the
    # two stencil axes of the finite differences
    m = Mobius(*coef.T.reshape(4, -1, 1, 1, 1))
    devs = np.abs(schwarzian(m.as_smooth_map(), points))
    return _result("mobius_schwarzian_kernel", np.max(devs), 1e-7)


# The composition law's pool of smooth maps, one entry per kind: the map
# and its true first derivative (for conditioning), given the kind's
# parameters p and q
_POOL = (
    (lambda p, q, z: p * z + q, lambda p, q, z: p),
    (lambda p, q, z: np.exp(p * z), lambda p, q, z: p * np.exp(p * z)),
    (lambda p, q, z: z + p * np.sin(z), lambda p, q, z: 1.0 + p * np.cos(z)),
    (lambda p, q, z: z + p * z ** 3, lambda p, q, z: 1.0 + 3 * p * z * z),
    (lambda p, q, z: np.tanh(p * z) + z,
     lambda p, q, z: p / np.cosh(p * z) ** 2 + 1.0),
)
# the range of each kind's p; kinds 0 and 1 give it a random sign
_P_RANGES = np.array([(0.7, 1.5), (0.4, 0.9), (-0.5, 0.5), (0.05, 0.3),
                      (0.3, 0.8)])


def _draw_pool(rng: np.random.Generator, size: int) -> np.ndarray:
    """Kinds and parameters of ``size`` random maps of the pool, as a table
    of rows kind, p, q with one column per map. Only kind 0 has a q."""
    kind = rng.integers(0, len(_POOL), size)
    p = rng.uniform(*_P_RANGES[kind].T)
    p = np.where(kind < 2, p * rng.choice([-1.0, 1.0], size), p)
    q = np.where(kind == 0, rng.uniform(-1.0, 1.0, size), 0.0)
    return np.array([kind, p, q])


def _pool(table: np.ndarray, z, order: int = 0):
    """Pool maps (order 0) or their first derivatives (order 1) at z.

    ``table`` holds rows kind, p, q with one column per map; map i is
    evaluated on row i of z.
    """
    _, p, q = table.reshape(table.shape + (1,) * (np.ndim(z) - 1))
    out = np.empty(np.broadcast_shapes(p.shape, np.shape(z)))
    for k, pair in enumerate(_POOL):
        at = table[0] == k  # each kind on its own rows only
        out[at] = pair[order](p[at], q[at], z[at])
    return out


def check_composition_law(rng: np.random.Generator) -> CheckResult:
    """{g o f, z} = (f')^2 {g, f(z)} + {f, z} for 100 random smooth pairs.

    Pairs are drawn in rounds of as many as are still missing, and each
    round is conditioned in one array pass. One derivative and three
    Schwarzian calls then take every pair at once.
    """
    pairs = np.empty((7, 0))  # rows: f's kind, p, q, then g's, then z
    while pairs.shape[1] < 100:
        size = 100 - pairs.shape[1]
        draws = np.concatenate([_draw_pool(rng, size), _draw_pool(rng, size),
                                rng.uniform(-1.2, 1.2, (1, size))])
        f_tab, g_tab, z = draws[0:3], draws[3:6], draws[6]
        u = _pool(f_tab, z)
        rejected = ((np.abs(_pool(f_tab, z, 1)) < 0.3)
                    | (np.abs(_pool(g_tab, u, 1)) < 0.3)
                    | (np.abs(u) > 2.5))
        pairs = np.concatenate([pairs, draws[:, ~rejected]], axis=1)
    f_tab, g_tab, z = pairs[0:3], pairs[3:6], pairs[6]
    f_map = SmoothMap(eval=lambda w: _pool(f_tab, w))
    g_map = SmoothMap(eval=lambda w: _pool(g_tab, w))
    fp = derivative(f_map, 1, z)
    devs = np.abs(schwarzian(compose(g_map, f_map), z)
                  - fp * fp * schwarzian(g_map, f_map.eval(z))
                  - schwarzian(f_map, z))
    return _result("schwarzian_composition", np.max(devs), 1e-6)


def _rows(rng: np.random.Generator, lo: int, hi: int, ranges, count: int,
          accept=None) -> np.ndarray:
    """``count`` rows, each an integer uniform on [lo, hi) then one float
    uniform on [a, b) per ``(a, b)`` in ``ranges``.

    With ``accept``, a function of a table of rows returning a mask, rows
    failing it are dropped and rounds are drawn until ``count`` remain.
    """
    low, high = np.array(ranges, dtype=float).T
    kept, need = [], count
    while need:
        # a filter that keeps most rows is met in one round
        size = need if accept is None else 2 * need + 16
        rows = np.column_stack([rng.integers(lo, hi, size),
                                rng.uniform(low, high, (size, low.size))])
        if accept is not None:
            rows = rows[accept(rows)]
        kept.append(rows[:need])
        need -= len(kept[-1])
    return np.concatenate(kept)


def _in_target(rows: np.ndarray) -> np.ndarray:
    """Which rows (n, eta, x, K) have G(x) + K inside (1e-6, _TARGET_CAP)."""
    n, eta, x, k = rows.T
    xn = x ** n
    t = xn * (1.0 + eta * xn) + k
    return (1e-6 < t) & (t < _TARGET_CAP)


def check_translation_property(rng: np.random.Generator) -> CheckResult:
    """|G(f(x)) - G(x) - K| stays below the absolute tolerance.

    All 400 (n, eta, x, K) samples are drawn first, with those outside the
    target discarded; each degree n then takes one ShiftMap with arrays of
    eta and K.
    """
    n, eta, x, k = _rows(rng, 1, 4, [(0.0, 2.0), (0.1, 10.0), (-2.0, 3.0)],
                         400, accept=_in_target).T
    devs = np.empty_like(x)
    for deg in (1, 2, 3):
        at = n == deg
        g = PolyG(deg, eta[at])
        f = ShiftMap(g, k[at]).f(x[at])
        devs[at] = np.abs(g.value(f) - g.value(x[at]) - k[at])
    return _result("translation_property", np.max(devs), 1e-10)


def check_semigroup(rng: np.random.Generator) -> CheckResult:
    """f_{K1} o f_{K2} = f_{K1+K2} pointwise.

    All 200 samples are drawn first; each degree n then takes one ShiftMap
    per side with arrays of eta and K.
    """
    n, eta, x, k1, k2 = _rows(
        rng, 1, 4, [(0.0, 2.0), (0.2, 5.0), (0.0, 2.0), (0.0, 2.0)],
        200).T
    devs = np.empty_like(x)
    for deg in (1, 2, 3):
        at = n == deg
        g = PolyG(deg, eta[at])
        chained = ShiftMap(g, k1[at]).f(ShiftMap(g, k2[at]).f(x[at]))
        direct = ShiftMap(g, k1[at] + k2[at]).f(x[at])
        devs[at] = np.abs(chained - direct)
    return _result("translation_semigroup", np.max(devs), 1e-9)


def check_q_identity(k_values=(0.5, 1.0)) -> CheckResult:
    """Q(x) = f'^2 Q(f) + {f, x} with Q = {G, .} in closed form
    (PolyG.schwarzian) and {f, x} taken by finite differences of the
    pointwise solver.

    Each degree takes one PolyG and one ShiftMap, with a row of 12 points
    from max(0.8, x_min + 0.2) to 3 per (eta, K) pair and the parameters
    shaped (rows, 1, 1, 1) against the stencil nodes of {f, x}.
    """
    devs = []
    for n, etas in [(1, (0.5, 1.0)), (2, (0.5, 1.0)), (3, (0.5,))]:
        eta, k = np.meshgrid(etas, k_values, indexing="ij")
        g = PolyG(n, eta.reshape(-1, 1, 1, 1))
        shift = ShiftMap(g, k.reshape(-1, 1, 1, 1))
        xs = np.linspace(np.maximum(0.8, shift.x_min.ravel() + 0.2), 3.0, 12,
                         axis=-1)
        at = xs[..., None, None]  # the points with the nodes' two axes
        f, fp = solve_f(shift, at)
        devs.append(np.max(np.abs(
            g.schwarzian(at) - fp * fp * g.schwarzian(f)
            - schwarzian(shift.as_smooth_map(), xs)[..., None, None])))
    return _result("q_identity", np.max(devs), 1e-5)


def check_linear_coefficient() -> CheckResult:
    """The equation's linear coefficient equals -(1/2){G, x}.

    Each degree takes one call, with a row of 19 points per swept eta.
    """
    xs = np.linspace(0.5, 5.0, 19)
    devs = [np.max(np.abs(linear_coefficient_check(
        GPParams(n=n, eta=_ETA_ROWS, b=-1.0, c=1.0), xs))) for n in (1, 2, 3)]
    return _result("linear_coefficient", np.max(devs), 1e-6)


def check_closed_form_residual(c: float = 1.0, v: float = 1.0) -> CheckResult:
    """The closed-form amplitude solves the equation under the constraint.

    Each degree takes one call, with a row of points per swept eta.
    """
    xs = np.linspace(0.5, 5.0, 401)
    devs = [np.max(np.abs(closed_form_residual(
        GPParams.constrained(n=n, eta=_ETA_ROWS, c=c, v=v), xs)))
        for n in (1, 2, 3)]
    return _result("closed_form_residual", np.max(devs), 1e-7)


def check_constraint_activity(c: float = 1.0, v: float = 1.0) -> CheckResult:
    """Perturbing b by 0.01 off the constraint must visibly break the
    residual.

    Reversed check: passes when the smallest residual across the sweep is
    still at least the tolerance. Each degree takes one call, with a row
    of points per swept eta.
    """
    xs = np.linspace(0.5, 5.0, 401)
    # numpy's power gives inf or 0 where Python's raises for an extreme v
    b = -(c * c) / np.float64(v) ** 6 + 0.01
    devs = [np.max(np.abs(closed_form_residual(
        GPParams(n=n, eta=_ETA_ROWS, b=b, c=c, v=v), xs)), axis=-1)
        for n in (1, 2, 3)]
    return _result("constraint_activity", np.min(devs), 1e-3,
                   higher_is_better=True)


def check_fixed_point_for(params: GPParams, k_values, xs) -> float:
    """Worst fixed-point deviation of the closed form over every K, for one
    parameter set or one degree's group of them (an array eta).

    One ShiftMap takes the whole (eta, K) grid and is evaluated on all of xs,
    so an invalid (K, xs) combination surfaces as NoRealRoot or DomainError
    instead of being silently trimmed away; the error raised is the first
    failing (eta, K) pair's. Where the pull-back keeps every point, its own
    roots are that evaluation; otherwise the whole grid is probed first.
    """
    etas = np.reshape(params.eta, (-1, 1, 1))
    ks = np.reshape(np.asarray(k_values, dtype=float), (-1, 1))
    p = GPParams.constrained(n=params.n, eta=etas, c=params.c, v=params.v)
    shift, seed = ShiftMap(p.g, ks), ClosedFormSolution(p)
    try:
        if not np.all(p.g.value(xs) + ks > 0.0):
            shift.f(xs)
        kept, f, fp = _pull_back(shift, seed, xs)
        return is_fixed_point(seed.eval_with_derivative(kept)[0],
                              seed.eval_with_derivative(f)[0], fp).deviation
    except NumericalError:
        for eta in etas.ravel():
            for k in ks.ravel():
                ShiftMap(PolyG(p.n, float(eta)), float(k)).f(xs)
        raise


def check_fixed_point(params: GPParams, k_values, xs) -> CheckResult:
    """The closed form is a fixed point of the transformation for every K.

    The configured parameter set is probed first so its failures are the
    ones reported; the standard sweep at its c and v follows, one degree's
    etas at a time.
    """
    groups = [params] + [
        GPParams.constrained(n=n, eta=np.array(SWEEP_ETAS), c=params.c,
                             v=params.v) for n in (1, 2, 3)]
    devs = [check_fixed_point_for(p, k_values, xs) for p in groups]
    return _result("fixed_point", np.max(devs), 1e-10)


def run_identity_checks(params: GPParams, k_values, xs,
                        rng_seed: int) -> list[CheckResult]:
    """The full identity suite in a deterministic order, at the configured
    parameters and points; an empty K schedule checks K = 0.25, 0.5, 1."""
    rng = np.random.default_rng(rng_seed)
    k_values = tuple(k_values) or (0.25, 0.5, 1.0)
    c, v = params.c, params.v
    return [
        check_mobius_kernel(rng),
        check_composition_law(rng),
        check_translation_property(rng),
        check_semigroup(rng),
        check_q_identity(k_values=[k for k in k_values if k > 0.0] or (0.5,)),
        check_linear_coefficient(),
        check_closed_form_residual(c=c, v=v),
        check_constraint_activity(c=c, v=v),
        check_fixed_point(params, k_values, xs),
    ]
