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

from .backlund import BacklundMap, is_fixed_point
from .calculus import SmoothMap, compose, derivative, schwarzian
from .errors import NumericalError
from .functional import Mobius, PolyG, ShiftMap, solve_f
from .gp import (ClosedFormSolution, GPParams, closed_form_residual,
                 linear_coefficient_check)

SWEEP_ETAS = (0.0, 0.5, 1.0)
PARAM_SWEEP = [(n, eta) for n in (1, 2, 3) for eta in SWEEP_ETAS]

# double-precision floor of the absolute translation criterion: the computed
# residual G(f) - G(x) - K cannot beat ~eps * |G| however exact the root is
_TARGET_CAP = 5e4

# raw generator outputs a _Tape draws at a time: the Mobius kernel's draws
# and their lookahead take up to about 7,700, every other check under 2,000
_TAPE_BLOCK = 8192


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


class _Tape:
    """numpy's PCG64 draws, replayed from blocks of raw generator output.

    ``uniform`` and ``integers`` return exactly what ``Generator.uniform``
    and ``Generator.integers`` return for the same calls in the same order:
    a double is ``(raw >> 11) * 2**-53``, and an integer is Lemire's bounded
    draw on 32-bit outputs, each raw output giving its low half and
    buffering its high half for the next one (PCG64's ``has_uint32`` and
    ``uinteger``). ``pos`` counts the raw outputs drawn; moving it back
    un-draws uniforms. ``close`` leaves the generator where the same calls
    made on it would have left it.
    """

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if type(bitgen) is not np.random.PCG64:
            raise TypeError(f"draws replay PCG64 output, not "
                            f"{type(bitgen).__name__}")
        self._bitgen = bitgen
        self._start = bitgen.state
        self._has_upper = bool(self._start["has_uint32"])
        self._upper = self._start["uinteger"]
        self._raw = bitgen.random_raw(_TAPE_BLOCK)
        self.pos = 0

    def __enter__(self) -> "_Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Rewind the generator, then replay the raw outputs drawn."""
        bitgen = self._bitgen
        bitgen.state = self._start
        bitgen.random_raw(self.pos, output=False)
        state = bitgen.state
        state["has_uint32"] = int(self._has_upper)
        state["uinteger"] = self._upper
        bitgen.state = state

    def _reserve(self, size: int) -> None:
        """Extend the block to hold raw outputs pos .. pos + size."""
        short = self.pos + size - self._raw.size
        if short > 0:
            more = self._bitgen.random_raw(max(short, self._raw.size))
            self._raw = np.concatenate([self._raw, more])

    def _next64(self) -> int:
        pos = self.pos
        if pos == self._raw.size:
            self._reserve(1)
        self.pos = pos + 1
        return self._raw.item(pos)

    def _next32(self) -> int:
        if self._has_upper:
            self._has_upper = False
            return self._upper
        raw = self._next64()
        self._has_upper, self._upper = True, raw >> 32
        return raw & 0xFFFFFFFF

    def uniform(self, lo: float, hi: float, size: int | None = None):
        """A float, or an array of ``size`` of them, uniform on [lo, hi)."""
        if size is None:
            return lo + (hi - lo) * ((self._next64() >> 11) * 2.0 ** -53)
        self._reserve(size)
        raw = self._raw[self.pos:self.pos + size]
        self.pos += size
        return lo + (hi - lo) * ((raw >> 11) * 2.0 ** -53)

    def integers(self, lo: int, hi: int) -> int:
        """An integer uniform on [lo, hi), for 2 <= hi - lo < 2**32."""
        span = hi - lo
        if not 2 <= span < 2 ** 32:
            raise ValueError(f"integer range {span} is not a 32-bit range")
        m = self._next32() * span
        if m & 0xFFFFFFFF < span:
            # reject the low products that would bias the result
            threshold = (2 ** 32 - span) % span
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * span
        return lo + (m >> 32)


def random_mobius_with_points(tape: _Tape, n_points: int):
    """Well-conditioned random Mobius map with evaluation points.

    Conditioning: |det| >= 0.5, moderate denominator, and unit distance from
    the pole (differencing any map is hopeless against the pole's factorial
    derivative growth). Maps admitting no such points within 60 draws per
    point are redrawn. The tape advances exactly as with one draw per
    point, stopping at the draw that completes the set.
    """
    while True:
        a, b, c, d = [tape.uniform(-1.5, 1.5) for _ in range(4)]
        if abs(a * d - b * c) < 0.5:
            continue
        start = tape.pos
        z = tape.uniform(-2.0, 2.0, size=60 * n_points)
        denom = np.abs(c * z + d)
        hits = np.flatnonzero((0.7 <= denom) & (denom <= 2.0)
                              & (denom >= abs(c)))
        if hits.size >= n_points:
            # un-draw the points after the last one used
            tape.pos = start + int(hits[n_points - 1]) + 1
            return Mobius(a, b, c, d), z[hits[:n_points]]


def check_mobius_kernel(rng: np.random.Generator, n_maps: int = 100,
                        n_points: int = 10,
                        tolerance: float = 1e-7) -> CheckResult:
    """Finite-difference Schwarzian of fractional linear maps vanishes.

    All maps are drawn first; one Schwarzian call then takes every map's
    points as one row of a (maps, points) array.
    """
    with _Tape(rng) as tape:
        maps, points = zip(*(random_mobius_with_points(tape, n_points)
                             for _ in range(n_maps)))
    # one map per row: the coefficients broadcast over the points and the
    # two stencil axes of the finite differences
    coef = np.array([(m.a, m.b, m.c, m.d) for m in maps])
    m = Mobius(*coef.T.reshape(4, n_maps, 1, 1, 1))
    devs = np.abs(schwarzian(m.as_smooth_map(), np.array(points)))
    return _result("mobius_schwarzian_kernel", np.max(devs), tolerance)


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


# a random sign indexes this with integers(0, 2), as rng.choice(_SIGNS) does
_SIGNS = (-1.0, 1.0)


def _draw_pool(tape: _Tape):
    """Kind and parameters (p, q) of a random map of the pool."""
    kind = tape.integers(0, 5)
    if kind == 0:
        p = tape.uniform(0.7, 1.5) * _SIGNS[tape.integers(0, 2)]
        return kind, p, tape.uniform(-1.0, 1.0)
    if kind == 1:
        return kind, tape.uniform(0.4, 0.9) * _SIGNS[tape.integers(0, 2)], 0.0
    if kind == 2:
        return kind, tape.uniform(-0.5, 0.5), 0.0
    if kind == 3:
        return kind, tape.uniform(0.05, 0.3), 0.0
    return kind, tape.uniform(0.3, 0.8), 0.0


def _pool(table: np.ndarray, z, order: int = 0):
    """Pool maps (order 0) or their first derivatives (order 1) at z.

    ``table`` holds rows kind, p, q with one column per map; map i is
    evaluated on row i of z.
    """
    kind, p, q = table.reshape(table.shape + (1,) * (np.ndim(z) - 1))
    return np.select([kind == k for k in range(len(_POOL))],
                     [pair[order](p, q, z) for pair in _POOL])


def check_composition_law(rng: np.random.Generator, n_pairs: int = 100,
                          tolerance: float = 1e-6) -> CheckResult:
    """{g o f, z} = (f')^2 {g, f(z)} + {f, z} for random smooth pairs.

    Pairs are drawn in rounds of as many as are still missing, and each
    round is conditioned in one array pass, so the generator advances as it
    would drawing one pair at a time. One derivative and three Schwarzian
    calls then take every pair at once.
    """
    pairs = np.empty((0, 7))
    with _Tape(rng) as tape:
        while len(pairs) < n_pairs:
            draws = np.array([(*_draw_pool(tape), *_draw_pool(tape),
                               tape.uniform(-1.2, 1.2))
                              for _ in range(n_pairs - len(pairs))])
            f_tab, g_tab, z = draws[:, 0:3].T, draws[:, 3:6].T, draws[:, 6]
            u = _pool(f_tab, z)
            rejected = ((np.abs(_pool(f_tab, z, 1)) < 0.3)
                        | (np.abs(_pool(g_tab, u, 1)) < 0.3)
                        | (np.abs(u) > 2.5))
            pairs = np.concatenate([pairs, draws[~rejected]])
    f_tab, g_tab, z = pairs[:, 0:3].T, pairs[:, 3:6].T, pairs[:, 6]
    f_map = SmoothMap(eval=lambda w: _pool(f_tab, w))
    g_map = SmoothMap(eval=lambda w: _pool(g_tab, w))
    fp = derivative(f_map, 1, z)
    devs = np.abs(schwarzian(compose(g_map, f_map), z)
                  - fp * fp * schwarzian(g_map, f_map.eval(z))
                  - schwarzian(f_map, z))
    return _result("schwarzian_composition", np.max(devs), tolerance)


def _draw_shift(tape: _Tape):
    """(n, eta, x, K) with G(x) + K inside (1e-6, _TARGET_CAP)."""
    while True:
        n = tape.integers(1, 4)
        eta = tape.uniform(0.0, 2.0)
        x = tape.uniform(0.1, 10.0)
        k = tape.uniform(-2.0, 3.0)
        xn = x ** n  # G(x), as PolyG.value computes it, with no PolyG per draw
        if 1e-6 < xn * (1.0 + eta * xn) + k < _TARGET_CAP:
            return n, eta, x, k


def check_translation_property(rng: np.random.Generator, n_samples: int = 400,
                               tolerance: float = 1e-10) -> CheckResult:
    """|G(f(x)) - G(x) - K| stays below the absolute tolerance.

    All samples are drawn first; each degree n then takes one ShiftMap
    with arrays of eta and K.
    """
    with _Tape(rng) as tape:
        n, eta, x, k = np.array([_draw_shift(tape)
                                 for _ in range(n_samples)]).T
    devs = np.empty(n_samples)
    for deg in (1, 2, 3):
        at = n == deg
        g = PolyG(deg, eta[at])
        f = ShiftMap(g, k[at]).f(x[at])
        devs[at] = np.abs(g.value(f) - g.value(x[at]) - k[at])
    return _result("translation_property", np.max(devs), tolerance)


def check_semigroup(rng: np.random.Generator, n_samples: int = 200,
                    tolerance: float = 1e-9) -> CheckResult:
    """f_{K1} o f_{K2} = f_{K1+K2} pointwise.

    All samples are drawn first; each degree n then takes one ShiftMap per
    side with arrays of eta and K.
    """
    with _Tape(rng) as tape:
        n, eta, x, k1, k2 = np.array([
            (tape.integers(1, 4), tape.uniform(0.0, 2.0),
             tape.uniform(0.2, 5.0), tape.uniform(0.0, 2.0),
             tape.uniform(0.0, 2.0))
            for _ in range(n_samples)]).T
    devs = np.empty(n_samples)
    for deg in (1, 2, 3):
        at = n == deg
        g = PolyG(deg, eta[at])
        chained = ShiftMap(g, k1[at]).f(ShiftMap(g, k2[at]).f(x[at]))
        direct = ShiftMap(g, k1[at] + k2[at]).f(x[at])
        devs[at] = np.abs(chained - direct)
    return _result("translation_semigroup", np.max(devs), tolerance)


def check_q_identity(k_values=(0.5, 1.0), tolerance: float = 1e-5,
                     x_lo: float = 0.8, x_hi: float = 3.0,
                     points: int = 12) -> CheckResult:
    """Q(x) = f'^2 Q(f) + {f, x} with Q the Schwarzian of G and {f, x}
    taken by finite differences of the pointwise solver.

    Each degree takes one PolyG and one ShiftMap, with a row of points from
    max(x_lo, x_min + 0.2) per (eta, K) pair and the parameters shaped
    (rows, 1, 1, 1) against the stencil nodes of {f, x}.
    """
    devs = []
    for n, etas in [(1, (0.5, 1.0)), (2, (0.5, 1.0)), (3, (0.5,))]:
        eta, k = np.meshgrid(etas, k_values, indexing="ij")
        g = PolyG(n, eta.reshape(-1, 1, 1, 1))
        shift = ShiftMap(g, k.reshape(-1, 1, 1, 1))
        xs = np.linspace(np.maximum(x_lo, shift.x_min.ravel() + 0.2), x_hi,
                         points, axis=-1)
        at = xs[..., None, None]  # the points with the nodes' two axes
        g_map = g.as_smooth_map()
        f, fp = solve_f(shift, at)
        devs.append(np.max(np.abs(
            schwarzian(g_map, at) - fp * fp * schwarzian(g_map, f)
            - schwarzian(shift.as_smooth_map(), xs)[..., None, None])))
    return _result("q_identity", np.max(devs), tolerance)


def check_linear_coefficient(tolerance: float = 1e-6,
                             points: int = 19) -> CheckResult:
    """The equation's linear coefficient equals -(1/2){G, x}."""
    xs = np.linspace(0.5, 5.0, points)
    devs = [np.abs(linear_coefficient_check(
        GPParams(n=n, eta=eta, b=-1.0, c=1.0), xs)) for n, eta in PARAM_SWEEP]
    return _result("linear_coefficient", np.max(devs), tolerance)


def check_closed_form_residual(c: float = 1.0, v: float = 1.0,
                               x_lo: float = 0.5, x_hi: float = 5.0,
                               points: int = 401,
                               tolerance: float = 1e-7) -> CheckResult:
    """The closed-form amplitude solves the equation under the constraint."""
    xs = np.linspace(x_lo, x_hi, points)
    devs = [np.max(np.abs(closed_form_residual(
        GPParams.constrained(n=n, eta=eta, c=c, v=v), xs)))
        for n, eta in PARAM_SWEEP]
    return _result("closed_form_residual", np.max(devs), tolerance)


def check_constraint_activity(c: float = 1.0, v: float = 1.0,
                              delta: float = 0.01,
                              x_lo: float = 0.5, x_hi: float = 5.0,
                              points: int = 401,
                              tolerance: float = 1e-3) -> CheckResult:
    """Perturbing b off the constraint must visibly break the residual.

    Reversed check: passes when the smallest residual across the sweep is
    still at least the tolerance.
    """
    xs = np.linspace(x_lo, x_hi, points)
    b = -(c * c) / v ** 6 + delta
    devs = [np.max(np.abs(closed_form_residual(
        GPParams(n=n, eta=eta, b=b, c=c, v=v), xs)))
        for n, eta in PARAM_SWEEP]
    return _result("constraint_activity", np.min(devs), tolerance,
                   higher_is_better=True)


def check_fixed_point_for(params: GPParams, k_values=(0.25, 0.5, 1.0),
                          xs=None, tolerance: float = 1e-10) -> float:
    """Worst fixed-point deviation of the closed form over every K, for one
    parameter set or one degree's group of them (an array eta).

    One ShiftMap takes the whole (eta, K) grid and is evaluated on all of xs,
    so an invalid (K, xs) combination surfaces as NoRealRoot or DomainError
    instead of being silently trimmed away; the error raised is the first
    failing (eta, K) pair's. Where is_fixed_point keeps every point, its own
    roots are that evaluation; otherwise the whole grid is probed first.
    """
    xs = np.linspace(0.5, 3.0, 101) if xs is None else np.asarray(xs, float)
    etas = np.reshape(params.eta, (-1, 1, 1))
    ks = np.reshape(np.asarray(k_values, dtype=float), (-1, 1))
    p = GPParams.constrained(n=params.n, eta=etas, c=params.c, v=params.v)
    shift = ShiftMap(p.g, ks)
    bmap, seed = BacklundMap(shift=shift), ClosedFormSolution(p)
    lo, hi = bmap.effective_domain(seed.domain)
    try:
        if not np.all((xs > lo) & (xs < hi)):
            shift.f(xs)
        return is_fixed_point(bmap, seed, xs, tol=tolerance).deviation
    except NumericalError:
        for eta in etas.ravel():
            for k in ks.ravel():
                ShiftMap(PolyG(p.n, float(eta)), float(k)).f(xs)
        raise


def check_fixed_point(k_values=(0.25, 0.5, 1.0), c: float = 1.0,
                      v: float = 1.0, params: GPParams | None = None,
                      xs=None, tolerance: float = 1e-10) -> CheckResult:
    """The closed form is a fixed point of the transformation for every K.

    The configured parameter set (when given) is probed first so its
    failures are the ones reported; the standard sweep follows, one
    degree's etas at a time.
    """
    groups = [GPParams.constrained(n=n, eta=np.array(SWEEP_ETAS), c=c, v=v)
              for n in (1, 2, 3)]
    if params is not None:
        groups.insert(0, params)
    devs = [check_fixed_point_for(p, k_values, xs, tolerance) for p in groups]
    return _result("fixed_point", np.max(devs), tolerance)


def run_identity_checks(rng_seed: int = 0, c: float = 1.0, v: float = 1.0,
                        k_values=(0.25, 0.5, 1.0),
                        params: GPParams | None = None,
                        xs=None) -> list[CheckResult]:
    """The full identity suite in a deterministic order."""
    rng = np.random.default_rng(rng_seed)
    k_values = tuple(k_values) or (0.25, 0.5, 1.0)
    return [
        check_mobius_kernel(rng),
        check_composition_law(rng),
        check_translation_property(rng),
        check_semigroup(rng),
        check_q_identity(k_values=[k for k in k_values if k > 0.0] or (0.5,)),
        check_linear_coefficient(),
        check_closed_form_residual(c=c, v=v),
        check_constraint_activity(c=c, v=v),
        check_fixed_point(k_values=k_values, c=c, v=v, params=params, xs=xs),
    ]
