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
# the swept etas as a column, one row each against a row of points
_ETA_ROWS = np.array(SWEEP_ETAS)[:, None]

# double-precision floor of the absolute translation criterion: the computed
# residual G(f) - G(x) - K cannot beat ~eps * |G| however exact the root is
_TARGET_CAP = 5e4

# raw generator outputs a _Tape draws at a time: the Mobius kernel's draws
# and their lookahead take up to about 7,700, every other check under 3,000
# with the rows it decodes ahead of those it keeps
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
    ``uinteger``). ``records`` decodes a run of fixed-pattern draws in one
    array pass, and ``peek`` shows the next uniforms without drawing them.
    ``pos`` counts the raw outputs drawn; moving it back un-draws uniforms.
    ``close`` leaves the generator where the same calls made on it would
    have left it.
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
        self._units = np.empty(0)  # _raw as uniform(0, 1) draws, for peek
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
        units = self.peek(size)
        self.pos += size
        return lo + (hi - lo) * units

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

    def peek(self, size: int) -> np.ndarray:
        """The next ``size`` values of ``uniform(0, 1)``, not drawn."""
        self._reserve(size)
        if self._units.size != self._raw.size:
            self._units = (self._raw >> 11) * 2.0 ** -53
        return self._units[self.pos:self.pos + size]

    def records(self, lo: int, hi: int, ranges, count: int,
                accept=None) -> np.ndarray:
        """``count`` rows, each ``integers(lo, hi)`` then one
        ``uniform(a, b)`` per ``(a, b)`` in ``ranges``, drawn in that order.

        With ``accept``, a function of a table of rows returning a mask, a
        row failing it is drawn and discarded. Rows are decoded a batch at
        a time: the integer of each takes a 32-bit half from the buffer or
        from a fresh raw output by turns, so every row's place in the block
        follows from its index and the starting buffer. A row whose half
        Lemire's draw rejects is drawn by ``integers`` and ``uniform``,
        then batches resume.
        """
        span, m = hi - lo, len(ranges)
        if not 2 <= span < 2 ** 32:
            raise ValueError(f"integer range {span} is not a 32-bit range")
        threshold = (2 ** 32 - span) % span
        low, high = np.array(ranges, dtype=float).reshape(m, 2).T
        kept, need = [], count
        while need:
            # a filter that keeps most rows is met in one batch
            size = need if accept is None else 2 * need + 16
            buffered = int(self._has_upper)
            # i counts rows from the first that draws a raw output for its
            # integer; two rows share that output's halves, low then high.
            # Places in the block count from pos.
            i = np.arange(-buffered, size - buffered)
            pair, odd = np.divmod(i, 2)
            word = buffered * m + pair * (2 * m + 1)  # the integer's output
            first = word + 1 + odd * m  # the row's first uniform
            units = self.peek(int(first[-1]) + m)
            bits = self._raw[self.pos + np.maximum(word, 0)]
            half = np.where(odd, bits >> 32, bits & 0xFFFFFFFF)
            if buffered:
                half[0] = self._upper
            product = half * np.uint64(span)
            rejected = np.flatnonzero((product & 0xFFFFFFFF) < threshold)
            stop = int(rejected[0]) if rejected.size else size
            rows = np.empty((stop, 1 + m))
            rows[:, 0] = (product[:stop] >> 32).astype(np.int64) + lo
            rows[:, 1:] = low + (high - low) * units[first[:stop, None]
                                                     + np.arange(m)]
            taken = (np.arange(stop) if accept is None
                     else np.flatnonzero(accept(rows)))[:need]
            last = int(taken[-1]) if taken.size == need else stop - 1
            if last >= 0:  # leave the tape after row `last`
                self.pos += int(first[last]) + m
                self._has_upper = not odd[last]
                if i[last] >= 0:
                    self._upper = int(bits[last] >> 32)
            kept.append(rows[taken])
            need -= taken.size
            if need and stop < size:
                row = np.array([[self.integers(lo, hi),
                                 *(self.uniform(a, b) for a, b in ranges)]])
                if accept is None or accept(row)[0]:
                    kept.append(row)
                    need -= 1
        return np.concatenate(kept)


def random_mobius_with_points(tape: _Tape, n_points: int):
    """Coefficients (a, b, c, d) of a well-conditioned random Mobius map,
    with evaluation points.

    Conditioning: |det| >= 0.5, moderate denominator, and unit distance from
    the pole (differencing any map is hopeless against the pole's factorial
    derivative growth). Maps admitting no such points within 60 draws per
    point are redrawn. The tape advances exactly as with one draw per
    point, stopping at the draw that completes the set.
    """
    while True:
        # the coefficients and the points that could follow them, undrawn
        u = tape.peek(4 + 60 * n_points)
        a, b, c, d = (-1.5 + 3.0 * u[:4]).tolist()
        if abs(a * d - b * c) < 0.5:
            tape.pos += 4
            continue
        z = -2.0 + 4.0 * u[4:]
        denom = np.abs(c * z + d)
        hits = np.flatnonzero((max(0.7, abs(c)) <= denom) & (denom <= 2.0))
        if hits.size >= n_points:
            tape.pos += 4 + int(hits[n_points - 1]) + 1
            return (a, b, c, d), z[hits[:n_points]]
        tape.pos += u.size


def check_mobius_kernel(rng: np.random.Generator, n_maps: int = 100,
                        n_points: int = 10,
                        tolerance: float = 1e-7) -> CheckResult:
    """Finite-difference Schwarzian of fractional linear maps vanishes.

    All maps are drawn first; one Schwarzian call then takes every map's
    points as one row of a (maps, points) array.
    """
    with _Tape(rng) as tape:
        coef, points = zip(*(random_mobius_with_points(tape, n_points)
                             for _ in range(n_maps)))
    # one map per row: the coefficients broadcast over the points and the
    # two stencil axes of the finite differences
    m = Mobius(*np.array(coef).T.reshape(4, n_maps, 1, 1, 1))
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
    _, p, q = table.reshape(table.shape + (1,) * (np.ndim(z) - 1))
    out = np.empty(np.broadcast_shapes(p.shape, np.shape(z)))
    for k, pair in enumerate(_POOL):
        at = table[0] == k  # each kind on its own rows only
        out[at] = pair[order](p[at], q[at], z[at])
    return out


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


def _in_target(rows: np.ndarray) -> np.ndarray:
    """Which rows (n, eta, x, K) have G(x) + K inside (1e-6, _TARGET_CAP)."""
    n, eta, x, k = rows.T
    # x^n by Python's float pow, as PolyG.value computes it for one float
    # x: numpy's array pow can differ in the last bit
    xn = np.array(list(map(pow, x.tolist(), n.tolist())))
    t = xn * (1.0 + eta * xn) + k
    return (1e-6 < t) & (t < _TARGET_CAP)


def check_translation_property(rng: np.random.Generator, n_samples: int = 400,
                               tolerance: float = 1e-10) -> CheckResult:
    """|G(f(x)) - G(x) - K| stays below the absolute tolerance.

    All samples are drawn first, an (n, eta, x, K) row at a time with rows
    outside the target discarded; each degree n then takes one ShiftMap
    with arrays of eta and K.
    """
    with _Tape(rng) as tape:
        n, eta, x, k = tape.records(
            1, 4, [(0.0, 2.0), (0.1, 10.0), (-2.0, 3.0)], n_samples,
            accept=_in_target).T
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
        n, eta, x, k1, k2 = tape.records(
            1, 4, [(0.0, 2.0), (0.2, 5.0), (0.0, 2.0), (0.0, 2.0)],
            n_samples).T
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
    """The equation's linear coefficient equals -(1/2){G, x}.

    Each degree takes one call, with a row of points per swept eta.
    """
    xs = np.linspace(0.5, 5.0, points)
    devs = [np.max(np.abs(linear_coefficient_check(
        GPParams(n=n, eta=_ETA_ROWS, b=-1.0, c=1.0), xs))) for n in (1, 2, 3)]
    return _result("linear_coefficient", np.max(devs), tolerance)


def check_closed_form_residual(c: float = 1.0, v: float = 1.0,
                               x_lo: float = 0.5, x_hi: float = 5.0,
                               points: int = 401,
                               tolerance: float = 1e-7) -> CheckResult:
    """The closed-form amplitude solves the equation under the constraint.

    Each degree takes one call, with a row of points per swept eta.
    """
    xs = np.linspace(x_lo, x_hi, points)
    devs = [np.max(np.abs(closed_form_residual(
        GPParams.constrained(n=n, eta=_ETA_ROWS, c=c, v=v), xs)))
        for n in (1, 2, 3)]
    return _result("closed_form_residual", np.max(devs), tolerance)


def check_constraint_activity(c: float = 1.0, v: float = 1.0,
                              delta: float = 0.01,
                              x_lo: float = 0.5, x_hi: float = 5.0,
                              points: int = 401,
                              tolerance: float = 1e-3) -> CheckResult:
    """Perturbing b off the constraint must visibly break the residual.

    Reversed check: passes when the smallest residual across the sweep is
    still at least the tolerance. Each degree takes one call, with a row
    of points per swept eta.
    """
    xs = np.linspace(x_lo, x_hi, points)
    b = -(c * c) / v ** 6 + delta
    devs = [np.max(np.abs(closed_form_residual(
        GPParams(n=n, eta=_ETA_ROWS, b=b, c=c, v=v), xs)), axis=-1)
        for n in (1, 2, 3)]
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
