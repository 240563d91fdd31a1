"""Per-layer attribution by wrapping the package's public functions.

Each wrapped name is installed on its defining module and on every package
module that imported it by name (``from .x import y``), and methods are
patched on their class. Every call records a count and its inclusive and
self time; calls of the ``SPANS`` names also record a span (name, start,
end, parent span, command). Hot scalar functions only aggregate. Spans stay
in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("config", "cli", "ode", "functional", "backlund", "gp", "calculus",
          "verify")

CHECKS = ("mobius_kernel", "composition_law", "translation_property",
          "semigroup", "q_identity", "linear_coefficient",
          "closed_form_residual", "constraint_activity", "fixed_point")

# Every wrapped name, with the workloads meant to exercise it. Public names
# that no workload calls (Mobius.compose, apply_mobius, conjugate_f, ...)
# are left unwrapped.
WRAPPED = {
    "config.load_config": ("orbit", "verify", "wave"),
    "config.parse_config_text": ("orbit", "verify", "wave"),
    "config.build_config": ("orbit", "verify", "wave"),
    "cli.main": ("orbit", "verify", "wave"),
    "cli.cmd_solve": ("orbit",),
    "cli.cmd_transform": ("orbit",),
    "cli.cmd_verify": ("verify",),
    "cli.cmd_wavefunction": ("wave",),
    "cli.write_solution_csv": ("orbit",),
    "ode.integrate_span": ("orbit", "wave"),
    "ode.integrate": ("orbit", "wave"),
    "ode.sample": ("orbit",),
    "ode.residual": ("orbit",),
    "ode.residual_max": ("orbit",),
    "ode.DenseSolution.evaluate": ("orbit", "wave"),
    "functional.ShiftMap.f": ("orbit", "verify"),
    "functional.ShiftMap.f_prime": ("orbit", "verify"),
    "functional.ShiftMap.f_second": ("orbit",),
    "functional.ShiftMap.as_smooth_map": ("verify",),
    "functional.solve_f": ("verify",),
    # the finite-difference stencils of calculus evaluate these through
    # SmoothMap fields; wrapping them on the class keeps that time in
    # functional rather than in the calling stencil
    "functional.PolyG.value": ("orbit", "verify"),
    "functional.PolyG.prime": ("orbit", "verify"),
    "functional.PolyG.second": ("orbit", "verify"),
    "functional.PolyG.third": ("verify",),
    "functional.PolyG.inverse": ("orbit",),
    "functional.PolyG.as_smooth_map": ("verify",),
    "functional.Mobius.__call__": ("verify",),
    "functional.Mobius.as_smooth_map": ("verify",),
    "backlund.orbit": ("orbit",),
    "backlund.transform": ("orbit",),
    "backlund.is_fixed_point": ("orbit", "verify"),
    "gp.gp_rhs": ("orbit", "wave"),
    "gp.closed_form_residual": ("orbit", "verify"),
    "gp.linear_coefficient_check": ("verify",),
    "gp.phase": ("wave",),
    # verify's stencil weights come from a cache filled before tracing
    "calculus.fd_weights": ("orbit",),
    "calculus.default_stencil": ("verify",),
    "calculus.derivative": ("verify",),
    "calculus.schwarzian": ("verify",),
    "calculus.compose": ("verify",),
    "verify.run_identity_checks": ("verify",),
    "verify.random_mobius_with_points": ("verify",),
    "verify.check_fixed_point_for": ("verify",),
    **{f"verify.check_{name}": ("verify",) for name in CHECKS},
}

# Layer boundaries that record a span per call; the rest only aggregate.
SPANS = {"cli.main", "cli.cmd_solve", "cli.cmd_transform", "cli.cmd_verify",
         "cli.cmd_wavefunction", "config.load_config", "ode.integrate_span",
         "ode.sample", "ode.residual_max", "backlund.orbit",
         "backlund.transform", "gp.phase", "verify.run_identity_checks",
         *(f"verify.check_{c}" for c in CHECKS)}

# (name, index of the argument whose size is the number of points)
_POINTS_ARG = {"ode.DenseSolution.evaluate": 1, "functional.ShiftMap.f": 1,
               "gp.phase": 1, "backlund.transform": 2}


class Stat:
    __slots__ = ("calls", "points", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.points = 0
        self.total_s = 0.0
        self.child_s = 0.0


class Tracer:
    """Wraps the package in place; ``uninstall`` restores every attribute."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple] = []
        self.command = None
        self.active: dict[str, int] = defaultdict(int)
        self.rhs_calls = 0
        self.steps = 0
        self.kept_points = 0
        self.phase_points_evaluated = 0
        self.residual_worst = 0.0
        self.deviation: dict[str, float] = {}
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"gpbacklund.{name}")
                   for name in LAYERS}
        package = [m for n, m in sys.modules.items()
                   if n == "gpbacklund" or n.startswith("gpbacklund.")]
        for name in WRAPPED:
            layer, *path = name.split(".")
            owner = modules[layer]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, path[-1])
            wrapper = self._wrap(name, original)
            self._set(owner, path[-1], wrapper)
            if inspect.isclass(owner):
                continue
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        span = name in SPANS
        points_arg = _POINTS_ARG.get(name)
        after = _AFTER.get(name)
        stack, active, spans = self._stack, self.active, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, len(spans) if span else None]
            if span:
                spans.append(None)
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                active[name] -= 1
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.child_s += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    parent = next((f[1] for f in reversed(stack)
                                   if f[1] is not None), None)
                    spans[frame[1]] = (name, start, start + elapsed, parent,
                                       self.command)
            if points_arg is not None:
                n = int(np.size(args[points_arg]))
                stat.points += n
                if name == "ode.DenseSolution.evaluate" and active["gp.phase"]:
                    self.phase_points_evaluated += n
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def count_rhs(self, rhs):
        """The ODE right-hand side, counting calls made inside integrate."""
        active = self.active

        def counted(x, r):
            if active["ode.integrate"]:
                self.rhs_calls += 1
            return rhs(x, r)

        return counted

    def layer_self_s(self, layer: str) -> float:
        return sum(s.total_s - s.child_s for n, s in self.stats.items()
                   if n.split(".", 1)[0] == layer)

    def dump(self) -> list[dict]:
        return [{"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "command": command}
                for i, (name, start, end, parent, command)
                in enumerate(self.spans)]


def _after_gp_rhs(tracer: Tracer, args, ode):
    # ``gp_rhs`` builds the ODE; count the calls its rhs receives.
    object.__setattr__(ode, "rhs", tracer.count_rhs(ode.rhs))


def _after_integrate(tracer: Tracer, args, dense):
    tracer.steps += dense.xs.size - 1


def _after_transform(tracer: Tracer, args, grid):
    tracer.kept_points += len(grid)


def _after_residual_max(tracer: Tracer, args, value):
    tracer.residual_worst = max(tracer.residual_worst, value)


def _after_check(name: str):
    def after(tracer: Tracer, args, result):
        worst = tracer.deviation.get(name)
        if worst is None:
            worst = result.deviation
        elif result.higher_is_better:
            worst = min(worst, result.deviation)
        else:
            worst = max(worst, result.deviation)
        tracer.deviation[name] = worst
    return after


_AFTER = {"gp.gp_rhs": _after_gp_rhs, "ode.integrate": _after_integrate,
          "backlund.transform": _after_transform,
          "ode.residual_max": _after_residual_max,
          **{f"verify.check_{c}": _after_check(c) for c in CHECKS}}


def rhs_per_attempt(ode_module) -> float:
    """rhs calls per attempted step of the package's integrator, measured
    on r'' = 0, where every step is accepted, taking one extra call per
    integration for the initial point."""
    calls = 0

    def rhs(x, r):
        nonlocal calls
        calls += 1
        return 0.0

    ode = ode_module.SecondOrderODE(rhs=rhs, domain=(1e-3, 1e3))
    dense = ode_module.integrate(ode, 1.0, 1.0, 1.0, 2.0)
    return (calls - 1) / (dense.xs.size - 1)
