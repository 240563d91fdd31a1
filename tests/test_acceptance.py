"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured deviation and its tolerance.

Run with -s to see the lines:  pytest tests/test_acceptance.py -v -s
"""

import math

import numpy as np
import pytest

from gpbacklund.backlund import is_fixed_point, transform
from gpbacklund.functional import ShiftMap
from gpbacklund.gp import (ClosedFormSolution, GPParams, LiouvilleSolution,
                           gp_rhs)
from gpbacklund.ode import SecondOrderODE, ToleranceSpec, integrate, residual_max
from gpbacklund.verify import (check_closed_form_residual,
                               check_composition_law,
                               check_constraint_activity, check_fixed_point,
                               check_linear_coefficient, check_mobius_kernel,
                               check_q_identity, check_semigroup,
                               check_translation_property)

SEED_TOL = ToleranceSpec(atol=1e-10, rtol=1e-10)
K_VALUES = (0.25, 0.5, 1.0)
MAPPING_SWEEP = [(n, eta) for n in (1, 2) for eta in (0.0, 0.5, 1.0)]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")


def report_check(criterion: str, result) -> None:
    cmp = ">=" if result.higher_is_better else "<"
    report(criterion, result.passed,
           f"{result.name} deviation {result.deviation:.3e} {cmp} "
           f"tolerance {result.tolerance:.0e}")


@pytest.fixture(scope="module")
def generic_seeds():
    """Generic (non-fixed-point) integrated seeds per (n, eta), tol 1e-10."""
    seeds = {}
    for n, eta in MAPPING_SWEEP:
        p = GPParams.constrained(n=n, eta=eta, c=1.0, v=1.0)
        exact = ClosedFormSolution(p)
        cover_hi = float(ShiftMap(p.g, max(K_VALUES)).f(2.3)) + 0.05
        dense = LiouvilleSolution(
            p, 1.0,
            1.12 * float(exact.value(1.0)),
            1.12 * float(exact.derivative(1.0)),
            1.0, cover_hi, SEED_TOL)
        seeds[(n, eta)] = (p, dense)
    return seeds


def test_criterion_1_schwarzian_kernel():
    result = check_mobius_kernel(np.random.default_rng(0))
    report_check("1 (Schwarzian kernel)", result)
    assert result.passed and result.tolerance == 1e-7


def test_criterion_2_composition_law():
    result = check_composition_law(np.random.default_rng(1))
    report_check("2 (composition law)", result)
    assert result.passed and result.tolerance == 1e-6


def test_criterion_3_translation_property():
    rng = np.random.default_rng(2)
    trans = check_translation_property(rng)
    semi = check_semigroup(rng)
    report("3 (translation property)", trans.passed and semi.passed,
           f"translation deviation {trans.deviation:.3e} < 1e-10, "
           f"semigroup deviation {semi.deviation:.3e} < 1e-9")
    assert trans.passed and trans.tolerance == 1e-10
    assert semi.passed and semi.tolerance == 1e-9


def test_criterion_4_q_identity():
    result = check_q_identity(k_values=K_VALUES)
    report_check("4 (Q-identity)", result)
    assert result.passed and result.tolerance == 1e-5


def test_criterion_5_linear_coefficient():
    result = check_linear_coefficient()
    report_check("5 (linear coefficient)", result)
    assert result.passed and result.tolerance == 1e-6


def test_criterion_6_closed_form_solution():
    solves = check_closed_form_residual(c=1.0, v=1.0)
    active = check_constraint_activity(c=1.0, v=1.0)
    report("6 (closed-form solution)", solves.passed and active.passed,
           f"residual {solves.deviation:.3e} < 1e-7 under the constraint, "
           f">= {active.deviation:.3e} with b perturbed by 0.01")
    assert solves.passed and solves.tolerance == 1e-7
    assert active.passed and active.tolerance == 1e-3


def test_criterion_7_solution_mapping(generic_seeds):
    worst = 0.0
    for (n, eta), (p, dense) in generic_seeds.items():
        ode = gp_rhs(p)
        for k in K_VALUES:
            shift = ShiftMap(p.g, k)
            grid = transform(shift, dense, np.linspace(1.0, 2.3, 4001))
            worst = max(worst, residual_max(ode, grid))
    ok = worst < 1e-5
    report("7 (solution mapping)", ok,
           f"transformed residual max {worst:.3e} < 1e-5 over "
           f"(n, eta) in {{1,2}}x{{0,0.5,1}}, K in {K_VALUES}")
    assert ok


def test_criterion_8_fixed_point(generic_seeds):
    closed = check_fixed_point(GPParams.constrained(n=1, eta=1.0, c=1.0),
                               K_VALUES, np.linspace(0.5, 3.0, 101))
    generic_floor = math.inf
    for (n, eta), (p, dense) in generic_seeds.items():
        for k in K_VALUES:
            shift = ShiftMap(p.g, k)
            grid = transform(shift, dense, np.linspace(1.0, 2.3, 201))
            res = is_fixed_point(dense.eval_with_derivative(grid.xs)[0],
                                 grid.r0_f, grid.f_prime)
            assert not res.is_fixed
            generic_floor = min(generic_floor, res.deviation)
    ok = closed.passed and generic_floor > 1e-2
    report("8 (fixed point)", ok,
           f"closed-form deviation {closed.deviation:.3e} < 1e-10, "
           f"generic deviation >= {generic_floor:.3e} > 1e-2")
    assert closed.passed and closed.tolerance == 1e-10
    assert generic_floor > 1e-2


def test_criterion_9_boundedness():
    worst_rel = 0.0
    for n in (1, 2, 3):
        p = GPParams.constrained(n=n, eta=0.0, c=1.0, v=1.0)
        r = ClosedFormSolution(p, warn=False).value
        # r(x) ~ v x^(-(n-1)/2) as x -> 0+: bounded at the origin iff n <= 1
        assert (r(1e-6) == pytest.approx(r(1e-2))) == (n <= 1)
        worst_rel = max(worst_rel,
                        abs(r(1e-4) / r(1e-2) / 10.0 ** (n - 1) - 1.0))
    ok = worst_rel < 1e-6
    report("9 (boundedness at the origin)", ok,
           f"amplitude ratio r(1e-4)/r(1e-2) matches 10^(n-1) to "
           f"{worst_rel:.3e} relative; bounded iff n <= 1")
    assert ok


def test_criterion_10_integrator_order():
    """Four periods of the sine oracle r = 2 + sin(x), every step bounded by
    max_step at a tolerance that never binds."""
    x0, span = 0.01, 8.0 * math.pi
    errs, steps = [], []
    for k in range(8):
        sine = SecondOrderODE(rhs=lambda x, r: 2.0 - r, domain=(1e-3, 100.0),
                              max_step=span / (16.0 * 1.25 ** k))
        dense = integrate(sine, x0, 2.0 + math.sin(x0), math.cos(x0),
                          x0 + span, ToleranceSpec(atol=1e-2, rtol=1e-2))
        errs.append(abs(dense.rs[-1] - 2.0 - math.sin(x0 + span)))
        steps.append(span / dense.meta["steps"])
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ok = 7.0 <= slope <= 9.0
    report("10 (integrator order)", ok,
           f"error vs mean step slope {slope:.2f} in [7, 9] on the sine "
           f"oracle")
    assert ok
