import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gpbacklund
from gpbacklund import cli
from gpbacklund import gp as gp_module
from gpbacklund import ode as ode_module
from gpbacklund.backlund import _pull_back, is_fixed_point
from gpbacklund.cli import _write_rows, main, write_solution_csv
from gpbacklund.config import load_config, parse_config_text
from gpbacklund.errors import ConstraintViolated, NonFinite
from gpbacklund.functional import ShiftMap
from gpbacklund.gp import GPParams, gp_rhs
from gpbacklund.ode import SolutionGrid, residual_max

CLOSED_FORM_CFG = """
params.n = 1
params.eta = 0.0
params.b = -1.0
params.c = 1.0
params.v = 1.0
grid.x_min = 1.0
grid.x_max = 3.0
grid.points = 201
seed.kind = closed_form
k_schedule = 2.0
"""

INTEGRATE_CFG = """
params.n = 1
params.eta = 1.0
params.b = -1.0
params.c = 1.0
grid.x_min = 1.0
grid.x_max = 2.3
grid.points = 4001
seed.kind = integrate
seed.x0 = 1.0
seed.r0 = 0.664
seed.rp0 = -0.2214
k_schedule = 0.5
tolerances.residual_pass = 1e-5
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_closed_form_constant(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        rs = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.allclose(rs, 1.0, rtol=0, atol=1e-15)
        assert "residual max" in capsys.readouterr().out

    def test_integrated_matches_closed_form(self, tmp_path):
        # start exactly on the closed form: integration must stay on it
        text = INTEGRATE_CFG.replace("seed.r0 = 0.664",
                                     f"seed.r0 = {1 / math.sqrt(3.0)!r}")
        text = text.replace("seed.rp0 = -0.2214",
                            f"seed.rp0 = {-3.0 ** -1.5!r}")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        xs, rs, _ = np.loadtxt(tmp_path / "solution.csv", delimiter=",",
                               skiprows=1).T
        assert np.max(np.abs(rs - 1.0 / np.sqrt(1.0 + 2.0 * xs))) < 1e-6

    def test_grid_too_small_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace(
            "grid.points = 201", "grid.points = 3"))
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "grid too small" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_nan_param_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace(
            "params.eta = 0.0", "params.eta = nan"))
        assert main(["solve", "--config", cfg, "--out-dir",
                     str(tmp_path / "out")]) == 2
        assert ":3: bad value for 'params.eta'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, name, command", [
    ("solution_csv", "missing/sol.csv", "solve"),
    ("solution_csv", "../sol.csv", "solve"),
    ("solution_csv", "", "transform"),
    ("solution_csv", ".", "solve"),
    ("wave_csv", "..", "wavefunction"),
    ("wave_csv", "{tmp}/wave.csv", "wavefunction"),
    ("report_json", "report\0.json", "verify"),
])
def test_output_name_that_is_not_a_file_name_exits_2(tmp_path, capsys, key,
                                                    name, command):
    """outputs.* name files in --out-dir: a name that is not one plain path
    component exits 2 and names its key, where it raised or wrote outside
    --out-dir."""
    name = name.format(tmp=tmp_path)
    cfg = write_cfg(tmp_path, CLOSED_FORM_CFG + f"outputs.{key} = {name}\n")
    assert main([command, "--config", cfg, "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert (f"config error: outputs.{key} must be a plain file name in "
            f"--out-dir, got {name!r}" in capsys.readouterr().err)
    assert [p.name for p in tmp_path.rglob("*")] == ["exp.cfg"]


@pytest.mark.parametrize("sub, reason", [("", "File exists"),
                                         ("sub", "Not a directory")])
def test_out_dir_that_cannot_be_created_exits_2(tmp_path, capsys, sub,
                                                reason):
    """An --out-dir that is a file, or lies under one, exits 2 naming it,
    where creating it raised."""
    cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
    (tmp_path / "taken").write_text("")
    out = tmp_path / "taken" / sub
    assert main(["solve", "--config", cfg, "--out-dir", str(out)]) == 2
    assert (f"config error: cannot create --out-dir {out}: {reason}"
            in capsys.readouterr().err)


OVERFLOW_CFG = CLOSED_FORM_CFG.replace("params.eta = 0.0",
                                      "params.eta = 1e300")
OVERFLOW_N2_CFG = OVERFLOW_CFG.replace("params.n = 1", "params.n = 2").replace(
    "grid.x_max = 3.0", "grid.x_max = 1000.0")


class TestOverflowingParams:
    """eta = 1e300 is finite, so the config accepts it; what overflows
    downstream must still exit 3 and leave no CSV behind."""

    def run_exit_3(self, tmp_path, capsys, command, text):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, text)
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
        assert "NonFinite" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_solve_nan_residual(self, tmp_path, capsys):
        self.run_exit_3(tmp_path, capsys, "solve", OVERFLOW_CFG.replace(
            "grid.x_min = 1.0", "grid.x_min = 0.5"))

    def test_solve_overflowing_shape(self, tmp_path, capsys):
        self.run_exit_3(tmp_path, capsys, "solve", OVERFLOW_N2_CFG)

    def test_wavefunction_overflowing_shape(self, tmp_path, capsys):
        self.run_exit_3(tmp_path, capsys, "wavefunction", OVERFLOW_N2_CFG)

    def test_writer_refuses_non_finite_rows(self, tmp_path):
        grid = SolutionGrid(xs=[1.0, 2.0], rs=[1.0, math.nan], rps=[0.0, 0.0])
        with pytest.raises(NonFinite):
            write_solution_csv(tmp_path / "nan.csv", grid)
        assert not (tmp_path / "nan.csv").exists()


SHIPPED_FIXED_POINT = (Path(__file__).resolve().parents[1] / "configs"
                       / "fixed_point.cfg").read_text()
V_BIG_CFG = CLOSED_FORM_CFG.replace("params.v = 1.0", "params.v = 1e60")


def far_seed_cfg(n, x_max):
    return (INTEGRATE_CFG
            .replace("params.n = 1", f"params.n = {n}")
            .replace("grid.x_max = 2.3", f"grid.x_max = {x_max}")
            .replace("grid.points = 4001", "grid.points = 201")
            .replace("seed.r0 = 0.664", "seed.r0 = 0.5")
            .replace("seed.rp0 = -0.2214", "seed.rp0 = 0.0"))


@pytest.mark.parametrize("command, text", [
    ("solve", OVERFLOW_CFG.replace("grid.x_min = 1.0", "grid.x_min = 0.5")),
    ("solve", OVERFLOW_N2_CFG),
    ("wavefunction", OVERFLOW_N2_CFG),
    # a finite K whose target G(x) + K overflows G's inverse
    ("transform", SHIPPED_FIXED_POINT.replace("k_schedule = 0.5, 0.5",
                                              "k_schedule = 1e308")),
    # b v^6 + c^2 = -inf: the closed form solves no equation
    ("solve", V_BIG_CFG),
    ("wavefunction", V_BIG_CFG),
    # G(1e200) overflows for n = 2, so no seed is integrated in t = G(x)
    ("solve", far_seed_cfg(2, "1e200")),
    ("transform", far_seed_cfg(2, "1e200")),
    ("wavefunction", far_seed_cfg(2, "1e200")),
], ids=["solve_nan_residual", "solve_overflowing_shape",
        "wavefunction_overflowing_shape", "transform_overflowing_target",
        "solve_v_1e60", "wavefunction_v_1e60", "solve_far_seed",
        "transform_far_seed", "wavefunction_far_seed"])
def test_overflow_exits_3_with_warnings_as_errors(tmp_path, capsys, command,
                                                   text):
    """The overflowing runs fail closed without a floating-point warning,
    so they still exit 3 where every warning is an error."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
    assert "NonFinite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


# Finite magnitudes whose powers overflow a Python float: v^6 in the
# constraint b v^6 + c^2 and G at a far grid edge. They must give exit
# codes, not tracebacks.
@pytest.mark.parametrize("command, text, code", [
    # b v^6 = -inf: the closed form solves no equation, so every command
    # that builds it refuses it
    ("solve", V_BIG_CFG, 3),
    ("transform", V_BIG_CFG, 3),
    ("wavefunction", V_BIG_CFG, 3),
    ("verify", V_BIG_CFG, 3),
    ("verify", CLOSED_FORM_CFG.replace("params.v = 1.0", "params.v = 1e-60"),
     3),
    ("transform", CLOSED_FORM_CFG.replace("params.n = 1", "params.n = 3")
     .replace("grid.x_max = 3.0", "grid.x_max = 1e200"), 3),
], ids=["solve_v_1e60", "transform_v_1e60", "wavefunction_v_1e60",
        "verify_v_1e60", "verify_v_1e-60", "transform_far_grid_edge"])
@pytest.mark.filterwarnings("ignore::gpbacklund.errors.ConstraintViolated")
def test_overflowing_powers_exit_cleanly(tmp_path, command, text, code):
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out-dir",
                 str(tmp_path / "out")]) == code


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _shipped(name, old, new):
    text = (CONFIGS / name).read_text()
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
def test_overflowing_period_exits_3(tmp_path, capsys, command):
    """With eta = 1e300, G(x) stays finite but E - E_min of the seed's
    orbit in t overflows, where a Python float's ** raised: the seed fails
    closed with exit 3 and names the overflow."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, _shipped("generic_seed.cfg", "params.eta = 1.0",
                                       "params.eta = 1e300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
    assert ("NonFinite: [seed integration] E - E_min in t = G(x) overflows "
            "at rho = 9.33381e+149" in capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
@pytest.mark.filterwarnings("ignore::gpbacklund.errors.ConstraintViolated")
def test_underflowing_closed_form_exits_3(tmp_path, capsys, command):
    """With v = 5e-324 the closed form's amplitude v/sqrt(s) is 0: every
    command that reads it exits 3 and names v, where building a grid of it
    raised ValueError and the phase divided by v^2 = 0."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, _shipped("fixed_point.cfg", "params.v = 1.0",
                                       "params.v = 5e-324"))
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
    assert ("the closed-form amplitude v/sqrt(s) underflows to 0 for "
            "v=4.94066e-324" in capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
def test_tolerance_underflowing_in_t_exits_2(tmp_path, capsys, command):
    """Seeds are integrated in t at the tolerances divided by 60, and
    5e-324 / 60 is 0: the run exits 2 and names the tolerances, where
    building the t-frame tolerances raised ValueError."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, _shipped("generic_seed.cfg",
                                       "tolerances.ode_abs = 1e-10",
                                       "tolerances.ode_abs = 5e-324"))
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert ("config error: tolerances.ode_abs = 4.94066e-324 or ode_rel = "
            "1e-10 underflows to 0 divided by 60, as seeds are integrated "
            "in t" in capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
def test_tiny_tolerances_fail_the_step_and_exit_3(tmp_path, capsys, command):
    """At ode_abs = ode_rel = 1e-300 the scaled error of an ordinary step
    passes 1e154, where squaring a float with ** raised OverflowError: its
    square overflows to inf instead, the attempt is rejected, and the step
    shrinks until it underflows."""
    out = tmp_path / "out"
    text = _shipped("generic_seed.cfg", "tolerances.ode_abs = 1e-10",
                    "tolerances.ode_abs = 1e-300")
    cfg = write_cfg(tmp_path, text.replace("tolerances.ode_rel = 1e-10",
                                           "tolerances.ode_rel = 1e-300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
    assert "StepSizeUnderflow: [seed integration]" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("v, what", [("5e-324", "0"), ("1e300", "inf")])
def test_verify_with_an_extreme_v_names_it(tmp_path, capsys, v, what):
    """The verify sweeps fix b = -c^2/v^6, which is not finite where v^6
    underflows to 0 or overflows: verify exits 3 and names v, where it
    warned that b v^6 + c^2 = nan and, for v = 1e300, blamed the seed or
    f'."""
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, _shipped("fixed_point.cfg", "params.v = 1.0",
                                       f"params.v = {v}"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", cfg, "--out-dir", str(out)]) == 3
    assert not [w for w in caught if "nan" in str(w.message)]
    assert (f"NonFinite: [verify] b = -c^2/v^6 is not finite: v^6 = {what} "
            f"for v={float(v):g}" in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
@pytest.mark.parametrize("name", ["pinney_seed.cfg", "generic_seed.cfg"])
def test_integrated_seed_below_the_x_floor_exits_2(tmp_path, capsys, name,
                                                   command):
    """An integrated seed starts no nearer x = 0 than 2e-8: a grid that
    starts below it exits 2 and names grid.x_min, where the Pinney seed
    raised ValueError and the generic seed blamed the sampling."""
    text = _shipped(name, "grid.x_min = 1.0", "grid.x_min = 1e-8")
    if name == "pinney_seed.cfg":
        text = text.replace("seed.x0 = 1.6", "seed.x0 = 1.5e-8")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
    assert ("config error: grid.x_min = 1e-08 lies below 2e-08, the least x "
            "of an integrated seed" in capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


def test_far_integrated_seed_exhausts_the_step_budget(tmp_path, capsys):
    """Integrating towards x = 1e100, t = G(x) = 1e200, exits 3 once the
    integrator's attempt budget is spent, instead of stepping until it is
    killed; the message says that its x is t, the variable it integrates
    in."""
    cfg = write_cfg(tmp_path, far_seed_cfg(1, "1e100"))
    assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert ("StepBudgetExhausted: [seed integration] seed integrated in "
            "t = G(x) (x here is t): 100000 attempted steps reached only x="
            in err)
    assert "of x_end=1e+200" in err
    assert not (tmp_path / "solution.csv").exists()


def test_seed_over_hundreds_of_periods_folds(tmp_path):
    """A seed spanning 273 periods of t at tolerance 1e-12 is read from
    its stretch of 1.05 periods (1,060 nodes). A table tiled over the span
    would hold one image of each node per period, past the integrator's
    step budget, and integrating the span instead spent that budget."""
    text = (far_seed_cfg(4, "2.183")
            .replace("params.eta = 1.0", "params.eta = 1.976")
            .replace("params.b = -1.0", "params.b = -0.424")
            .replace("params.c = 1.0", "params.c = 1.091")
            .replace("grid.x_min = 1.0", f"grid.x_min = {1 / 3!r}")
            .replace("seed.x0 = 1.0", f"seed.x0 = {1 / 3!r}")
            + "tolerances.ode_abs = 1e-12\ntolerances.ode_rel = 1e-12\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1)
    assert table.shape == (201, 3) and np.all(np.isfinite(table))


@pytest.mark.parametrize("command", ["solve", "wavefunction"])
def test_seed_near_its_turning_point_completes(tmp_path, command):
    """A seed started at r0 = 0.01, near its inner turning point, moves fast
    there and slowly elsewhere; its steps are bounded only near the closed
    form, not by its fast start, so it completes well inside the budget."""
    cfg = write_cfg(tmp_path, CLOSED_FORM_CFG
                    .replace("grid.x_min = 1.0", "grid.x_min = 0.5")
                    .replace("grid.x_max = 3.0", "grid.x_max = 7.0")
                    .replace("seed.kind = closed_form",
                             "seed.kind = integrate\nseed.x0 = 1.0\n"
                             "seed.r0 = 0.01\nseed.rp0 = 0.0"))
    assert main([command, "--config", cfg, "--out-dir",
                 str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["solve", "transform", "wavefunction"])
def test_seed_below_the_floor_in_t_names_its_frame(tmp_path, capsys,
                                                   command):
    """At x0 = 1e-7 with n = 4, rho0 = sqrt(G'(x0)) r0 is 3.2e-11 while r0
    is 0.5: the seed stops before integrating, with exit 3, and the message
    names the frame, x0, r0 and rho0."""
    cfg = write_cfg(tmp_path, INTEGRATE_CFG
                    .replace("params.n = 1", "params.n = 4")
                    .replace("grid.x_min = 1.0", "grid.x_min = 1e-7")
                    .replace("grid.points = 4001", "grid.points = 201")
                    .replace("seed.x0 = 1.0", "seed.x0 = 1e-7")
                    .replace("seed.r0 = 0.664", "seed.r0 = 0.5")
                    .replace("seed.rp0 = -0.2214", "seed.rp0 = 0.0"))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == 3
    assert ("AmplitudeCollapse: [seed integration] seed integrated in "
            "t = G(x): initial amplitude rho0 = sqrt(G'(x0)) r0 = 3.162e-11 "
            "at x0=1e-07, r0=0.5 is below floor 1e-06"
            in capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


PINNEY_CFG = (Path(__file__).resolve().parents[1] / "configs"
              / "pinney_seed.cfg").read_text()


@pytest.mark.parametrize("edge, x0", [("1.0", "1.0000000000000002"),
                                      ("2.3", "2.2999999999999994")])
def test_seed_an_ulp_inside_a_grid_edge(tmp_path, edge, x0):
    """x0 an ulp inside a grid edge leaves a side narrower in t than the
    integrator's smallest step; it is read from x0, not integrated. The
    solution then matches the seed started on the edge to 0.01 times the
    tolerance of 1e-10 (measured: 1.1e-15 relative in r, 2.9e-14 in r')."""
    grids = []
    for start in (x0, edge):
        cfg = write_cfg(tmp_path, PINNEY_CFG.replace(
            "seed.x0 = 1.6", f"seed.x0 = {start}"), f"{start}.cfg")
        assert main(["solve", "--config", cfg, "--out-dir",
                     str(tmp_path / start)]) == 0
        grids.append(np.loadtxt(tmp_path / start / "solution.csv",
                                delimiter=",", skiprows=1))
    near, on = grids
    assert np.array_equal(near[:, 0], on[:, 0])
    assert np.max(np.abs(near[:, 1] / on[:, 1] - 1.0)) < 1e-12
    assert np.max(np.abs(near[:, 2] - on[:, 2])) < 1e-12


def test_grid_within_a_sliver_of_x0_exits_3(tmp_path, capsys):
    """Seven points over 8 ulps: on both sides of x0 the span in t is
    narrower than the integrator's smallest step."""
    cfg = write_cfg(tmp_path, PINNEY_CFG
                    .replace("grid.x_max = 2.3",
                             "grid.x_max = 1.0000000000000018")
                    .replace("grid.points = 4001", "grid.points = 7")
                    .replace("seed.x0 = 1.6", "seed.x0 = 1.0000000000000009"))
    assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert ("StepSizeUnderflow: [seed integration] seed integrated in "
            "t = G(x) (x here is t): span [2, 2.0000000000000053] lies within "
            "2.000e-12 of x=2.0000000000000027, narrower than the smallest "
            "step" in capsys.readouterr().err)
    assert not (tmp_path / "solution.csv").exists()


def test_blow_up_in_t_names_its_x(tmp_path, capsys):
    """With b > 0 the seed reaches a pole at a finite t; the message gives
    that t and x = G^{-1}(t), here G(x) = x (1 + x)."""
    cfg = write_cfg(tmp_path, INTEGRATE_CFG
                    .replace("params.b = -1.0", "params.b = 1.0")
                    .replace("grid.x_max = 2.3", "grid.x_max = 3.0")
                    .replace("grid.points = 4001", "grid.points = 201")
                    .replace("seed.r0 = 0.664", "seed.r0 = 0.5")
                    .replace("seed.rp0 = -0.2214", "seed.rp0 = 0.0"))
    assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "BlowUp: [seed integration] seed integrated in t = G(x)" in err
    t, x = map(float, re.search(r"\(t=(\S+) is x=(\S+)\)", err).groups())
    assert 1.0 < x < 3.0
    assert x * (1.0 + x) == pytest.approx(t, rel=1e-5)


def _magnitude(signed=False):
    """Floats log-uniform over 1e-80..1e80, with a random sign if
    ``signed``."""
    mag = st.floats(-80.0, 80.0).map(lambda e: 10.0 ** e)
    if not signed:
        return mag
    return st.tuples(st.sampled_from([-1.0, 1.0]), mag).map(
        lambda sm: sm[0] * sm[1])


# Finite values at the edges of the double range, mixed into the drawn
# configs: zero, tiny and subnormal magnitudes, and magnitudes whose powers
# overflow.
_EXTREMES = (0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e15, 1e150, 1e300,
             1.7e308)


def _tolerance(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# every float key of the grammar, with its in-range values
_IN_RANGE = {
    "params.eta": st.floats(0.0, 2.0), "params.b": st.floats(-2.0, 1.0),
    "params.c": st.floats(-2.0, 2.0), "params.v": st.floats(0.3, 3.0),
    "params.mu": st.floats(-10.0, 10.0),
    "params.theta0": st.floats(-10.0, 10.0),
    "grid.x_min": st.floats(0.3, 2.0), "grid.x_max": st.floats(0.1, 3.0),
    "seed.x0": st.floats(0.0, 1.0), "seed.r0": st.floats(0.1, 2.0),
    "seed.rp0": st.floats(-1.0, 1.0),
    "tolerances.ode_abs": _tolerance(-12.0, -6.0),
    "tolerances.ode_rel": _tolerance(-12.0, -6.0),
    "tolerances.residual_pass": _tolerance(-8.0, 0.0),
    "k_schedule": st.floats(-1.0, 2.0),
}


@st.composite
def _configs(draw):
    """Config values of either seed kind. A drawn set of keys takes a
    log-uniform magnitude or one of _EXTREMES; the others are in range,
    with grid.x_max drawn as the grid's width and seed.x0 as a fraction
    of it."""
    wild = draw(st.sets(st.sampled_from(sorted(_IN_RANGE))))
    values = {}
    for key, in_range in _IN_RANGE.items():
        values[key] = draw(st.one_of(
            _magnitude(signed=True), st.sampled_from(_EXTREMES))
            if key in wild else in_range)
    if "grid.x_max" not in wild:
        values["grid.x_max"] += values["grid.x_min"]
    if "seed.x0" not in wild:
        values["seed.x0"] = values["grid.x_min"] + values["seed.x0"] * (
            values["grid.x_max"] - values["grid.x_min"])
    values["k_schedule"] = [values["k_schedule"]] * draw(st.integers(1, 2))
    values["params.n"] = draw(st.integers(1, 4))
    values["grid.points"] = draw(st.integers(7, 40))
    values["seed.kind"] = draw(st.sampled_from(["closed_form", "integrate"]))
    return values


def _shipped_values(name, old, new):
    return parse_config_text(_shipped(name, old, new))


def _config_text(values):
    return "".join(
        f"{key} = {', '.join(map(repr, value))}\n" if key == "k_schedule"
        else f"{key} = {value}\n" if isinstance(value, str)
        else f"{key} = {value!r}\n" for key, value in values.items())


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _run_all(cfg, out):
    """(exit code, stderr with ``out`` masked, {file name: bytes}) of every
    subcommand, each writing to its own directory under ``out``."""
    runs = []
    for command in ("solve", "transform", "verify", "wavefunction"):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(
                io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("ignore", ConstraintViolated)
            code = main([command, "--config", cfg, "--out-dir",
                         str(out / command)])
        files = {path.name: path.read_bytes()
                 for path in sorted((out / command).glob("*"))}
        runs.append((command, code, err.getvalue().replace(str(out), "OUT"),
                     files))
    return runs


@settings(max_examples=100, deadline=None)
@given(values=_configs())
# the three causes of a traceback that random configs found before this
# property: E - E_min overflowing the period, the closed form underflowing
# at v = 5e-324, and an integrated seed below the x floor
@example(values=_shipped_values("generic_seed.cfg", "params.eta = 1.0",
                                "params.eta = 1e300"))
@example(values=_shipped_values("fixed_point.cfg", "params.v = 1.0",
                                "params.v = 5e-324"))
@example(values=_shipped_values("generic_seed.cfg", "grid.x_min = 1.0",
                                "grid.x_min = 1e-8"))
def test_extreme_configs_exit_cleanly(tmp_path_factory, values):
    """Every subcommand ends in a documented exit code, whatever the values
    of a config of either seed kind, in range or at the edges of the double
    range. A command that exits 0 writes CSVs of finite floats, every JSON
    report is strict, and a second run gives the same exit codes, messages
    and bytes."""
    tmp = tmp_path_factory.mktemp("extreme")
    cfg = write_cfg(tmp, _config_text(values))
    # an attempt budget about 75 times the most any shipped or benchmark
    # seed takes (66): a seed that spends it then costs about 0.08 s a
    # command, not 1.5 s
    with mock.patch.object(ode_module, "_MAX_ATTEMPTS", 5000), \
            mock.patch.object(gp_module, "_MAX_ATTEMPTS", 5000):
        first, second = _run_all(cfg, tmp / "a"), _run_all(cfg, tmp / "b")
    assert first == second
    for command, code, err, files in first:
        assert code in (0, 2, 3), (command, err)
        for name in files:
            path = tmp / "a" / command / name
            if name.endswith(".json"):
                _strict_json(path)
            elif code == 0:
                table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(table)), (command, name)


# what each subcommand writes on the shipped configs, whose k_schedule has
# two elements, with the default outputs.* names
_WRITES = {"solve": ["solution.csv"],
           "transform": ["solution_k1.csv", "solution_k2.csv", "report.json"],
           "verify": ["report.json"], "wavefunction": ["wave.csv"]}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["fixed_point.cfg", "generic_seed.cfg"]),
       command=st.sampled_from(sorted(_WRITES)),
       blocked=st.sampled_from(sorted({n for v in _WRITES.values()
                                       for n in v})),
       garbage=st.sampled_from([None, b"\xff\xfe", b"\xc3\x28", b"\x80"]))
@example(name="fixed_point.cfg", command="solve", blocked="solution.csv",
         garbage=None)
@example(name="fixed_point.cfg", command="verify", blocked="report.json",
         garbage=None)
@example(name="fixed_point.cfg", command="solve", blocked="report.json",
         garbage=b"\xff\xfe")
def test_filesystem_states_exit_cleanly(tmp_path_factory, name, command,
                                        blocked, garbage):
    """A directory at one output name, or a config line that is not UTF-8:
    a config that does not decode exits 2 naming the config, and a command
    that writes the blocked name exits 2 naming it, where both ended in a
    traceback. The outputs written before the blocked one remain; any other
    command exits 0."""
    tmp = tmp_path_factory.mktemp("fs")
    text = (CONFIGS / name).read_bytes()
    cfg = tmp / "exp.cfg"
    cfg.write_bytes(text if garbage is None else text + garbage + b" = 2\n")
    out = tmp / "out"
    (out / blocked).mkdir(parents=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out-dir", str(out)])
    writes = _WRITES[command]
    if garbage is not None:
        assert code == 2
        assert f"config error: config {cfg} is not UTF-8: " in err.getvalue()
        written = []
    elif blocked in writes:
        assert code == 2
        assert (f"config error: cannot write {out / blocked}: Is a "
                f"directory" in err.getvalue())
        written = writes[:writes.index(blocked)]
    else:
        assert code == 0, err.getvalue()
        written = writes
    assert sorted(p.name for p in out.iterdir()) == sorted({*written, blocked})
    assert all((out / n).is_file() for n in written)


class TestTransform:
    def test_fixed_point_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        (element,) = report["elements"]
        assert element["fixed_point"] is True
        assert element["fixed_point_deviation"] < 1e-10
        assert (tmp_path / "solution_k1.csv").is_file()

    def test_empty_schedule_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path,
                        CLOSED_FORM_CFG.replace("k_schedule = 2.0",
                                                "k_schedule ="))
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2
        assert "k_schedule" in capsys.readouterr().err

    def test_generic_seed_residual_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, INTEGRATE_CFG)
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        (element,) = report["elements"]
        assert element["residual_max"] < 1e-5
        assert element["residual_pass"] is True
        assert element["fixed_point"] is False

    def test_reports_the_k_each_element_was_transformed_with(self, tmp_path,
                                                             capsys):
        # numpy's pairwise sum of eight or nine 0.1s rounds to 0.8 and 0.9,
        # where the orbit's cumulative sum gives 0.7999999999999999 and
        # 0.8999999999999999
        schedule = [0.1] * 9
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace(
            "k_schedule = 2.0", "k_schedule = " + ", ".join(map(str,
                                                                schedule))))
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        k_sums = [e["k_sum"] for e in report["elements"]]
        assert k_sums == np.cumsum(schedule).tolist()
        assert k_sums[7] != float(np.sum(schedule[:8]))
        assert all(e["fixed_point"] for e in report["elements"])

    def test_shipped_generic_seed_keeps_every_point(self, tmp_path):
        """The seed is integrated over the grid's images, so no element
        trims a point, the grid's right edge included."""
        cfg = Path(__file__).resolve().parents[1] / "configs/generic_seed.cfg"
        assert main(["transform", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for element in report["elements"]:
            rows = np.loadtxt(tmp_path / element["csv"], delimiter=",",
                              skiprows=1)
            assert element["points"] == len(rows) == 4001
            assert element["interval"] == [1.0, 2.3] == [rows[0, 0],
                                                          rows[-1, 0]]

    def test_one_root_solve_per_element(self, tmp_path, monkeypatch):
        """Each element solves f once, in the transform; its fixed-point
        check equals the two-read check (a pull-back, then the seed read at
        the kept points and at their roots) bit for bit. The third element,
        K = -3, keeps only x >= 1.79, where f maps into the seed."""
        cfg = write_cfg(tmp_path, INTEGRATE_CFG.replace(
            "k_schedule = 0.5", "k_schedule = 0.25, 0.25, -3.5"))
        solve = ShiftMap.f
        calls = []

        def counted(shift, x):
            calls.append(np.size(x))
            return solve(shift, x)

        monkeypatch.setattr(ShiftMap, "f", counted)
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        assert len(calls) == 3
        monkeypatch.undo()

        report = json.loads((tmp_path / "report.json").read_text())
        config = load_config(cfg)
        seed = cli._build_seed(config, cli._orbit_cover(config))
        xs = config.grid.linspace()
        assert [e["k_sum"] for e in report["elements"]] == [0.25, 0.5, -3.0]
        assert report["elements"][2]["interval"][0] > 1.78
        for element in report["elements"]:
            kept, f, fp = _pull_back(ShiftMap(config.params.g,
                                              element["k_sum"]), seed, xs)
            ref = is_fixed_point(seed.eval_with_derivative(kept)[0],
                                 seed.eval_with_derivative(f)[0], fp)
            assert element["points"] == kept.size
            assert element["fixed_point"] is ref.is_fixed is False
            assert element["fixed_point_deviation"] == ref.deviation

    @pytest.mark.parametrize("schedule, lo, hi, stage", [
        ("0.5", 2.0, np.inf, "[transform]"),
        # only the check reads x = 2.01: f(x) = x + 2 and x - 1.5 miss it,
        # and E's grid over the cover [1, 5] steps by 0.02
        ("2.0, -3.5", 2.005, 2.015, "[fixed-point check (element 1)]"),
        # only E's grid over the cover [1, 4.5] has a point, 4.4825, there
        ("1.5", 4.48, 4.485, "[energy]")])
    def test_non_finite_seed_exit_3(self, tmp_path, capsys, monkeypatch,
                                    schedule, lo, hi, stage):
        class NanInside:
            """The closed form, read as nan on (lo, hi)."""

            def __init__(self, seed):
                self.seed, self.domain = seed, seed.domain

            def eval_with_derivative(self, xs):
                r, rp = self.seed.eval_with_derivative(xs)
                nan = (np.asarray(xs) > lo) & (np.asarray(xs) < hi)
                return np.where(nan, np.nan, r), np.where(nan, np.nan, rp)

        monkeypatch.setattr(cli, "_build_seed", lambda cfg, cover:
                            NanInside(cli._closed_form(cfg)))
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace(
            "k_schedule = 2.0", f"k_schedule = {schedule}"))
        assert main(["transform", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "NonFinite" in err and stage in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("name, bound", [("generic_seed.cfg", 1e-10),
                                             ("fixed_point.cfg", 1e-14)])
    def test_reports_energy(self, tmp_path, name, bound):
        """E along the seed over the cover and each element's gap to it:
        below the ODE tolerance (1e-10) for the shipped generic seed, which
        is folded (2.6e-11 and 2.4e-11), and zero for the closed form."""
        cfg = Path(__file__).resolve().parents[1] / "configs" / name
        assert main(["transform", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        for element in report["elements"]:
            assert 0.0 <= element["energy_spread"] < bound
            assert 0.0 <= element["energy_shift"] < bound


class TestVerify:
    def test_all_checks_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
        assert main(["verify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["complete"] is True
        assert all(c["pass"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert {"mobius_schwarzian_kernel", "schwarzian_composition",
                "translation_property", "q_identity", "linear_coefficient",
                "constraint_activity"} <= names
        for c in report["checks"]:
            assert set(c) == {"name", "deviation", "tolerance", "pass"}

    def test_invalid_schedule_exit_3(self, tmp_path, capsys):
        # a strongly negative K empties the valid domain: the pointwise
        # solver reports no real positive root
        cfg = write_cfg(tmp_path,
                        CLOSED_FORM_CFG.replace("params.eta = 0.0",
                                                "params.eta = 2.0")
                        .replace("k_schedule = 2.0", "k_schedule = -30.0"))
        assert main(["verify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "NoRealRoot" in err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["complete"] is False

    def test_sweep_set_failing_after_valid_configured_set_exit_3(
            self, tmp_path, capsys):
        # the configured n = 1 set accepts K = -0.2 on [0.5, 3]; the
        # fixed-point sweep's n = 3 sets have G(0.5) + K < 0 there
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG
                        .replace("params.eta = 0.0", "params.eta = 1.0")
                        .replace("grid.x_min = 1.0", "grid.x_min = 0.5")
                        .replace("grid.points = 201", "grid.points = 101")
                        .replace("k_schedule = 2.0", "k_schedule = 0.5, -0.2"))
        assert main(["verify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        assert "DomainError" in capsys.readouterr().err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["complete"] is False
        assert report["checks"] == []

    def test_negative_rng_seed_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG + "verify.rng_seed = -1\n")
        assert main(["verify", "--config", cfg, "--out-dir",
                     str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert ":12: bad value for 'verify.rng_seed'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore")
    def test_nan_deviation_writes_strict_json(self, tmp_path, capsys):
        # c = 1e200 is finite, so the config accepts it; c^2 overflows and
        # two checks fail with deviation nan, which the report writes as null
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace("params.c = 1.0",
                                                          "params.c = 1e200"))
        assert main(["verify", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 3
        out = capsys.readouterr().out
        assert "FAIL  closed_form_residual" in out
        assert "FAIL  constraint_activity" in out

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=reject)
        failed = {c["name"]: c["deviation"] for c in report["checks"]
                  if not c["pass"]}
        assert failed == {"closed_form_residual": None,
                          "constraint_activity": None}


class TestWavefunction:
    def test_static_imaginary_part_vanishes(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG
                        .replace("params.c = 1.0", "params.c = 0.0")
                        .replace("params.b = -1.0", "params.b = 0.0"))
        assert main(["wavefunction", "--config", cfg, "--out-dir",
                     str(tmp_path), "--t-samples", "0"]) == 0
        rows = (tmp_path / "wave.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.allclose(data[:, 3], 0.0)
        assert np.allclose(data[:, 2], 1.0)

    def test_phase_rotation_by_pi(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG
                        .replace("params.c = 1.0", "params.c = 0.0")
                        .replace("params.b = -1.0", "params.b = 0.0")
                        + "params.mu = 1.0\n")
        assert main(["wavefunction", "--config", cfg, "--out-dir",
                     str(tmp_path), "--t-samples",
                     f"0,{math.pi!r}"]) == 0
        rows = (tmp_path / "wave.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        re0 = data[data[:, 1] == 0.0, 2]
        re_pi = data[data[:, 1] != 0.0, 2]
        assert np.allclose(re_pi, -re0, atol=1e-12)

    def test_modulus_matches_closed_form(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG
                        .replace("params.eta = 0.0", "params.eta = 1.0"))
        assert main(["wavefunction", "--config", cfg, "--out-dir",
                     str(tmp_path), "--t-samples", "0"]) == 0
        rows = (tmp_path / "wave.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        expected = 1.0 / np.sqrt(1.0 + 2.0 * data[:, 0])  # n = 1 shape
        assert np.allclose(data[:, 4], expected, rtol=1e-12)

    def test_integrated_seed_on_closed_form(self, tmp_path):
        # n = 1, eta = 1, v = 1: r = 1/sqrt(1 + 2x), G(x) = x (1 + x)
        text = (INTEGRATE_CFG
                .replace("seed.r0 = 0.664", f"seed.r0 = {3.0 ** -0.5!r}")
                .replace("seed.rp0 = -0.2214", f"seed.rp0 = {-3.0 ** -1.5!r}")
                + "params.mu = 0.5\nparams.theta0 = 0.3\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["wavefunction", "--config", cfg, "--out-dir",
                     str(tmp_path), "--t-samples", "0,1"]) == 0
        rows = (tmp_path / "wave.csv").read_text().strip().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        x, t, re, im, mod = data.T
        assert np.allclose(mod, 1.0 / np.sqrt(1.0 + 2.0 * x),
                           rtol=1e-8, atol=0.0)
        theta = 0.3 + x * (1.0 + x) - 2.0
        err = np.angle(np.exp(1j * (np.arctan2(im, re) - theta + 0.5 * t)))
        assert np.max(np.abs(err)) < 1e-8

    def test_bad_t_samples_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
        out = tmp_path / "out"
        for t_samples in ("a,b", "nan", "inf", "0,nan"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no RuntimeWarning from cos
                assert main(["wavefunction", "--config", cfg, "--out-dir",
                             str(out), "--t-samples", t_samples]) == 2
            assert not out.exists()

    def test_oversized_table_exits_2(self, tmp_path, capsys):
        """2,000,000 points x 6 times exceeds the 10^7-row cap: refused
        before the output directory, the seed or the table (480 MB) is
        made; the config's own 2,000,000-point grid check takes 16 MB."""
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG.replace(
            "grid.points = 201", "grid.points = 2000000"))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["wavefunction", "--config", cfg, "--out-dir",
                         str(out), "--t-samples", "0,1,2,3,4,5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert not out.exists()
        assert ("wavefunction table of 2000000 points x 6 times exceeds the "
                "cap of 10000000 rows") in capsys.readouterr().err
        assert peak < 100e6


class TestCsvBytes:
    """The one-shot writer gives the bytes of per-value '{:.16e}'.format."""

    EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 1 / 3, -1e-300]

    @staticmethod
    def per_value(header, table):
        lines = [",".join(header)]
        lines += [",".join("{:.16e}".format(v) for v in row) for row in table]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("shape", [(1, 3), (4, 5)])
    def test_matches_per_value_format(self, tmp_path, shape):
        rows, cols = shape
        rng = np.random.default_rng(rows * cols)
        values = self.EDGE_VALUES + list(rng.standard_normal(rows * cols)
                                         * 10.0 ** rng.integers(-300, 300,
                                                                rows * cols))
        table = np.array(values[:rows * cols]).reshape(rows, cols)
        header = [f"c{j}" for j in range(cols)]
        _write_rows(tmp_path / "t.csv", header, table)
        assert (tmp_path / "t.csv").read_text() == \
            self.per_value(header, table.tolist())

    def test_edge_values_exact(self, tmp_path):
        table = np.array(self.EDGE_VALUES).reshape(2, 3)
        _write_rows(tmp_path / "t.csv", ["a", "b", "c"], table)
        text = (tmp_path / "t.csv").read_text()
        assert text == self.per_value(["a", "b", "c"], table.tolist())
        assert text.splitlines()[1].startswith("-0.0000000000000000e+00,")

    def test_empty_table_writes_header_only(self, tmp_path):
        _write_rows(tmp_path / "t.csv", ["x", "r", "r_prime"],
                    np.empty((0, 3)))
        assert (tmp_path / "t.csv").read_bytes() == b"x,r,r_prime\n"


def _powers_of_ten_and_neighbours():
    powers = [float(f"1e{k}") for k in range(-20, 46)]
    return (powers + [math.nextafter(p, math.inf) for p in powers]
            + [math.nextafter(p, 0.0) for p in powers])


def _near_halves(delta):
    """Floats a whose |a| 10^k, k = 16..23, lies in [1e16, 1e17) with its
    fractional part within delta above and below a half: a = m 2^-(k+t)
    with m 5^k = 2^(t-1) +- floor(delta 2^t) (mod 2^t), as 5^k is odd."""
    values = []
    for k in range(16, 24):
        t = (5 ** k).bit_length() - 3  # 5^k/2^t in [4, 8), t in [34, 51]
        inverse = pow(5 ** k, -1, 2 ** t)
        for sign in (1, -1):
            residue = 2 ** (t - 1) + sign * int(delta * 2 ** t)
            a = math.ldexp(2 ** 52 + residue * inverse % 2 ** t, -(k + t))
            y = Fraction(a) * 10 ** k
            assert 10 ** 16 <= y < 10 ** 17
            assert 0 < abs(y - math.floor(y) - Fraction(1, 2)) <= delta
            values.append(a)
    return values


class TestCsvWriterPaths:
    """The numpy writer, on its certified fast path and on its "%"
    fallback, against per-value '{:.16e}'.format."""

    ADVERSARIAL = [
        0.0, -0.0, 5e-324, -5e-324,
        2.225073858507201e-308,  # the largest subnormal
        1.7976931348623157e308, -1.7976931348623157e308,
        1000000000000000.25, 1000000000000000.75,  # exact 18-digit ties
        1e-14, 1e98,  # 17-digit rounding carries into the next decade
    ] + _powers_of_ten_and_neighbours()
    # an 18th digit within 1e-3, 1e-6 and 1e-10 of a half: a product
    # rounded to 2^-64 sent them to "%", and the float64 product certifies
    # them
    NEAR_HALVES = [a for delta in (1e-3, 1e-6, 1e-10)
                   for a in _near_halves(delta)]

    @staticmethod
    def fast_share(directory, table):
        """The share of the values of ``table`` that the writer formats
        without "%": a 4-digit fallback format marks the others."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_FALLBACK_FMT", "%24.3e")
            _write_rows(directory / "t.csv", ["c"] * table.shape[1], table)
        lines = (directory / "t.csv").read_text().splitlines()[1:]
        written = ",".join(lines).split(",")
        exact = [f"{v:.16e}" for v in table.ravel().tolist()]
        return sum(w == e for w, e in zip(written, exact)) / table.size

    @staticmethod
    def write(directory, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        _write_rows(directory / "t.csv", header, table)
        text = (directory / "t.csv").read_text()
        return text, TestCsvBytes.per_value(header, table.tolist())

    @settings(max_examples=150, deadline=None)
    @given(table=arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(1, 6)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(0, 2 ** 64 - 1)
            .map(lambda bits: float(np.uint64(bits).view(np.float64)))
            .filter(math.isfinite))))
    def test_matches_per_value_format(self, tmp_path_factory, table):
        text, expected = self.write(tmp_path_factory.mktemp("csv"), table)
        assert text == expected

    def test_adversarial_values(self, tmp_path):
        values = self.ADVERSARIAL + [-v for v in self.ADVERSARIAL]
        table = np.array(values).reshape(-1, 2)
        text, expected = self.write(tmp_path, table)
        assert text == expected

    def test_near_halves_and_zeros_take_the_fast_path(self, tmp_path):
        values = self.NEAR_HALVES + [0.0, -0.0] * 8
        table = np.array(values + [-v for v in values]).reshape(-1, 4)
        text, expected = self.write(tmp_path, table)
        assert text == expected
        assert self.fast_share(tmp_path, table) == 1.0

    def test_every_value_through_the_fallback(self, tmp_path, monkeypatch):
        # a margin above 1/2 certifies nothing, zeros included
        monkeypatch.setattr(cli, "_TIE_MARGIN", 1.0)
        rng = np.random.default_rng(8)
        table = np.resize(np.concatenate([np.linspace(0.5, 3.0, 300),
                                          rng.standard_normal(300),
                                          self.ADVERSARIAL,
                                          self.NEAR_HALVES]), (300, 3))
        text, expected = self.write(tmp_path, table)
        assert text == expected
        # a 4-digit fallback format shows that no value took the fast path
        monkeypatch.setattr(cli, "_FALLBACK_FMT", "%24.3e")
        _write_rows(tmp_path / "t.csv", ["a", "b", "c"], table)
        assert (tmp_path / "t.csv").read_text().splitlines()[1:] == \
            [",".join(f"{v:.3e}" for v in row) for row in table.tolist()]

    def test_fast_path_is_taken(self, tmp_path):
        xs = np.linspace(0.85, 2.1, 2001)
        table = np.column_stack([xs, np.sqrt(xs), -np.cos(xs) / 7.0])
        assert self.fast_share(tmp_path, table) == 1.0


class TestDeterminismAndRoundTrip:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, CLOSED_FORM_CFG)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert main(["solve", "--config", cfg, "--out-dir", str(d)]) == 0
            assert main(["verify", "--config", cfg, "--out-dir", str(d)]) == 0
        assert (d1 / "solution.csv").read_bytes() == \
               (d2 / "solution.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == \
               (d2 / "report.json").read_bytes()

    def test_csv_round_trip_preserves_residual(self, tmp_path):
        cfg = write_cfg(tmp_path, INTEGRATE_CFG)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        grid = SolutionGrid(*np.loadtxt(tmp_path / "solution.csv",
                                        delimiter=",", skiprows=1).T)
        p = GPParams(n=1, eta=1.0, b=-1.0, c=1.0)
        res1 = residual_max(gp_rhs(p), grid)
        write_solution_csv(tmp_path / "copy.csv", grid)
        grid2 = SolutionGrid(*np.loadtxt(tmp_path / "copy.csv",
                                         delimiter=",", skiprows=1).T)
        res2 = residual_max(gp_rhs(p), grid2)
        assert res1 == pytest.approx(res2, abs=1e-12)
        assert np.array_equal(grid.xs, grid2.xs)
        assert np.array_equal(grid.rs, grid2.rs)


SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
SUBCOMMANDS = ("solve", "transform", "verify", "wavefunction")


class TestInProcessReuse:
    """Every subcommand on the shipped configs, twice in one process and in
    two orders, then once per fresh process: the parser and the dense
    solutions' coefficient tables built in one command change no later
    command's exit code, output or files."""

    @staticmethod
    def _outcome(code, stdout, out_dir):
        return code, stdout, {p.name: p.read_bytes()
                              for p in sorted(out_dir.iterdir())}

    def _in_process(self, root, commands, capsys):
        outcomes = {}
        for cfg, sub in commands:
            out = Path(f"{cfg.stem}_{sub}")
            capsys.readouterr()
            code = main([sub, "--config", str(cfg), "--out-dir", str(out)])
            outcomes[cfg, sub] = self._outcome(code, capsys.readouterr().out,
                                               root / out)
        return outcomes

    def test_rounds_and_fresh_processes_agree(self, tmp_path, monkeypatch,
                                              capsys):
        commands = [(cfg, sub) for cfg in SHIPPED for sub in SUBCOMMANDS]
        rounds = []
        for name, order in (("first", commands), ("second", commands[::-1])):
            root = tmp_path / name
            root.mkdir()
            monkeypatch.chdir(root)
            rounds.append(self._in_process(root, order, capsys))
        assert rounds[0] == rounds[1]

        root = tmp_path / "fresh"
        root.mkdir()
        src = Path(gpbacklund.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        for cfg, sub in commands:
            out = Path(f"{cfg.stem}_{sub}")
            proc = subprocess.run(
                [sys.executable, "-m", "gpbacklund.cli", sub, "--config",
                 str(cfg), "--out-dir", str(out)],
                cwd=root, env=env, capture_output=True, text=True)
            assert self._outcome(proc.returncode, proc.stdout, root / out) \
                == rounds[0][cfg, sub], (cfg.name, sub)

    def test_usage_errors_and_help_repeat(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        seen = []
        for _ in range(2):
            for argv in (["--help"], ["wavefunction", "--help"], ["solve"],
                         ["bogus", "--config", "x"]):
                with pytest.raises(SystemExit) as exit_:
                    main(argv)
                seen.append((argv, exit_.value.code, capsys.readouterr()))
        assert seen[:4] == seen[4:]
        assert [code for _, code, _ in seen[:4]] == [0, 0, 2, 2]
        assert "--t-samples" in seen[1][2].out
        assert "required: --config" in seen[2][2].err


class TestImport:
    def test_no_scipy(self):
        # nor the CLI, so importing the package stays as cheap as before
        code = ("import sys, gpbacklund; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')));"
                "print('gpbacklund.cli' in sys.modules)")
        src = Path(gpbacklund.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.split() == ["[]", "False"]

    def test_all_names_resolve(self):
        names = gpbacklund.__all__
        assert len(set(names)) == len(names)
        assert [n for n in names if not hasattr(gpbacklund, n)] == []
