import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gpbacklund
from gpbacklund.cli import (_write_rows, main, read_solution_csv,
                            write_solution_csv)
from gpbacklund.errors import NonFinite
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
        grid = read_solution_csv(tmp_path / "solution.csv")
        assert np.allclose(grid.rs, 1.0, rtol=0, atol=1e-15)
        assert "residual max" in capsys.readouterr().out

    def test_integrated_matches_closed_form(self, tmp_path):
        # start exactly on the closed form: integration must stay on it
        text = INTEGRATE_CFG.replace("seed.r0 = 0.664",
                                     f"seed.r0 = {1 / math.sqrt(3.0)!r}")
        text = text.replace("seed.rp0 = -0.2214",
                            f"seed.rp0 = {-3.0 ** -1.5!r}")
        cfg = write_cfg(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        grid = read_solution_csv(tmp_path / "solution.csv")
        expected = 1.0 / np.sqrt(1.0 + 2.0 * grid.xs)
        assert np.max(np.abs(grid.rs - expected)) < 1e-6

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
        assert main(["wavefunction", "--config", cfg, "--out-dir",
                     str(tmp_path), "--t-samples", "a,b"]) == 2


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
        grid = read_solution_csv(tmp_path / "solution.csv")
        p = GPParams(n=1, eta=1.0, b=-1.0, c=1.0)
        res1 = residual_max(gp_rhs(p), grid)
        write_solution_csv(tmp_path / "copy.csv", grid)
        grid2 = read_solution_csv(tmp_path / "copy.csv")
        res2 = residual_max(gp_rhs(p), grid2)
        assert res1 == pytest.approx(res2, abs=1e-12)
        assert np.array_equal(grid.xs, grid2.xs)
        assert np.array_equal(grid.rs, grid2.rs)

    def test_rejects_non_solution_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        from gpbacklund.errors import ConfigError
        with pytest.raises(ConfigError):
            read_solution_csv(bad)


class TestImport:
    def test_no_scipy(self):
        code = ("import sys, gpbacklund; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        src = Path(gpbacklund.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.stdout.strip() == "[]"
