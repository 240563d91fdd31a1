"""The output tools under scripts/."""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOutputDrift:
    drift = staticmethod(_load("output_drift")._drift)

    def test_relative_change(self):
        assert self.drift(b"x,1.0,2.0\n", b"x,1.0,2.5\n") == 0.5 / 2.5

    def test_text_change_is_not_numeric(self):
        assert self.drift(b"x,1.0\n", b"y,1.0\n") is None

    def test_a_number_turning_non_finite_is_infinite_drift(self):
        assert self.drift(b"1.0,2.0\n", b"1.0,nan\n") == math.inf
        assert self.drift(b"1.0,inf\n", b"1.0,2.0\n") == math.inf

    def test_nan_in_the_same_place_is_no_drift(self):
        assert self.drift(b"nan,2.0\n", b"nan,2.00\n") == 0.0

    def test_reports_and_exits_1_on_non_finite_drift(self, tmp_path):
        for tree, value in (("a", "0.5"), ("b", "nan")):
            (tmp_path / tree / "x_solve").mkdir(parents=True)
            (tmp_path / tree / "x_solve" / "solution.csv").write_text(
                f"x,r\n1.0,{value}\n")
        run = subprocess.run([sys.executable, str(SCRIPTS / "output_drift.py"),
                              str(tmp_path / "a"), str(tmp_path / "b")],
                             capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout.splitlines() == [
            "x_solve/solution.csv inf",
            "solve solution.csv: 1 differ, largest relative change inf"]
