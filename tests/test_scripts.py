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

    def test_column_change_is_relative_to_the_column(self):
        columns = _load("output_drift")._column_drift
        a = b"x,r\n1.0,-4.0\n2.0,1e-20\n"
        b = b"x,r\n1.0,-4.0\n2.0,2e-20\n"
        assert columns(a, b) == {"x": 0.0, "r": 1e-20 / 4.0}
        assert columns(a, b"x,r\n1.0,-4.0\n") is None
        assert columns(a, b"x,s\n1.0,-4.0\n2.0,1e-20\n") is None
        # nan in the same place is no change and not part of the scale; a
        # value turning non-finite makes its column infinite in any row
        assert columns(b"x,r\n1.0,nan\n2.0,2.0\n",
                       b"x,r\n1.0,nan\n2.0,2.5\n") == {"x": 0.0, "r": 0.2}
        for old, new in ((b"3.0", b"nan"), (b"inf", b"3.0")):
            for r in ((old, b"2.0"), (b"2.0", old)):
                a = b"x,r\n1.0,%s\n2.0,%s\n" % r
                b = a.replace(old, new)
                assert columns(a, b) == {"x": 0.0, "r": math.inf}

    def test_names_a_changed_exit_code(self, tmp_path):
        """A console's first line, its exit code, is compared as text,
        not as one more number; a console whose code holds reports the
        drift of its numbers."""
        consoles = {"a": ("0\nsolve: residual max 1.0e-10\n",
                          "0\nverify: deviation 2.0e-10\n"),
                    "b": ("3\nerror: [sampling] NonFinite\n",
                          "0\nverify: deviation 2.5e-10\n")}
        for tree, texts in consoles.items():
            for command, text in zip(("x_solve", "x_verify"), texts):
                (tmp_path / tree / command).mkdir(parents=True)
                (tmp_path / tree / command / "console.txt").write_text(text)
        run = subprocess.run([sys.executable, str(SCRIPTS / "output_drift.py"),
                              str(tmp_path / "a"), str(tmp_path / "b")],
                             capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout.splitlines() == [
            "x_solve/console.txt exit code 0 -> 3",
            "x_verify/console.txt 2.000e-01",
            "solve console.txt: 1 differ, 1 exit codes changed, largest "
            "relative change none numeric",
            "verify console.txt: 1 differ, 0 exit codes changed, largest "
            "relative change 2.000e-01"]

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
            "solve solution.csv: 1 differ, largest relative change inf",
            "solve solution.csv column r: largest change inf of its largest "
            "|value|",
            "solve solution.csv column x: largest change 0.000e+00 of its "
            "largest |value|"]
