import re

import pytest

from gpbacklund.config import build_config, load_config, parse_config_text
from gpbacklund.errors import ConfigError


MINIMAL = """
# comment line
params.n = 2
params.eta = 0.5
params.b = -1.0
params.c = 1.0
grid.x_min = 1.0       # trailing comment
grid.x_max = 3.0
grid.points = 101
k_schedule = 0.25, 0.5
seed.kind = closed_form
"""


def config_from(text):
    return build_config(parse_config_text(text))


class TestParsing:
    def test_minimal(self):
        cfg = config_from(MINIMAL)
        assert cfg.params.n == 2
        assert cfg.params.eta == 0.5
        assert cfg.grid.points == 101
        assert cfg.k_schedule == [0.25, 0.5]
        assert cfg.seed.kind == "closed_form"

    def test_defaults_applied(self):
        cfg = config_from("params.n = 1")
        assert cfg.params.b == -1.0
        assert cfg.tolerances.ode_abs == 1e-10
        assert cfg.outputs.solution_csv == "solution.csv"
        assert cfg.rng_seed == 0

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("params.q = 3")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("params.n = 1\nparams.n = 2")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("params.n = banana")

    @pytest.mark.parametrize("line", ["params.eta = nan", "params.eta = inf",
                                      "params.eta = -inf",
                                      "k_schedule = 0.5, nan"])
    def test_non_finite_value(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=re.escape(
                f"<config>:2: bad value for {key!r}")):
            parse_config_text(f"params.n = 1\n{line}")

    def test_negative_rng_seed(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(ConfigError, match=re.escape(
                "<config>:2: bad value for 'verify.rng_seed'")):
            parse_config_text("params.n = 1\nverify.rng_seed = -1")
        assert parse_config_text("verify.rng_seed = 0")["verify.rng_seed"] == 0

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected"):
            parse_config_text("params.n 1")

    def test_empty_schedule(self):
        cfg = config_from("params.n = 1\nk_schedule =")
        assert cfg.k_schedule == []

    def test_echo_carries_every_key(self):
        cfg = config_from(MINIMAL)
        assert cfg.raw["params.n"] == 2
        assert cfg.raw["outputs.report_json"] == "report.json"


class TestValidation:
    def test_grid_too_small(self):
        with pytest.raises(ConfigError, match="grid too small"):
            config_from("grid.points = 3")

    def test_grid_ordering(self):
        with pytest.raises(ConfigError, match="x_min < x_max"):
            config_from("grid.x_min = 5.0\ngrid.x_max = 1.0")

    def test_grid_points_distinct(self):
        # two ulps between the ends cannot hold 7 distinct points
        with pytest.raises(ConfigError, match="not distinct"):
            config_from("grid.x_min = 1.0\ngrid.x_max = 1.0000000000000004\n"
                        "grid.points = 7")

    def test_grid_points_capped(self, monkeypatch):
        # refused while parsing, with its line number, before any linspace
        monkeypatch.setattr("numpy.linspace", None)
        with pytest.raises(ConfigError,
                           match=r"<config>:2: .*'grid.points'.*cap of "
                                 r"10000000"):
            parse_config_text("params.n = 1\ngrid.points = 1000000000000000")
        assert parse_config_text("grid.points = 10000000") == {
            "grid.points": 10_000_000}

    def test_negative_tolerance(self):
        with pytest.raises(ConfigError, match="strictly positive"):
            config_from("tolerances.ode_abs = -1e-10")

    def test_bad_seed_kind(self):
        with pytest.raises(ConfigError, match="seed.kind"):
            config_from("seed.kind = guess")

    def test_integrate_needs_initial_data(self):
        with pytest.raises(ConfigError, match="seed.x0"):
            config_from("seed.kind = integrate")

    def test_integrate_x0_inside_grid(self):
        with pytest.raises(ConfigError, match="x0"):
            config_from("seed.kind = integrate\nseed.x0 = 9.0\nseed.r0 = 1.0")

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError, match="invalid params"):
            config_from("params.n = 0")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path)
        assert cfg.grid.x_max == 3.0
