import math

from gpbacklund.verify import (check_closed_form_residual,
                               check_constraint_activity)


class TestFailClosed:
    def test_nan_residual_fails(self):
        res = check_closed_form_residual(c=math.nan)
        assert math.isnan(res.deviation)
        assert not res.passed

    def test_nan_reversed_check_fails(self):
        res = check_constraint_activity(c=math.nan)
        assert math.isnan(res.deviation)
        assert not res.passed
