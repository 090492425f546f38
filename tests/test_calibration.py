"""The calibration run reproduces the measurements that constants.py records.

Each frozen bound in constants.py sits next to the value a calibration run
measured; this reruns ``calibrate`` (about a minute at the default config)
and compares every recorded measurement at the precision it is printed with.
It is the one caller that reaches ``l2t_linf_on_tube``, ``dual_witness``
without a search and ``tube_sup_profile`` on the default configuration.
"""

import pytest

from conewave.calibration import calibrate

pytestmark = pytest.mark.acceptance


def test_calibration_reproduces_the_recorded_measurements():
    out = calibrate(verbose=False)
    ratio_max = max(out[f"random_ratio_max(k={k})"] for k in range(4))
    rho_min, rho_max = out["sharpness_rho(min,max)"]
    got = {
        "kappa_cube": (out["kappa_cube(min)"], 4),
        "kappa_tube": (out["kappa_tube(min over k,t)"], 4),
        "bernstein": (out["bernstein_sup(max/100)"], 4),
        "random ratio": (ratio_max, 4),
        "rho min": (rho_min, 4),
        "rho max": (rho_max, 4),
        "lp scaled": (out["sharpness_lp_scaled(max)"], 4),
        "min decrement": (out["extract0.2(min decrement)"], 4),
        "max M(F)": (out["universal(maxM(F))"], 2),
        "off ratio": (out["extractor_off_ratio(max)"], 3),
        "max outside": (out["profile(max outside)"], 4),
        "adversarial full": (out["profile(min adversarial full)"], 4),
        "int g": (out["fungibility(int g)"], 2),
    }
    recorded = {"kappa_cube": 0.3057, "kappa_tube": 0.8587, "bernstein": 0.0914,
                "random ratio": 0.1002, "rho min": 0.4854, "rho max": 0.5055,
                "lp scaled": 0.6196, "min decrement": 0.0411, "max M(F)": 1.26,
                "off ratio": 0.387, "max outside": 0.0326, "adversarial full": 0.4075,
                "int g": 8.26}
    printed = {name: round(value, digits) for name, (value, digits) in got.items()}
    assert printed == recorded
    assert out["universal(tubes)"] == 23
    assert out["fungibility(intervals)"] == 64
