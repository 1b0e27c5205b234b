"""The JSON form of every result type, built from literal fields: the
dataclass fields in order, arrays as lists, nested results as their own JSON
form, and everything else as it is."""

import json

import numpy as np
import pytest

from nesslsi.constants import ConstantsReport
from nesslsi.estimators import (
    DefectiveLsiCheck, EstimateResult, HarnackCheck, HyperProbeResult, MckvReport, RateFit,
    ScanReport,
)
from nesslsi.metric import MetricParams

_ESTIMATE = dict(value=0.5, stderr=0.125, n_samples=400, seed=7, bound=1.0)
_ESTIMATE_JSON = {**_ESTIMATE, "half_width": 0.375, "passed": True}
_LEVELS = ({"dt": 0.02, "n": 128, "mean": 0.75, "stderr": 0.0625},
           {"dt": 0.01, "n": 32, "mean": -0.25, "stderr": 0.5})
_CONSTANTS = dict(A=12.0, B=13.5, C=4.0, sigma0=0.0, R_star=0.0, t0=0.25, C_LS=33.75,
                  sup_inner=0.0, sigma_ok=True, L=0.0, rho=1.0, R=0.0, sigma=1.0, d=1,
                  alpha_ext=2.0)
_METRIC = dict(theta=4.0, eta=0.5, lam=0.25, r0=5.0, kappa2=0.125, k_min=1.0, k_norm=1.0,
               lip_inner=1.0, lip_outer=0.0, radius=1.0)

CASES = [
    pytest.param(EstimateResult(**_ESTIMATE), _ESTIMATE_JSON, id="EstimateResult"),
    pytest.param(EstimateResult(value=2.0, stderr=0.5, n_samples=10, seed=1),
                 {"value": 2.0, "stderr": 0.5, "n_samples": 10, "seed": 1, "bound": None,
                  "half_width": 1.5, "passed": None}, id="EstimateResult-unbounded"),
    pytest.param(RateFit(c_hat=2.0, kappa_hat=0.5, residual=0.0625, window=(0.5, 3.0)),
                 {"c_hat": 2.0, "kappa_hat": 0.5, "residual": 0.0625, "window": (0.5, 3.0)},
                 id="RateFit"),
    pytest.param(HarnackCheck(lhs=1.0, rhs=2.0, lhs_stderr=0.25, rhs_stderr=0.5, factor=3.0,
                              ok=True),
                 {"lhs": 1.0, "rhs": 2.0, "lhs_stderr": 0.25, "rhs_stderr": 0.5, "factor": 3.0,
                  "ok": True}, id="HarnackCheck"),
    pytest.param(ScanReport(points=np.array([[0.0, 1.0], [0.5, -1.0]]),
                            u_vals=np.array([1.0, 2.5]), u_stderr=np.array([0.125, 0.25]),
                            worst_margin=0.75, worst_pair=(0, 1), ok=True),
                 {"points": [[0.0, 1.0], [0.5, -1.0]], "u_vals": [1.0, 2.5],
                  "u_stderr": [0.125, 0.25], "worst_margin": 0.75, "worst_pair": (0, 1),
                  "ok": True}, id="ScanReport"),
    pytest.param(ScanReport(points=np.zeros((1, 1)), u_vals=np.ones(1), u_stderr=np.zeros(1),
                            worst_margin=0.0, worst_pair=None, ok=True),
                 {"points": [[0.0]], "u_vals": [1.0], "u_stderr": [0.0], "worst_margin": 0.0,
                  "worst_pair": None, "ok": True}, id="ScanReport-one-point"),
    pytest.param(HyperProbeResult(ratio=EstimateResult(**_ESTIMATE), ratio_plugin=0.5,
                                  closed_bound=1.0, t0=0.5, ok=True, levels=_LEVELS,
                                  dt_bias={"value": -0.25, "stderr": 0.5}),
                 {"ratio": _ESTIMATE_JSON, "ratio_plugin": 0.5, "closed_bound": 1.0, "t0": 0.5,
                  "ok": True, "levels": _LEVELS, "dt_bias": {"value": -0.25, "stderr": 0.5}},
                 id="HyperProbeResult"),
    pytest.param(DefectiveLsiCheck(lhs=0.5, rhs=1.5, margin_stderr=4.0, ok=True),
                 {"lhs": 0.5, "rhs": 1.5, "margin_stderr": 4.0, "ok": True},
                 id="DefectiveLsiCheck"),
    pytest.param(MckvReport(w2_distances=[0.5, 0.25], converged=True, probe_stat=1.5,
                            probe_ok=True, mean_abs=0.75),
                 {"w2_distances": [0.5, 0.25], "converged": True, "probe_stat": 1.5,
                  "probe_ok": True, "mean_abs": 0.75}, id="MckvReport"),
    pytest.param(ConstantsReport(**_CONSTANTS), _CONSTANTS, id="ConstantsReport"),
    pytest.param(MetricParams(**_METRIC, k_matrix=np.array([[1.0, 0.0], [0.0, 2.0]])),
                 {**_METRIC, "k_matrix": [[1.0, 0.0], [0.0, 2.0]]}, id="MetricParams"),
]


@pytest.mark.parametrize("record, expected", CASES)
def test_record_json_form(record, expected):
    out = record.to_json()
    # == on dicts tells a tuple from a list; the items also pin the key order
    assert out == expected
    assert list(out.items()) == list(expected.items())
    assert json.loads(json.dumps(out, allow_nan=False)) == json.loads(json.dumps(expected))
