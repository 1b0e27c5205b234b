import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from nesslsi import build_metric, make_scenario, metric_constants


@pytest.fixture(scope="session")
def ou1():
    return make_scenario("ou", {"d": 1})


@pytest.fixture(scope="session")
def ou2():
    return make_scenario("ou", {"d": 2})


@pytest.fixture(scope="session")
def identity_params():
    return metric_constants(np.eye(1), 0.0, 0.0, 1.0)


@pytest.fixture(scope="session")
def identity_table(identity_params):
    return build_metric(identity_params, quad_tol=1e-10)


@pytest.fixture(scope="session")
def kinetic_bench():
    """Identity-K quadratic kinetic benchmark in d = 2 with declared R = 1,
    and its metric table."""
    model = make_scenario("kinetic-quadratic", {"d": 2, "gamma": 1.0, "radius": 1.0})
    params = metric_constants(model.k_matrix, model.lip_inner, model.lip_outer, model.radius)
    table = build_metric(params, quad_tol=1e-10)
    return model, table
