"""End-to-end kinetic pipeline on a non-trivial benchmark: anisotropic
linear part, small nonlinear residual, friction away from 1.

Covers the full chain: admissibility, friction normalization, metric
construction, coupled simulation, contraction of the semimetric at the
advertised rate, and the comparison envelope in plain distance.
"""

import math

import numpy as np
import pytest

from nesslsi.metric import build_metric, metric_constants, rho_star
from nesslsi.models import KineticModel, normalize_kinetic
from nesslsi.simulate import SdeSystem, SimConfig, em_path, kinetic_coupled_pair
from nesslsi.estimators import w1_contraction


@pytest.fixture(scope="module")
def anisotropic_model():
    c_x, c_v = 0.01, 0.005
    K = np.diag([4.0, 1.0])

    def grad_u(x):
        return x @ K.T

    def forcing(x, v):
        return c_x * np.sin(x) + c_v * np.tanh(v)

    def residual(x, v):
        return c_x * np.sin(x) - c_v * np.tanh(v)

    lip = math.hypot(c_x, c_v)
    return KineticModel(
        d=2, gamma=1.5, grad_potential=grad_u, k_matrix=K,
        forcing=forcing, residual=residual,
        radius=0.5, lip_inner=lip, lip_outer=lip,
    )


@pytest.fixture(scope="module")
def anisotropic_setup(anisotropic_model):
    norm = normalize_kinetic(anisotropic_model)
    params = metric_constants(norm.k_matrix, norm.lip_inner, norm.lip_outer, norm.radius)
    table = build_metric(params, quad_tol=1e-10)
    return norm, params, table


def test_admissibility_survives_normalization(anisotropic_model):
    assert anisotropic_model.admissible
    norm = normalize_kinetic(anisotropic_model)
    assert norm.admissible
    assert norm.gamma == 1.0
    np.testing.assert_allclose(norm.k_matrix,
                               anisotropic_model.k_matrix / 1.5**2)


def test_metric_table_invariants_hold(anisotropic_setup):
    _, params, table = anisotropic_setup
    assert params.kappa2 > 0
    assert np.all(table.g_vals >= 0.5 - table.quad_tol)
    assert np.all(table.f_vals <= table.phi_primitive + 1e-12)
    assert np.all(np.diff(table.f_vals, 2) <= table.quad_tol)
    assert table.kappa > 0 and table.c1 >= 1.0


def test_residual_identity_on_samples(anisotropic_model):
    m = anisotropic_model
    gen = np.random.default_rng(3)
    x, v = gen.standard_normal((50, 2)), gen.standard_normal((50, 2))
    lhs = -m.grad_potential(x) + m.force_g(x, -v)
    rhs = -x @ m.k_matrix.T + m.residual_g(x, v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_semimetric_contracts_at_advertised_rate(anisotropic_setup):
    norm, params, table = anisotropic_setup
    cfg = SimConfig(dt=2e-3, t_final=6.0, seed=60, n_smooth=1000)
    z0 = np.array([2.0, -1.0, 0.0, 0.0])
    zp0 = np.array([-1.0, 0.5, 0.5, -0.5])
    traj = kinetic_coupled_pair(norm, table, params, z0, zp0, cfg,
                                n_paths=4000, record_every=60)
    rho_t = np.array([
        rho_star(table, traj.z[i], traj.z_prime[i]).mean()
        for i in range(traj.times.size)
    ])
    envelope = rho_t[0] * np.exp(-table.kappa * traj.times)
    assert np.all(rho_t <= 1.10 * envelope)
    # kappa is tiny for this slow benchmark, so the guaranteed decay is
    # nearly flat; the observed mean still drifts strictly downward
    assert rho_t[-1] < rho_t[0]


def test_distance_envelope_and_positive_rate(anisotropic_setup):
    norm, params, table = anisotropic_setup
    cfg = SimConfig(dt=2e-3, t_final=6.0, seed=61, n_smooth=1000)
    z0 = np.array([2.0, -1.0, 0.0, 0.0])
    zp0 = np.array([-1.0, 0.5, 0.5, -0.5])
    rep = w1_contraction("kinetic", norm, z0, zp0, cfg, 2000, table=table)
    assert rep.envelope_ok
    assert rep.fit.kappa_hat > 0.05


def test_marginal_moments_match_independent_simulation(anisotropic_setup):
    norm, params, table = anisotropic_setup
    cfg = SimConfig(dt=2e-3, t_final=4.0, seed=62, n_smooth=1000)
    z0 = np.array([2.0, -1.0, 0.0, 0.0])
    zp0 = np.array([-1.0, 0.5, 0.5, -0.5])
    n = 4000
    traj = kinetic_coupled_pair(norm, table, params, z0, zp0, cfg,
                                n_paths=n, record_every=cfg.n_steps)
    sys_ = SdeSystem(dim=4, drift=norm.control_drift, noise_dim=2,
                     noise_scale=math.sqrt(2.0))
    indep = em_path(sys_, zp0, SimConfig(dt=cfg.dt, t_final=cfg.t_final, seed=77062),
                    n_paths=n, record_every=cfg.n_steps).terminal
    coup = traj.z_prime[-1]
    for k in range(4):
        for power in (1, 2):
            a, b = coup[:, k] ** power, indep[:, k] ** power
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 3.0 * se + 1e-3, (k, power)
