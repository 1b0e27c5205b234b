"""Acceptance battery: every top-level criterion at its stated tolerance and
budget, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
from scipy.special import erf

from nesslsi import SimConfig
from nesslsi.constants import (
    defective_lsi_constants,
    harnack_factor,
    lsi_constant,
    lyapunov_bound,
    poincare_constant,
)
from nesslsi.estimators import (
    elliptic_fk_system,
    feynman_kac_h,
    hypercontractivity_probe,
    lyapunov_expectation,
    mckv_fixed_point,
    u_lipschitz_scan,
    w1_contraction,
)
from nesslsi.metric import build_metric, metric_constants, rho_star
from nesslsi.models import (
    EllipticModel,
    arctan_kernel,
    derive_elliptic_fields,
    normalize_kinetic,
)
from nesslsi.simulate import em_path, harnack_pair, kinetic_coupled_pair, reflection_pair
from oracles import (
    clipped_exp_expectation,
    gaussian_exp_moment,
    ou_hyper_ratio,
    ou_transition,
    scalar_radial_sde,
)


class _Gate:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {status}  {self.label}  [{elapsed:.1f}s / budget {self.budget:.0f}s]")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"
        return False


def test_criterion_01_constants_exactness():
    with _Gate(1, "closed-form constants exact to 1e-12", 1.0):
        params = metric_constants(np.eye(1), 0.0, 0.0, 1.0)
        assert abs(params.kappa2 - 0.125) <= 1e-12
        A, B = defective_lsi_constants(L=0.0, rho=1.0, sigma=1.0, d=1, R=0.0)
        assert abs(A - 12.0) <= 1e-12
        assert abs(B - (6.0 * math.log(5.0) + 3.75)) <= 1e-12
        for sigma, rho in ((1.0, 1.0), (2.0, 0.5), (math.sqrt(2.0), 3.0)):
            _, _, C = poincare_constant(0.0, rho, 0.0, sigma, 1, 1.0, 0.0)
            assert abs(C - 4.0 * sigma / rho) <= 1e-12
        C = 4.0
        assert abs(lsi_constant(A, B, C) - (A + C * (B + 2.0) / 4.0)) <= 1e-12


def test_criterion_02_metric_construction(identity_table):
    with _Gate(2, "metric table: sandwiches, concavity, residual, erf check", 1.0):
        t = identity_table
        tol = t.quad_tol
        assert np.all(t.g_vals >= 0.5 - tol) and np.all(t.g_vals <= 1.0 + 1e-15)
        assert np.all(t.f_vals >= 0.5 * t.grid - 1e-12)
        assert np.all(t.f_vals <= t.phi_primitive + 1e-12)
        second = np.diff(t.f_vals, 2)
        assert np.max(second) <= tol
        h = t.grid[1] - t.grid[0]
        f = t.f_vals
        fp = (f[2:] - f[:-2]) / (2.0 * h)
        fpp = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
        r = t.grid[1:-1]
        residual = np.max(
            4.0 * fpp + t.params.theta * fp * r + t.kappa1 * f[1:-1]
            + t.eps * ((1.0 + t.kappa1 / 2.0) * t.params.theta * r**2 + 4.0)
        )
        assert residual <= 10.0 * tol
        closed = math.sqrt(math.pi) * erf(1.5)
        assert abs(t.phi_primitive[-1] - closed) <= 1e-8


def test_criterion_03_distance_domination(identity_table, identity_params):
    with _Gate(3, "|z - z'| <= C1 rho on 10^4 pairs, both branches", 1.0):
        gen = np.random.default_rng(42)
        n = 10_000
        z = gen.standard_normal((n, 2))
        scale = np.where(gen.random(n) < 0.5, 0.15, 4.0)[:, None]
        zp = z + scale * gen.standard_normal((n, 2))
        dx = z[:, :1] - zp[:, :1]
        dq = dx + (z[:, 1:] - zp[:, 1:])
        r = identity_params.theta * np.abs(dx[:, 0]) + np.abs(dq[:, 0])
        assert 100 < (r <= identity_params.r0).sum() < n - 100
        dist = np.linalg.norm(z - zp, axis=-1)
        rho = rho_star(identity_table, z, zp)
        violations = int((dist > identity_table.c1 * rho).sum())
        assert violations == 0


def test_criterion_04_ou_synchronous_rate(ou1):
    with _Gate(4, "OU synchronous contraction rate 1 +- 0.02", 30.0):
        cfg = SimConfig(dt=1e-3, t_final=2.0, seed=101)
        rep = w1_contraction("synchronous", ou1, np.array([1.0]), np.array([0.0]),
                             cfg, n_paths=10_000)
        assert abs(rep.fit.kappa_hat - 1.0) <= 0.02


def test_criterion_05_reflection_survival_vs_oracle(ou1):
    with _Gate(5, "reflection survival vs scalar radial oracle, 3 sigma", 120.0):
        cfg = SimConfig(dt=1e-3, t_final=2.0, seed=102)
        n = 100_000
        traj = reflection_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg,
                               n_paths=n, record_every=cfg.n_steps)
        merge_t = np.where(np.isnan(traj.merge_time), np.inf, traj.merge_time)
        ts = np.array([0.5, 1.0, 2.0])
        surv_oracle, _ = scalar_radial_sde(1.0, ts, cfg.dt, n, seed=9102)
        for t, q in zip(ts, surv_oracle):
            p = float((merge_t > t).mean())
            se = math.sqrt(p * (1 - p) / n + q * (1 - q) / n)
            assert abs(p - q) <= 3.0 * se, (t, p, q)


def test_criterion_06_lyapunov_moment(ou1):
    with _Gate(6, "Lyapunov moment within 3 sigma of sqrt(2), below bound", 60.0):
        cfg = SimConfig(dt=1e-3, t_final=1.0, seed=103)
        est = lyapunov_expectation(ou1, 0.125, cfg, n_replicas=64,
                                   samples_per_replica=400)
        target = math.sqrt(2.0)
        assert abs(est.value - target) <= 3.0 * est.stderr
        bound = lyapunov_bound(0.0, 1.0, 0.0, 1, 0.125)
        assert abs(bound - 5.0 * math.exp(0.625)) <= 1e-12
        assert est.value <= bound


def test_criterion_07_harnack(ou1):
    with _Gate(7, "Harnack: closed-form grid, Girsanov MC, merge, E[R]=1", 120.0):
        # closed-form inequality grid for f = exp (OU semigroup)
        for t in (0.5, 1.0, 2.0):
            for dist in (0.5, 1.0, 2.0):
                for alpha in (1.5, 2.0):
                    x, y = dist / 2.0, -dist / 2.0
                    my, var = ou_transition(y, t)
                    mx, _ = ou_transition(x, t)
                    lhs = gaussian_exp_moment(1.0, my, var) ** alpha
                    rhs = gaussian_exp_moment(alpha, mx, var) * harnack_factor(
                        0.0, math.sqrt(2.0), alpha, t, dist
                    )
                    assert lhs <= rhs * (1.0 + 1e-12), (t, dist, alpha)
        # Girsanov-coupled Monte Carlo
        cfg = SimConfig(dt=1e-4, t_final=1.0, seed=104)
        n = 10_000
        cap = 3.0
        traj = harnack_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg, k_w=0.0,
                            n_paths=n, record_every=cfg.n_steps)
        assert traj.merged.all()            # 100% merge fraction
        w = np.exp(traj.girsanov_logw)
        assert abs(w.mean() - 1.0) <= 3.0 * w.std(ddof=1) / math.sqrt(n)
        vals = np.minimum(np.exp(traj.z_prime[-1][:, 0]), math.exp(cap)) * w
        my, var = ou_transition(-0.5, 1.0)
        closed = clipped_exp_expectation(my, var, cap)
        assert abs(vals.mean() - closed) <= 3.0 * vals.std(ddof=1) / math.sqrt(n)


def test_criterion_08_kinetic_envelope(kinetic_bench):
    with _Gate(8, "kinetic coupling below C1 e^{-kt} rho envelope; marginals", 300.0):
        model, table = kinetic_bench
        norm = normalize_kinetic(model)
        cfg = SimConfig(dt=1e-3, t_final=10.0, seed=105, n_smooth=1000)
        z0 = np.array([3.0, 0.0, 0.0, 0.0])
        zp0 = np.array([-2.0, 1.0, 0.5, -0.5])
        n = 10_000
        rep = w1_contraction("kinetic", norm, z0, zp0, cfg, n_paths=n,
                             table=table, slack=0.10)
        assert rep.envelope_ok
        # marginal law of the coupled copy matches an independent simulation
        traj = kinetic_coupled_pair(norm, table, table.params, z0, zp0, cfg,
                                    n_paths=4000, record_every=cfg.n_steps)
        from nesslsi.simulate import SdeSystem

        sys_ = SdeSystem(dim=4, drift=norm.control_drift, noise_dim=2,
                         noise_scale=math.sqrt(2.0))
        indep = em_path(sys_, zp0, SimConfig(dt=1e-3, t_final=10.0, seed=90105),
                        n_paths=4000, record_every=cfg.n_steps).terminal
        coup = traj.z_prime[-1]
        for k in range(4):
            for power in (1, 2):
                a, b = coup[:, k] ** power, indep[:, k] ** power
                se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(4000)
                assert abs(a.mean() - b.mean()) <= 3.0 * se + 1e-3, (k, power)


def test_criterion_09_feynman_kac():
    with _Gate(9, "Feynman-Kac: constant-potential exactness; PDE oracle 2%", 120.0):
        c, T = 0.3, 2.0
        sys_c = elliptic_fk_system(lambda s: -s, lambda s: np.full(s.shape[:-1], c), 1)
        cfg = SimConfig(dt=1e-3, t_final=T, seed=106)
        est = feynman_kac_h(sys_c, np.array([0.0]), T, 400, cfg)
        assert est.stderr <= 1e-15 * est.value
        assert abs(est.value - math.exp(c * T)) <= 1e-12

        from oracles import crank_nicolson_h

        xs, h = crank_nicolson_h(lambda x: -0.9 * x, lambda x: 0.1 * (1.0 + x * x),
                                 -10.0, 10.0, 1601, T, 2000)
        oracle = float(np.interp(0.5, xs, h))
        sys_q = elliptic_fk_system(
            lambda s: -0.9 * s, lambda s: 0.1 * (1.0 + np.sum(s * s, axis=-1)), 1
        )
        est = feynman_kac_h(sys_q, np.array([0.5]), T, 100_000, cfg)
        assert abs(est.value - oracle) / oracle <= 0.02


def test_criterion_10_u_lipschitz_scan():
    with _Gate(10, "u_T bounded+Lipschitz scan with fitted constants", 300.0):
        from nesslsi.models import _bump

        a = 0.5
        b1 = lambda x: a * _bump(x)
        b0 = lambda x: -x
        model = EllipticModel(
            d=1, drift=lambda x: b0(x) + b1(x), sigma=math.sqrt(2.0),
            rho=0.1, lip=1.0, radius=2.0, b0=b0, b1=b1, grad_log_ref=lambda x: -x,
        )
        fields = derive_elliptic_fields(model)
        grid = np.linspace(-1.2, 1.2, 100_001)[:, None]
        m_phi = float(np.abs(fields.phi(grid)).max())
        cfg = SimConfig(dt=2e-3, t_final=3.0, seed=107)
        bt_model = EllipticModel(d=1, drift=fields.b_tilde, sigma=math.sqrt(2.0),
                                 rho=0.1, lip=1.0, radius=2.0)
        rep = w1_contraction("reflection", bt_model, np.array([1.5]),
                             np.array([-1.5]), cfg, n_paths=20_000)
        c_prime = rep.fit.c_hat / rep.fit.kappa_hat
        sys_ = elliptic_fk_system(fields.b_tilde, fields.phi, 1)
        points = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        scan = u_lipschitz_scan(sys_, points, 3.0, 20_000, cfg,
                                m_phi=m_phi, l_phi=0.0, c_prime=c_prime)
        assert scan.ok
        # phi == 0 control: u_T identically zero within confidence intervals
        sys0 = elliptic_fk_system(fields.b_tilde, lambda s: np.zeros(s.shape[:-1]), 1)
        scan0 = u_lipschitz_scan(sys0, points, 3.0, 2_000, cfg,
                                 m_phi=0.0, l_phi=0.0, c_prime=c_prime)
        assert np.all(np.abs(scan0.u_vals) <= 3.0 * scan0.u_stderr + 1e-12)


def test_criterion_11_hypercontractivity(ou1):
    with _Gate(11, "hypercontractivity probe vs Gaussian closed form and bound", 180.0):
        cfg = SimConfig(dt=2e-3, t_final=1.0, seed=108)
        for c in (0.3, 0.6):
            res = hypercontractivity_probe(
                ou1, lambda s: np.exp(c * s[..., 0]), 2.0, 3.0, 6.0,
                n_outer=128, n_inner=1024, cfg=cfg,
            )
            closed = ou_hyper_ratio(c, 2.0, 3.0, 6.0)
            assert abs(res.ratio.value - closed) <= 3.0 * res.ratio.stderr, c
            assert abs(res.t0 - 3.0) < 1e-12   # t = 6 = 2 t0
            assert res.ok                       # ratio below the explicit bound


def test_criterion_12_mckean_vlasov():
    with _Gate(12, "interacting particles: decoupled sanity + growth probe", 180.0):
        kernel = arctan_kernel(1)
        cfg = SimConfig(dt=2e-3, t_final=4.0, seed=109)
        rep0 = mckv_fixed_point(kernel, lambda x: x, lam=0.0,
                                n_particles=256, n_iters=3, cfg=cfg)
        assert rep0.w2_distances[-1] <= 3.0 * 256 ** (-0.25)
        rep = mckv_fixed_point(kernel, lambda x: x, lam=0.05,
                               n_particles=256, n_iters=4, cfg=cfg)
        assert rep.probe_ok
        assert rep.converged
