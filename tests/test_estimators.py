import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nesslsi import SimConfig, make_scenario
from nesslsi.models import (
    EllipticModel, KineticModel, arctan_kernel, derive_elliptic_fields, normalize_kinetic,
)
from nesslsi.simulate import derive_seed, reflection_pair
from nesslsi.estimators import (
    EstimatorDiverged,
    UnstableLogError,
    WeightOverflowError,
    _w2_coordinatewise,
    coalescence_probability,
    defective_lsi_check,
    elliptic_fk_system,
    feynman_kac_h,
    fit_exponential_rate,
    harnack_check,
    hypercontractivity_probe,
    kinetic_fk_system,
    lyapunov_expectation,
    mckv_fixed_point,
    mollified_split,
    u_lipschitz_scan,
    w1_contraction,
)
from oracles import (
    clipped_exp_expectation,
    gaussian_expectation,
    gauss_quad,
    mckv_stationary_moments,
    ou_hyper_ratio,
    ou_transition,
    scalar_radial_sde,
)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_exponential_exact():
    ts = [0.0, 1.0, 2.0]
    ms = [2.0 * math.exp(-3.0 * t) for t in ts]
    fit = fit_exponential_rate(ts, ms)
    assert abs(fit.c_hat - 2.0) < 1e-12
    assert abs(fit.kappa_hat - 3.0) < 1e-12
    assert fit.residual < 1e-14


def test_fit_exponential_constant_series():
    fit = fit_exponential_rate([0.0, 0.5, 1.0, 2.0], [1.3] * 4)
    assert abs(fit.kappa_hat) < 1e-12


def test_fit_exponential_noisy_rate_recovered():
    gen = np.random.default_rng(0)
    ts = np.linspace(0.0, 3.0, 40)
    ms = np.exp(-ts) * (1.0 + 0.01 * gen.standard_normal(ts.size))
    fit = fit_exponential_rate(ts, ms)
    assert 0.95 <= fit.kappa_hat <= 1.05


def test_fit_exponential_input_validation():
    with pytest.raises(ValueError):
        fit_exponential_rate([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_exponential_rate([0.0, 1.0, 2.0], [1.0, -0.5, 0.1])


# ---------------------------------------------------------------------------
# W1 contraction / coalescence
# ---------------------------------------------------------------------------


def test_w1_synchronous_ou_rate(ou1):
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=1)
    rep = w1_contraction("synchronous", ou1, np.array([1.0]), np.array([0.0]), cfg, 1000)
    assert abs(rep.fit.kappa_hat - 1.0) <= 0.02
    assert np.all(np.diff(rep.mean_dist) <= 1e-15)   # exact monotone decay


def test_w1_reflection_ou_rate_and_oracle_match(ou1):
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=2)
    n = 20_000
    rep = w1_contraction("reflection", ou1, np.array([0.5]), np.array([-0.5]), cfg, n)
    assert rep.fit.kappa_hat >= 0.5
    _, mean_oracle = scalar_radial_sde(1.0, rep.times, cfg.dt, n, seed=777)
    se = 3.0 * (1.0 / math.sqrt(n)) * 2.0  # crude scale bound on both samplers
    assert np.max(np.abs(rep.mean_dist - mean_oracle)) <= se


def test_w1_memory_does_not_grow_with_the_records(ou1):
    """w1_contraction keeps the mean separation per record time, not the
    coupled states: its traced peak at 20,000 paths is the same at 101 and
    200 records, far below the 16 MB that one copy's full record takes."""
    peaks = []
    for dt, records in ((1e-2, 101), (1.0 / 199, 200)):
        cfg = SimConfig(dt=dt, t_final=1.0, seed=8)
        tracemalloc.start()
        try:
            rep = w1_contraction("reflection", ou1, np.array([0.5]), np.array([-0.5]),
                                 cfg, 20_000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep.times.size == records
    assert max(peaks) < 8e6
    assert peaks[1] <= 1.1 * peaks[0]


def test_w1_requires_budget(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=3)
    with pytest.raises(ValueError, match="n_paths"):
        w1_contraction("synchronous", ou1, np.array([1.0]), np.array([0.0]), cfg, 10)


def test_w1_kinetic_envelope(kinetic_bench):
    model, table = kinetic_bench
    cfg = SimConfig(dt=2e-3, t_final=5.0, seed=4, n_smooth=1000)
    z0 = np.array([3.0, 0.0, 0.0, 0.0])
    zp0 = np.array([-2.0, 1.0, 0.5, -0.5])
    rep = w1_contraction(
        "kinetic", normalize_kinetic(model), z0, zp0, cfg, 2000, table=table,
    )
    assert rep.envelope_ok
    assert rep.fit.kappa_hat > 0.0   # the coupled pair actually contracts


def test_w1_accepts_initial_pair_law(ou1):
    # per-path initial conditions stand in for a random initial pair law
    n = 2000
    gen = np.random.default_rng(44)
    x0 = gen.standard_normal((n, 1)) + 2.0
    y0 = gen.standard_normal((n, 1)) - 2.0
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=45)
    rep = w1_contraction("synchronous", ou1, x0, y0, cfg, n)
    assert abs(rep.fit.kappa_hat - 1.0) <= 0.02
    start = float(np.mean(np.abs(x0 - y0)))
    assert abs(rep.mean_dist[0] - start) < 1e-12


def test_coalescence_trivial_and_structure(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=5)
    same = coalescence_probability(ou1, np.array([0.7]), np.array([0.7]), cfg, 1000)
    assert np.all(same.survival == 0.0)
    rep = coalescence_probability(ou1, np.array([0.5]), np.array([-0.5]), cfg, 4000)
    assert np.all(np.diff(rep.survival) <= 0.0)      # merged pairs stay merged
    # the survival is the boolean (time, path) mean, bit for bit
    merge_t = reflection_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg, 4000,
                              cfg.n_steps).merge_time
    alive = rep.times[:, None] < np.where(np.isnan(merge_t), np.inf, merge_t)
    assert rep.survival.tobytes() == alive.mean(axis=1).tobytes()
    assert rep.envelope_ok


def test_w1_and_coalescence_share_one_run_per_input(monkeypatch):
    """Equal requests of w1_contraction and coalescence_probability share one
    reflection run, with the bits of runs made apart; a different pair,
    n_paths, seed or model (another object) runs again."""
    from nesslsi import estimators

    calls = []

    def counting(*args, _run=estimators.reflection_pair, **kwargs):
        calls.append(args[4])
        return _run(*args, **kwargs)

    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=31)
    x0, y0 = np.array([0.5]), np.array([-0.5])
    # apart: each on a model object of its own
    want_w1 = w1_contraction("reflection", make_scenario("ou", {"d": 1}), x0, y0, cfg, 1000)
    want_co = coalescence_probability(make_scenario("ou", {"d": 1}), x0, y0, cfg, 1000)
    monkeypatch.setattr(estimators, "reflection_pair", counting)
    ou = make_scenario("ou", {"d": 1})
    co = coalescence_probability(ou, [0.5], [-0.5], cfg, 1000)
    w1 = w1_contraction("reflection", ou, x0, y0, cfg, 1000)
    assert calls == [1000]
    assert co.survival.tobytes() == want_co.survival.tobytes()
    assert w1.mean_dist.tobytes() == want_w1.mean_dist.tobytes()
    assert w1.fit == want_w1.fit
    w1.mean_dist[:] = 0.0      # the caller's arrays are its own
    assert coalescence_probability(ou, x0, y0, cfg, 1000).survival.tobytes() == \
        want_co.survival.tobytes()
    assert w1_contraction("reflection", ou, x0, y0, cfg, 1000).mean_dist.tobytes() == \
        want_w1.mean_dist.tobytes()
    assert calls == [1000]
    for model, pair, n, run_cfg in (
        (ou, (x0, np.array([-0.25])), 1000, cfg),
        (ou, (x0, y0), 1001, cfg),
        (ou, (x0, y0), 1000, SimConfig(dt=1e-2, t_final=1.0, seed=32)),
        (make_scenario("ou", {"d": 1}), (x0, y0), 1000, cfg),
    ):
        calls.clear()
        coalescence_probability(model, *pair, run_cfg, n)
        w1_contraction("reflection", model, *pair, run_cfg, n)
        assert calls == [n]


def test_coalescence_matches_first_hit_oracle(ou1):
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=6)
    n = 20_000
    rep = coalescence_probability(ou1, np.array([0.5]), np.array([-0.5]), cfg, n)
    surv_oracle, _ = scalar_radial_sde(1.0, rep.times[1:], cfg.dt, n, seed=4242)
    p, q = rep.survival[1:], surv_oracle
    se = np.sqrt(p * (1 - p) / n + q * (1 - q) / n)
    assert np.all(np.abs(p - q) <= 3.0 * se + 1e-12)


# ---------------------------------------------------------------------------
# Lyapunov moments
# ---------------------------------------------------------------------------


def test_lyapunov_ou_d1_gaussian_value(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=7)
    est = lyapunov_expectation(ou1, 0.125, cfg, n_replicas=64, samples_per_replica=200)
    target = 1.0 / math.sqrt(1.0 - 4.0 * 0.125)   # (1 - 4 delta)^{-1/2} = sqrt(2)
    assert abs(est.value - target) <= 3.0 * est.stderr
    assert est.passed


def test_lyapunov_ou_d2_gaussian_value(ou2):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=8)
    est = lyapunov_expectation(ou2, 0.125, cfg, n_replicas=64, samples_per_replica=200)
    assert abs(est.value - 2.0) <= 3.0 * est.stderr   # (1 - 4 delta)^{-d/2}


def test_lyapunov_small_delta_near_one(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=9)
    est = lyapunov_expectation(ou1, 1e-4, cfg, n_replicas=16, samples_per_replica=50)
    assert abs(est.value - 1.0) < 0.01


def test_lyapunov_delta_range_enforced(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=10)
    with pytest.raises(ValueError):
        lyapunov_expectation(ou1, 0.3, cfg)


def test_lyapunov_reproducible_bit_exact(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=11)
    a = lyapunov_expectation(ou1, 0.125, cfg, n_replicas=8, samples_per_replica=50)
    b = lyapunov_expectation(ou1, 0.125, cfg, n_replicas=8, samples_per_replica=50)
    assert a.value == b.value and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# Harnack inequality
# ---------------------------------------------------------------------------


def test_harnack_constant_function_passes(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=12)
    chk = harnack_check(ou1, lambda s: np.ones(s.shape[0]), 2.0,
                        np.array([0.5]), np.array([-0.5]), 1.0, 2000, cfg)
    assert abs(chk.lhs - 1.0) < 1e-12
    assert chk.rhs >= 1.0
    assert chk.ok


def test_harnack_jensen_case_battery(ou1):
    cfg = SimConfig(dt=1e-2, t_final=0.5, seed=13)
    x = np.array([0.3])
    fs = [
        lambda s: np.ones(s.shape[0]),
        lambda s: np.minimum(np.exp(s[:, 0]), math.e**2),
        lambda s: 1.0 / (1.0 + s[:, 0] ** 2),
        lambda s: np.abs(s[:, 0]),
    ]
    models = [ou1, make_scenario("double-well"), make_scenario("rotating")]
    for model in models:
        x0 = np.full(model.d, 0.3)
        for f in fs:
            chk = harnack_check(model, f, 2.0, x0, x0, 0.5, 4000, cfg, k_w=0.5)
            assert chk.ok


def test_harnack_mc_matches_closed_forms(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=14)
    t, cap = 1.0, 3.0
    x, y = np.array([0.5]), np.array([-0.5])
    f = lambda s: np.minimum(np.exp(s[:, 0]), math.exp(cap))
    chk = harnack_check(ou1, f, 2.0, x, y, t, 40_000, cfg)
    mean_y, var = ou_transition(y[0], t)
    mean_x, _ = ou_transition(x[0], t)
    lhs_closed = clipped_exp_expectation(mean_y, var, cap) ** 2.0
    # E[min(e^X, e^cap)^2] = E[min(e^{2X}, e^{2 cap})]
    rhs_closed = clipped_exp_expectation(2.0 * mean_x, 4.0 * var, 2.0 * cap) * chk.factor
    assert abs(chk.lhs - lhs_closed) <= 3.0 * chk.lhs_stderr
    assert abs(chk.rhs - rhs_closed) <= 3.0 * chk.rhs_stderr
    assert lhs_closed <= rhs_closed
    assert chk.ok


def test_harnack_rejects_f_negative_on_the_rhs_sample(ou1):
    """f >= 0 is checked on both samples: f(s) = s + 2 is negative only near
    x = -5, where the rhs paths start, and f^1.5 would be nan there."""
    cfg = SimConfig(dt=1e-2, t_final=0.1, seed=15)
    with pytest.raises(ValueError, match="nonnegative"):
        harnack_check(ou1, lambda s: s[:, 0] + 2.0, 1.5, np.array([-5.0]), np.array([5.0]),
                      0.1, 1000, cfg)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a path was simulated before the arguments were checked")


def test_closed_forms_check_their_arguments_before_the_first_path(ou1, monkeypatch):
    """The Lyapunov bound checks delta, the Harnack factor alpha and the
    perturbation bound c_prime, m_phi and l_phi before any path is run."""
    from nesslsi import estimators

    for name in ("ergodic_sample", "em_path", "feynman_kac_h"):
        monkeypatch.setattr(estimators, name, _must_not_run)
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=28)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, rho/4\)"):
        lyapunov_expectation(ou1, 0.25, cfg)
    f = lambda s: np.exp(s[..., 0])
    with pytest.raises(ValueError, match="alpha must exceed 1"):
        harnack_check(ou1, f, 1.0, np.array([0.5]), np.array([-0.5]), 1.0, 100, cfg)
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.zeros(s.shape[:-1]), 1)
    points = np.array([[0.0], [1.0]])
    for kwargs, match in (({"c_prime": 0.0}, "c_prime must be positive"),
                          ({"c_prime": 1.0, "m_phi": -1.0}, "nonnegative"),
                          ({"c_prime": 1.0, "l_phi": -1.0}, "nonnegative")):
        with pytest.raises(ValueError, match=match):
            u_lipschitz_scan(sys_, points, 1.0, 100, cfg, **kwargs)


# ---------------------------------------------------------------------------
# Feynman-Kac
# ---------------------------------------------------------------------------


def test_fk_constant_potential_exact_zero_variance():
    c, T = 0.3, 2.0
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.full(s.shape[:-1], c), 1)
    cfg = SimConfig(dt=1e-3, t_final=T, seed=15)
    est = feynman_kac_h(sys_, np.array([0.4]), T, 500, cfg)
    assert est.stderr <= 1e-15 * est.value   # deterministic weight
    assert abs(est.value - math.exp(c * T)) < 1e-12


def test_fk_shift_multiplies_exactly():
    T, c = 1.0, 0.7
    base = lambda s: 0.2 * np.sin(s[..., 0])
    sys_a = elliptic_fk_system(lambda s: -s, base, 1)
    sys_b = elliptic_fk_system(lambda s: -s, lambda s: base(s) + c, 1)
    cfg = SimConfig(dt=1e-3, t_final=T, seed=16)
    a = feynman_kac_h(sys_a, np.array([0.0]), T, 300, cfg)
    b = feynman_kac_h(sys_b, np.array([0.0]), T, 300, cfg)
    assert abs(b.value / a.value - math.exp(c * T)) < 1e-12


def test_fk_matches_crank_nicolson_oracle():
    from oracles import crank_nicolson_h

    b = lambda x: -0.9 * x
    phi = lambda x: 0.1 * (1.0 + x * x)
    xs, h = crank_nicolson_h(b, phi, -10.0, 10.0, 1601, 2.0, 2000)
    oracle = float(np.interp(0.5, xs, h))
    sys_ = elliptic_fk_system(
        lambda s: -0.9 * s, lambda s: 0.1 * (1.0 + np.sum(s * s, axis=-1)), 1
    )
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=17)
    est = feynman_kac_h(sys_, np.array([0.5]), 2.0, 20_000, cfg)
    assert abs(est.value - oracle) / oracle < 0.02


def test_fk_kinetic_zero_forcing_is_unit():
    m = make_scenario("kinetic-quadratic", {"d": 1, "gamma": 1.0})
    sys_ = kinetic_fk_system(m)
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=18)
    est = feynman_kac_h(sys_, np.zeros(2), 1.0, 200, cfg)
    assert est.value == 1.0 and est.stderr == 0.0


def test_fk_kinetic_fd_potential_matches_closed_form():
    """With a forcing and no potential given, phi = -div_v G + G.v takes
    div_v G by central differences; for G(x, v) = 0.03 sin(x - v) the closed
    form is div_v G = -0.03 sum cos(x_i - v_i)."""
    d = 2
    k = np.array([[1.2, 0.3], [0.3, 0.9]])
    forcing = lambda x, v: 0.03 * np.sin(x - v)
    m = KineticModel(d=d, gamma=1.0, grad_potential=lambda x: x @ k.T, k_matrix=k,
                     forcing=forcing)
    z = np.random.default_rng(21).normal(size=(500, 2 * d))
    x, v = z[:, :d], z[:, d:]
    want = 0.03 * np.sum(np.cos(x - v), axis=-1) + np.sum(forcing(x, v) * v, axis=-1)
    np.testing.assert_allclose(kinetic_fk_system(m).potential(z), want, rtol=0, atol=1e-9)


def test_fk_weight_overflow_detected():
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.full(s.shape[:-1], 500.0), 1)
    cfg = SimConfig(dt=1e-2, t_final=2.0, seed=19)
    with pytest.raises(WeightOverflowError):
        feynman_kac_h(sys_, np.zeros(1), 2.0, 16, cfg)


# ---------------------------------------------------------------------------
# u_T scan and mollified split
# ---------------------------------------------------------------------------


def _compact_perturbation_model(a=0.5):
    from nesslsi.models import _bump

    b1 = lambda x: a * _bump(x)
    b0 = lambda x: -x
    return EllipticModel(
        d=1, drift=lambda x: b0(x) + b1(x), sigma=math.sqrt(2.0),
        rho=0.1, lip=1.0, radius=2.0, b0=b0, b1=b1, grad_log_ref=lambda x: -x,
    )


def test_u_scan_zero_potential_all_margins_equal_bound():
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.zeros(s.shape[:-1]), 1)
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=20)
    scan = u_lipschitz_scan(sys_, np.array([[0.0], [1.0]]), 1.0, 500, cfg,
                            m_phi=0.0, l_phi=0.3, c_prime=2.0)
    assert scan.ok
    # u identically 0: the worst margin is exactly the bound at unit distance
    assert abs(scan.worst_margin - 0.6) < 1e-12
    np.testing.assert_allclose(scan.u_vals, 0.0, atol=1e-14)


def test_u_scan_single_point_vacuous():
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.zeros(s.shape[:-1]), 1)
    cfg = SimConfig(dt=1e-2, t_final=0.5, seed=21)
    scan = u_lipschitz_scan(sys_, np.array([[0.0]]), 0.5, 200, cfg,
                            m_phi=1.0, l_phi=0.0, c_prime=1.0)
    assert scan.ok and scan.worst_pair is None


def test_u_scan_unstable_log_raises():
    sys_ = elliptic_fk_system(
        lambda s: -s, lambda s: 3.0 * s[..., 0] ** 2, 1
    )
    cfg = SimConfig(dt=1e-2, t_final=2.0, seed=22)
    with pytest.raises((UnstableLogError, WeightOverflowError)):
        u_lipschitz_scan(sys_, np.array([[0.0], [1.0]]), 2.0, 30, cfg,
                         m_phi=1.0, l_phi=0.0, c_prime=1.0)


def test_u_scan_compact_perturbation_passes():
    model = _compact_perturbation_model()
    fields = derive_elliptic_fields(model)
    xs = np.linspace(-1.2, 1.2, 100_001)[:, None]
    m_phi = float(np.abs(fields.phi(xs)).max())
    cfg = SimConfig(dt=2e-3, t_final=3.0, seed=23)
    bt_model = EllipticModel(d=1, drift=fields.b_tilde, sigma=math.sqrt(2.0),
                             rho=0.1, lip=1.0, radius=2.0)
    rep = w1_contraction("reflection", bt_model, np.array([1.5]), np.array([-1.5]),
                         cfg, 4000)
    c_prime = rep.fit.c_hat / rep.fit.kappa_hat
    sys_ = elliptic_fk_system(fields.b_tilde, fields.phi, 1)
    scan = u_lipschitz_scan(sys_, np.array([[-2.0], [0.0], [2.0]]), 3.0, 4000, cfg,
                            m_phi=m_phi, l_phi=0.0, c_prime=c_prime)
    assert scan.ok


def test_mollified_split_linear():
    xs = np.linspace(-2.0, 2.0, 801)
    u = 1.3 * xs + 0.2
    lip, rem = mollified_split(u, xs, eps=0.1)
    assert abs(lip - 1.3) < 1e-9
    assert rem < 1e-12


def test_mollified_split_constant():
    xs = np.linspace(-1.0, 1.0, 401)
    lip, rem = mollified_split(np.full_like(xs, 0.7), xs, eps=0.05)
    assert lip <= 1e-12 and rem <= 1e-12


def test_mollified_split_abs_against_quadrature_oracle():
    xs = np.linspace(-1.0, 1.0, 2001)
    u = np.abs(xs)
    eps = 0.1
    lip, rem = mollified_split(u, xs, eps=eps)
    # |x| * g_eps at 0 equals eps * sqrt(2/pi); remainder is largest there
    oracle_at_0 = gauss_quad(
        lambda y: abs(y) * math.exp(-0.5 * (y / eps) ** 2) / (eps * math.sqrt(2 * math.pi)),
        -8.0 * eps, 8.0 * eps,
    )
    assert abs(rem - oracle_at_0) < 1e-3
    assert rem <= eps
    assert lip <= 1.0 + 1e-9


def test_mollified_split_requires_resolved_kernel():
    xs = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        mollified_split(xs, xs, eps=0.01)


# ---------------------------------------------------------------------------
# hypercontractivity probe
# ---------------------------------------------------------------------------


def test_hyper_probe_constant_function(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=24)
    res = hypercontractivity_probe(ou1, lambda s: np.ones(s.shape[0]), 2.0, 3.0, 7.0,
                                   n_outer=32, n_inner=1000, cfg=cfg)
    assert abs(res.ratio.value - 1.0) < 1e-12
    assert res.ok
    # every inner statistic is exactly 1, so every level correction is 0
    assert all(lv["mean"] == 0.0 for lv in res.levels[1:] if lv["n_points"])


def test_hyper_probe_matches_gaussian_closed_form(ou1):
    cfg = SimConfig(dt=2e-3, t_final=1.0, seed=25)
    c = 0.5
    res = hypercontractivity_probe(ou1, lambda s: np.exp(c * s[..., 0]), 2.0, 3.0, 6.0,
                                   n_outer=128, n_inner=1024, cfg=cfg)
    closed = ou_hyper_ratio(c, 2.0, 3.0, 6.0)
    assert abs(res.ratio.value - closed) <= 3.0 * res.ratio.stderr
    assert res.ok   # ratio below the explicit bound at t = 2 t0


def test_hyper_probe_with_an_odd_step_count_runs_one_level(ou1, monkeypatch):
    """An odd number of inner steps admits no coarser level: the probe draws
    exactly n_steps inner normals on channel 0, besides the outer sample's."""
    from nesslsi import estimators, simulate

    draws = []
    for module in (simulate, estimators):
        def counting(*args, _draw=module.noise_normals):
            draws.append(args[:3])
            return _draw(*args)

        monkeypatch.setattr(module, "noise_normals", counting)
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=34)
    t = 6.07
    n_steps = replace(cfg, t_final=t).n_steps
    assert n_steps % 2 == 1
    res = hypercontractivity_probe(ou1, lambda s: np.exp(0.5 * s[..., 0]), 2.0, 3.0, t,
                                   n_outer=4, n_inner=1000, cfg=cfg)
    inner = derive_seed(cfg.seed, "hyper-inner")
    assert sorted(d for d in draws if d[0] == inner) == [(inner, k, 0) for k in range(n_steps)]
    outer = derive_seed(cfg.seed, "hyper-outer")
    assert all(d[0] == outer and d[2] == 0 for d in draws if d[0] != inner)
    assert [lv["dt"] for lv in res.levels] == [cfg.dt]
    assert res.dt_bias is None


@pytest.mark.filterwarnings("ignore:n_inner < 1000")
@pytest.mark.parametrize("scenario", ["double-well", "rotating"])
def test_hyper_probe_levels_stay_stable_on_nonconvex_scenarios(scenario):
    """At dt 1e-2 and t = 6 the probe runs four levels, the coarsest at
    dt 0.08, and no Euler copy blows up."""
    model = make_scenario(scenario, {})
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=35)
    res = hypercontractivity_probe(model, lambda s: np.exp(0.25 * s[..., 0]), 2.0, 3.0, 6.0,
                                   n_outer=64, n_inner=64, cfg=cfg)
    assert [lv["dt"] for lv in res.levels] == [0.08, 0.04, 0.02, 0.01]
    assert math.isfinite(res.ratio.value) and math.isfinite(res.ratio.stderr)


@pytest.mark.filterwarnings("ignore:n_inner < 1000")
def test_hyper_probe_levels_stop_where_the_euler_step_would_overshoot():
    """OU at rate 30: the Euler factor a = 1 - 30 dt is 0.7 at dt 1e-2, but
    dt 0.04 overshoots (a < 0) and dt 0.08 diverges (|a| > 1), so the probe
    runs one correction level, from 2 dt, and matches the Euler chain's closed form: P_t f is about constant at
    t = 6, so the ratio is exp((1 - alpha) c^2 v / 2), v its stationary
    variance."""
    model = make_scenario("ou", {"rate": 30.0})
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=36)
    c, alpha = 0.25, 2.0
    res = hypercontractivity_probe(model, lambda s: np.exp(c * s[..., 0]), alpha, 3.0, 6.0,
                                   n_outer=256, n_inner=64, cfg=cfg)
    assert [lv["dt"] for lv in res.levels] == [0.02, 0.01]
    v = 2.0 * cfg.dt / (1.0 - (1.0 - 30.0 * cfg.dt) ** 2)
    closed = math.exp((1.0 - alpha) * c * c * v / 2.0)
    assert res.ok and abs(res.ratio.value - closed) <= 3.0 * res.ratio.stderr


@pytest.mark.filterwarnings("ignore:n_inner < 1000", "ignore::RuntimeWarning")
def test_hyper_probe_raises_when_f_overflows_on_the_inner_paths(ou1):
    """f = e^{300 x} overflows on the inner paths, so J = inf - inf is nan:
    not a positive moment, so the probe diverges instead of reporting nan."""
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=3)
    with pytest.raises(EstimatorDiverged, match="not positive"):
        hypercontractivity_probe(ou1, lambda s: np.exp(300.0 * s[..., 0]), 2.0, 3.0, 7.0,
                                 n_outer=64, n_inner=4, cfg=cfg)


def test_hyper_probe_raises_at_t_up_to_t0_before_sampling(ou1, monkeypatch):
    """No bound exists for t <= t0 (t0 is about 3 for ou1 at alpha = 2,
    beta = 3), so the probe raises before it draws any noise."""
    from nesslsi import simulate

    draws = []

    def counting(*args, _draw=simulate.noise_normals):
        draws.append(args)
        return _draw(*args)

    monkeypatch.setattr(simulate, "noise_normals", counting)
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=27)
    for t in (2.9, 1.0):
        with pytest.raises(ValueError, match="t0"):
            hypercontractivity_probe(ou1, lambda s: np.ones(s.shape[0]), 2.0, 3.0, t,
                                     n_outer=8, n_inner=1000, cfg=cfg)
    assert draws == []


def test_hyper_probe_warns_on_small_inner(ou1):
    cfg = SimConfig(dt=1e-2, t_final=0.5, seed=26)
    with pytest.warns(UserWarning, match="n_inner"):
        hypercontractivity_probe(ou1, lambda s: np.ones(s.shape[0]), 2.0, 3.0, 7.0,
                                 n_outer=8, n_inner=64, cfg=cfg)


# ---------------------------------------------------------------------------
# defective LSI check
# ---------------------------------------------------------------------------


def test_defective_lsi_constant_density(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=27)
    chk = defective_lsi_check(
        ou1, lambda s: np.ones(s.shape[0]),
        lambda s: np.zeros_like(s), A=12.0, B=6 * math.log(5.0) + 3.75, cfg=cfg,
        n_replicas=8, samples_per_replica=50,
    )
    assert abs(chk.lhs) < 1e-12
    assert chk.ok


@pytest.mark.parametrize("case", ["square", "sine"])
def test_defective_lsi_matches_quadrature_oracle(ou1, case):
    if case == "square":
        f = lambda s: s[..., 0] ** 2
        grad_f = lambda s: 2.0 * s
        f1 = lambda x: x * x
        fisher1 = lambda x: 4.0          # (2x)^2 / x^2
    else:
        f = lambda s: 1.0 + 0.1 * np.sin(s[..., 0])
        grad_f = lambda s: 0.1 * np.cos(s)
        f1 = lambda x: 1.0 + 0.1 * math.sin(x)
        fisher1 = lambda x: (0.1 * math.cos(x)) ** 2 / (1.0 + 0.1 * math.sin(x))
    mass = gaussian_expectation(f1)
    lhs_oracle = gaussian_expectation(
        lambda x: (f1(x) / mass) * math.log(max(f1(x) / mass, 1e-300))
    )
    fisher_oracle = gaussian_expectation(fisher1) / mass
    A, B = 12.0, 6 * math.log(5.0) + 3.75
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=28)
    chk = defective_lsi_check(ou1, f, grad_f, A, B, cfg,
                              n_replicas=48, samples_per_replica=300)
    se = chk.margin_stderr
    assert abs(chk.lhs - lhs_oracle) <= 4.0 * se + 0.01
    assert abs(chk.rhs - (A * fisher_oracle + B)) <= 4.0 * A * se + 0.05 * A
    assert lhs_oracle <= A * fisher_oracle + B
    assert chk.ok


# ---------------------------------------------------------------------------
# McKean-Vlasov fixed point
# ---------------------------------------------------------------------------


def _w2_assignment(a, b):
    from scipy.optimize import linear_sum_assignment

    cost = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    rows, cols = linear_sum_assignment(cost)
    return math.sqrt(cost[rows, cols].mean())


def test_w2_coordinatewise_is_the_assignment_w2_in_1d_and_below_it_in_2d():
    gen = np.random.default_rng(1)
    a = gen.standard_normal((128, 1))
    b = gen.standard_normal((128, 1)) + 0.3
    assert abs(_w2_coordinatewise(a, b) - _w2_assignment(a, b)) < 1e-10
    # a correlated cloud against an independent one: the coordinate sum
    # misses the correlation, so it lies strictly below the joint W2
    z = gen.standard_normal((128, 1))
    a = np.hstack([z, z + 0.1 * gen.standard_normal((128, 1))])
    b = gen.standard_normal((128, 2))
    assert _w2_coordinatewise(a, b) < _w2_assignment(a, b)


def test_mckv_flags_an_expanding_cloud_as_not_converged():
    """With a confinement that pushes outward the Picard steps grow, and the
    W2 check says so."""
    rep = mckv_fixed_point(arctan_kernel(1), lambda x: -0.5 * x, 0.05, 256, 3,
                           SimConfig(dt=1e-2, t_final=3.0, seed=31))
    assert rep.w2_distances[0] < rep.w2_distances[1] < rep.w2_distances[2]
    assert not rep.converged


_MCKV_ORACLE_SEED = 211


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_mckv_particles_match_the_stationary_fixed_point(monkeypatch, lam):
    """Each coordinate of the final cloud has the mean and variance of the
    1-d McKean-Vlasov fixed point, within 3 stderr."""
    from nesslsi import estimators

    clouds = []

    def em_path(*args, _run=estimators.em_path, **kwargs):
        run = _run(*args, **kwargs)
        clouds.append(run.terminal)
        return run

    monkeypatch.setattr(estimators, "em_path", em_path)
    mckv_fixed_point(arctan_kernel(1), lambda x: x, lam, 256, 4,
                     SimConfig(dt=1e-2, t_final=3.0, seed=_MCKV_ORACLE_SEED))
    assert len(clouds) == 4
    mean, var = mckv_stationary_moments(lam)
    cloud = clouds[-1]
    n = cloud.shape[0]
    for x in cloud.T:
        centred = x - x.mean()
        m2 = np.mean(centred**2)
        m4 = np.mean(centred**4)
        assert abs(x.mean() - mean) <= 3.0 * math.sqrt(m2 / n)
        assert abs(x.var(ddof=1) - var) <= 3.0 * math.sqrt((m4 - m2 * m2) / n)


def test_mckv_decoupled_reaches_sampling_floor():
    cfg = SimConfig(dt=2e-3, t_final=4.0, seed=29)
    rep = mckv_fixed_point(arctan_kernel(1), lambda x: x, lam=0.0,
                           n_particles=256, n_iters=3, cfg=cfg)
    assert rep.w2_distances[-1] <= 3.0 * 256 ** (-0.25)
    assert rep.converged


def test_mckv_weak_interaction_contracts_and_probe_passes():
    cfg = SimConfig(dt=2e-3, t_final=4.0, seed=30)
    rep = mckv_fixed_point(arctan_kernel(1), lambda x: x, lam=0.05,
                           n_particles=256, n_iters=4, cfg=cfg)
    assert rep.w2_distances[-1] < rep.w2_distances[0]
    assert rep.probe_ok
    assert rep.probe_stat <= 5.0


def test_mckv_particle_statistics_keep_their_bits():
    """The W2 diagnostic reads the particle clouds and draws nothing from
    their streams, so the cloud's statistics are pinned bit for bit."""
    rep = mckv_fixed_point(arctan_kernel(1), lambda x: x, 0.05, 256, 4,
                           SimConfig(dt=1e-2, t_final=2.0, seed=109))
    assert repr(rep.mean_abs) == "1.2794044023771618"
    assert repr(rep.probe_stat) == "1.0875794179121625"
    assert rep.probe_ok


def test_mckv_requires_minimum_particles():
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=31)
    with pytest.raises(ValueError):
        mckv_fixed_point(arctan_kernel(1), lambda x: x, 0.0, 32, 2, cfg)
