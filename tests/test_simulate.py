import hashlib
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslsi.models import EllipticModel, KineticModel, make_scenario, normalize_kinetic
from nesslsi.simulate import (
    SdeSystem,
    SimConfig,
    SimulationBlowUp,
    em_path,
    harnack_pair,
    kinetic_coupled_pair,
    noise_normals,
    pair_to_csv_rows,
    rc_profile,
    reflection_pair,
    synchronous_pair,
)
from oracles import ou_transition, rk4_ode, scalar_radial_sde


def test_noise_per_path_stable_under_ensemble_size():
    big = noise_normals(7, 11, 0, (64, 3))
    small = noise_normals(7, 11, 0, (8, 3))
    np.testing.assert_array_equal(big[:8], small)


def _fresh_philox_normals(seed, step, channel, shape):
    key = np.array([seed, (step << 3) | channel], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


_NOISE_CASES = [(2**64 - 1, 10**6, channel, shape)
                for shape in ((1, 1), (5, 3), (4096, 2)) for channel in range(3)]


def test_noise_normals_equals_freshly_keyed_philox():
    """Re-keying the thread's generator gives the numbers of a new Philox
    with the same key, in any interleaving and from threads at once."""
    want = {case: _fresh_philox_normals(*case) for case in _NOISE_CASES}
    for case in _NOISE_CASES + _NOISE_CASES[::-1]:    # interleaved shapes and channels
        np.testing.assert_array_equal(noise_normals(*case), want[case])

    n_threads, rounds = 4, 20
    barrier = threading.Barrier(n_threads)
    mismatches = []

    def draw(offset):
        barrier.wait(timeout=30)
        for r in range(rounds):
            case = _NOISE_CASES[(offset + r) % len(_NOISE_CASES)]
            if not np.array_equal(noise_normals(*case), want[case]):
                mismatches.append(case)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0, t_final=1.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, t_final=1.0, seed=0)
    assert SimConfig(dt=1e-3, t_final=1.0, seed=0).n_steps == 1000


def test_driftless_noiseless_path_is_constant():
    sys_ = SdeSystem(dim=2, drift=lambda x: np.zeros_like(x), noise_dim=2, noise_scale=0.0)
    cfg = SimConfig(dt=0.1, t_final=1.0, seed=0)
    traj = em_path(sys_, np.array([1.0, -2.0]), cfg, n_paths=3)
    np.testing.assert_array_equal(traj.states[-1], traj.states[0])


def test_em_path_deterministic(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=123)
    a = em_path(ou1, np.array([1.0]), cfg, n_paths=16)
    b = em_path(ou1, np.array([1.0]), cfg, n_paths=16)
    np.testing.assert_array_equal(a.states, b.states)


def test_ou_terminal_variance_matches_closed_form(ou1):
    cfg = SimConfig(dt=1e-3, t_final=5.0, seed=31)
    traj = em_path(ou1, np.zeros(1), cfg, n_paths=30_000, record_every=cfg.n_steps)
    term = traj.terminal[:, 0]
    _, var = ou_transition(0.0, 5.0)
    sample_var = term.var(ddof=1)
    stderr = sample_var * math.sqrt(2.0 / (term.size - 1))
    assert abs(sample_var - var) < 3.0 * stderr + 2e-3   # O(dt) bias allowance


def test_em_weak_order_one_common_noise(ou1):
    """Terminal-mean error vs the closed form scales like O(dt).

    All three dt levels share one Brownian path (coarse increments are sums
    of fine ones), so mean differences across levels isolate the O(dt)
    discretization bias from the common Monte Carlo noise.
    """
    T, seed, n_paths = 1.0, 77, 10_000
    dts = [1e-2, 1e-3, 1e-4]
    fine = dts[-1]
    steps_fine = int(round(T / fine))
    ratios = [int(round(d / fine)) for d in dts]
    states = [np.full(n_paths, 1.0) for _ in dts]
    acc = [np.zeros(n_paths) for _ in dts]
    sq = math.sqrt(2.0) * math.sqrt(fine)
    for step in range(steps_fine):
        xi = sq * noise_normals(seed, step, 0, (n_paths,))
        for lev, ratio in enumerate(ratios):
            acc[lev] += xi
            if (step + 1) % ratio == 0:
                d = dts[lev]
                states[lev] = states[lev] - states[lev] * d + acc[lev]
                acc[lev] = np.zeros(n_paths)
    means = [s.mean() for s in states]
    diffs = [abs(means[0] - means[2]), abs(means[1] - means[2])]
    order = math.log(diffs[0] / diffs[1]) / math.log(dts[0] / dts[1])
    assert order >= 0.8


def test_synchronous_ou_difference_decays_exactly(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=5)
    traj = synchronous_pair(ou1, np.array([1.0]), np.array([0.0]), cfg, n_paths=8)
    sep = traj.separation
    np.testing.assert_allclose(sep[-1], (1.0 - cfg.dt) ** cfg.n_steps, rtol=1e-12)
    assert abs(sep[-1, 0] - math.exp(-1.0)) / math.exp(-1.0) < 0.01


def test_synchronous_driftless_difference_constant():
    sys_ = SdeSystem(dim=1, drift=lambda x: np.zeros_like(x), noise_dim=1, noise_scale=1.0)
    cfg = SimConfig(dt=0.01, t_final=1.0, seed=2)
    traj = synchronous_pair(sys_, np.array([1.0]), np.array([0.25]), cfg, n_paths=4)
    np.testing.assert_allclose(traj.separation, 0.75, atol=1e-12)


def test_synchronous_double_well_matches_ode_oracle():
    # noise-free limit: the coupled pair reduces to two ODEs
    m = make_scenario("double-well")
    quiet = SdeSystem(dim=1, drift=m.drift, noise_dim=1, noise_scale=1e-8)
    cfg = SimConfig(dt=1e-4, t_final=1.0, seed=3)
    traj = synchronous_pair(quiet, np.array([1.1]), np.array([0.9]), cfg, n_paths=1)
    x_ode = rk4_ode(lambda x: x - x**3, np.array([1.1]), 1.0, 4000)
    y_ode = rk4_ode(lambda x: x - x**3, np.array([0.9]), 1.0, 4000)
    expected = abs(x_ode[0] - y_ode[0])
    got = traj.separation[-1, 0]
    assert abs(got - expected) / expected < 0.01


def test_reflection_equal_start_merges_immediately(ou1):
    cfg = SimConfig(dt=1e-2, t_final=0.5, seed=4)
    traj = reflection_pair(ou1, np.array([0.3]), np.array([0.3]), cfg, n_paths=4)
    np.testing.assert_array_equal(traj.merge_time, 0.0)
    np.testing.assert_array_equal(traj.z, traj.z_prime)


def test_reflection_survival_matches_scalar_oracle(ou1):
    """In d = 1 the reflection difference is the scalar SDE
    dr = -r dt + 2 sqrt(2) dW absorbed at zero."""
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=6)
    n = 20_000
    traj = reflection_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg, n_paths=n,
                           record_every=100)
    merge_t = np.where(np.isnan(traj.merge_time), np.inf, traj.merge_time)
    check_times = np.array([0.5, 1.0, 2.0])
    surv_mc = [(merge_t > t).mean() for t in check_times]
    surv_oracle, _ = scalar_radial_sde(1.0, check_times, cfg.dt, n, seed=1234)
    for p_mc, p_or in zip(surv_mc, surv_oracle):
        se = math.sqrt(p_mc * (1 - p_mc) / n + p_or * (1 - p_or) / n)
        assert abs(p_mc - p_or) <= 3.0 * se


def test_reflection_d3_radial_mean_bound():
    m = make_scenario("ou", {"d": 3})
    cfg = SimConfig(dt=1e-3, t_final=2.0, seed=8)
    x0 = np.array([1.0, 0.0, 0.0])
    traj = reflection_pair(m, x0, np.zeros(3), cfg, n_paths=10_000, record_every=200)
    sep = traj.separation.mean(axis=1)
    bound = np.exp(-traj.times) * 1.0
    stderr = traj.separation.std(axis=1) / math.sqrt(10_000)
    assert np.all(sep <= bound * 1.02 + 3.0 * stderr)


def test_reflection_noise_is_norm_preserving():
    gen = np.random.default_rng(11)
    e = gen.standard_normal((100, 4))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    xi = gen.standard_normal((100, 4))
    refl = xi - 2.0 * e * np.sum(e * xi, axis=1, keepdims=True)
    np.testing.assert_allclose(
        np.linalg.norm(refl, axis=1), np.linalg.norm(xi, axis=1), atol=1e-12
    )


def test_merged_pairs_never_separate(ou1):
    cfg = SimConfig(dt=1e-3, t_final=3.0, seed=9)
    traj = reflection_pair(ou1, np.array([0.4]), np.array([-0.4]), cfg, n_paths=512,
                           record_every=50)
    merged = ~np.isnan(traj.merge_time)
    assert merged.mean() > 0.5
    for p in np.where(merged)[0][:64]:
        after = traj.times >= traj.merge_time[p]
        np.testing.assert_array_equal(traj.z[after, p], traj.z_prime[after, p])


def test_harnack_equal_start(ou1):
    cfg = SimConfig(dt=1e-2, t_final=1.0, seed=10)
    traj = harnack_pair(ou1, np.array([1.0]), np.array([1.0]), cfg, k_w=0.0, n_paths=4)
    np.testing.assert_array_equal(traj.merge_time, 0.0)
    np.testing.assert_allclose(np.exp(traj.girsanov_logw), 1.0)


def test_harnack_merges_by_horizon_and_weight_is_unbiased(ou1):
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=12)
    n = 20_000
    traj = harnack_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg, k_w=0.0, n_paths=n)
    assert traj.merged.all()
    assert np.nanmax(traj.merge_time) <= cfg.t_final + cfg.dt
    w = np.exp(traj.girsanov_logw)
    assert abs(w.mean() - 1.0) <= 3.0 * w.std(ddof=1) / math.sqrt(n)


def test_harnack_radial_decrease_rate(ou1):
    # |delta| must decrease at rate at least |x-y|/T along every path
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=13)
    traj = harnack_pair(ou1, np.array([0.5]), np.array([-0.5]), cfg, k_w=0.0,
                        n_paths=64, record_every=10)
    sep = traj.separation
    alive = traj.times[:, None] < np.where(np.isnan(traj.merge_time), np.inf,
                                           traj.merge_time)[None, :]
    envelope = np.broadcast_to(1.0 - traj.times[:, None] / cfg.t_final, sep.shape)
    assert np.all(sep[alive] <= envelope[alive] + 1e-9)


def test_rc_profile_boundary_cases():
    r0, n = 3.0, 100.0
    assert rc_profile(r0 + 1.0 / n, 1.0, r0, n) <= 1e-13   # threshold, up to rounding
    assert rc_profile(3.5, 1.0, r0, n) == 0.0
    assert rc_profile(1.0, 1.0 / n, r0, n) == 0.0
    assert rc_profile(1.0, 2.0 / n, r0, n) == 1.0
    assert rc_profile(r0, 0.5, r0, n) == 1.0
    mid = rc_profile(r0 + 0.5 / n, 1.5 / n, r0, n)
    assert 0.0 < mid < 1.0
    # limiting profile
    assert rc_profile(2.0, 0.3, r0, math.inf) == 1.0
    assert rc_profile(3.1, 0.3, r0, math.inf) == 0.0


def test_kinetic_pair_equal_start_stays_identical(kinetic_bench):
    model, params, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=0.5, seed=14, n_smooth=1000)
    z0 = np.array([1.0, 0.0, 0.0, 0.5])
    traj = kinetic_coupled_pair(norm, table, params, z0, z0, cfg, n_paths=4)
    np.testing.assert_array_equal(traj.z, traj.z_prime)
    np.testing.assert_allclose(traj.rc, 0.0)


def test_kinetic_pair_far_start_in_synchronous_regime(kinetic_bench):
    model, params, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=0.02, seed=15, n_smooth=1000)
    z0 = np.array([4.0, 0.0, 0.0, 0.0])
    zp0 = np.array([-4.0, 0.0, 0.0, 0.0])   # r = theta*8 >> r0 + 1/n
    traj = kinetic_coupled_pair(norm, table, params, z0, zp0, cfg, n_paths=4)
    np.testing.assert_allclose(traj.rc[0], 0.0)
    np.testing.assert_allclose(traj.rc[-1], 0.0)


def test_kinetic_pair_rc_sc_identity(kinetic_bench):
    model, params, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=16, n_smooth=1000)
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.0, 0.0])
    traj = kinetic_coupled_pair(norm, table, params, z0, zp0, cfg, n_paths=64,
                                record_every=50)
    assert traj.rc.max() > 0.0
    np.testing.assert_allclose(traj.rc**2 + traj.sc**2, 1.0, atol=1e-12)


def test_kinetic_pair_marginal_moments_match_independent_run(kinetic_bench):
    """The reassembled Brownian motion is again a Brownian motion, so the
    second copy's marginal law equals that of a plain simulation."""
    model, params, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=2e-3, t_final=2.0, seed=17, n_smooth=1000)
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.5, -0.5])
    n = 4000
    traj = kinetic_coupled_pair(norm, table, params, z0, zp0, cfg, n_paths=n,
                                record_every=cfg.n_steps)
    coupled_term = traj.z_prime[-1]

    indep_cfg = SimConfig(dt=cfg.dt, t_final=cfg.t_final, seed=18_000, n_smooth=1000)
    sys_ = SdeSystem(dim=4, drift=norm.model.control_drift, noise_dim=2,
                     noise_scale=math.sqrt(2.0))
    indep_term = em_path(sys_, zp0, indep_cfg, n_paths=n,
                         record_every=indep_cfg.n_steps).terminal
    for k in range(4):
        for power in (1, 2):
            a, b = coupled_term[:, k] ** power, indep_term[:, k] ** power
            se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(n)
            assert abs(a.mean() - b.mean()) <= 3.0 * se + 1e-3


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_blow_up_detection():
    from nesslsi.estimators import elliptic_fk_system, feynman_kac_h

    sys_ = SdeSystem(dim=1, drift=lambda x: x**3, noise_dim=1, noise_scale=0.0)
    cfg = SimConfig(dt=0.5, t_final=50.0, seed=19)
    with pytest.raises(SimulationBlowUp):
        em_path(sys_, np.array([3.0]), cfg, n_paths=2)
    # the second copy alone, turning infinite at the last of 5 steps
    with pytest.raises(SimulationBlowUp):
        synchronous_pair(sys_, np.zeros(1), np.array([30.0]), replace(cfg, t_final=2.5))
    with pytest.raises(SimulationBlowUp):
        harnack_pair(make_scenario("double-well"), np.array([30.0]), np.array([30.5]),
                     SimConfig(dt=0.05, t_final=2.0, seed=19), k_w=0.0)
    # the Feynman-Kac integral alone
    nan_phi = elliptic_fk_system(lambda s: -s, lambda s: np.full(s.shape[:-1], np.nan), 1)
    with pytest.raises(SimulationBlowUp):
        feynman_kac_h(nan_phi, np.zeros(1), 1.0, 4, cfg)


class _Poison:
    """Wraps a field f; on its ``at``-th call (counting from 0) it returns
    ``value`` in row ``path`` instead of f's output."""

    def __init__(self, f, at, path, value):
        self.f, self.at, self.path, self.value = f, at, path, value
        self.calls = 0

    def __call__(self, *args):
        out = np.array(self.f(*args), dtype=float)
        if self.calls == self.at:
            out[self.path] = self.value
        self.calls += 1
        return out


_DT = 0.0625
# copies or accumulators each simulator can poison; the pair simulators
# evaluate the first copy's field before the second's in every step
_TARGETS = {
    "em_path": ("x",),
    "synchronous_pair": ("x", "y"),
    "reflection_pair": ("x", "y"),
    "harnack_pair": ("x", "y"),
    "kinetic_coupled_pair": ("x", "y"),
    "feynman_kac_h": ("x", "potential"),
}


def _poisoned_run(simulator, target, k, path, value, n_paths, cfg, params, table):
    """A run of ``simulator`` whose ``target`` turns non-finite in step k."""
    from nesslsi.estimators import elliptic_fk_system, feynman_kac_h

    per_step = 1 if simulator in ("em_path", "feynman_kac_h") else 2
    at = per_step * k + (target == "y")
    x0, y0 = np.ones(1), -np.ones(1)
    if simulator == "kinetic_coupled_pair":
        # the model's identity check makes call 0
        residual = _Poison(lambda x, v: np.zeros_like(v), at + 1, path, value)
        model = KineticModel(d=1, gamma=1.0, grad_potential=lambda x: x,
                             k_matrix=np.eye(1), residual=residual, radius=1.0)
        z0, zp0 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
        return lambda: kinetic_coupled_pair(normalize_kinetic(model), table, params,
                                            z0, zp0, cfg, n_paths=n_paths)
    if simulator == "feynman_kac_h":
        drift, potential = (lambda s: -s), (lambda s: np.zeros(s.shape[:-1]))
        if target == "x":
            drift = _Poison(drift, at, path, value)
        else:
            potential = _Poison(potential, at, path, value)
        system = elliptic_fk_system(drift, potential, 1)
        return lambda: feynman_kac_h(system, x0, cfg.t_final, n_paths, cfg)
    drift = _Poison(lambda s: -s, at, path, value)
    # small noise and a wide start keep every pair unmerged over the run
    model = EllipticModel(d=1, drift=drift, sigma=0.01, rho=1.0)
    if simulator == "em_path":
        return lambda: em_path(model, x0, cfg, n_paths=n_paths)
    if simulator == "harnack_pair":
        return lambda: harnack_pair(model, x0, y0, cfg, k_w=0.0, horizon=100.0 * cfg.t_final,
                                    n_paths=n_paths)
    fn = {"synchronous_pair": synchronous_pair, "reflection_pair": reflection_pair}[simulator]
    return lambda: fn(model, x0, y0, cfg, n_paths=n_paths)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("simulator", sorted(_TARGETS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_blow_up_raised_at_any_step(simulator, identity_params, identity_table, data):
    """Whichever copy or accumulator turns non-finite, at whichever step, the
    last one included, the simulator raises SimulationBlowUp by the next check."""
    n_steps = data.draw(st.integers(1, 40), label="n_steps")
    k = data.draw(st.integers(0, n_steps - 1), label="bad step")
    n_paths = data.draw(st.integers(1, 4), label="n_paths")
    path = data.draw(st.integers(0, n_paths - 1), label="bad path")
    value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    target = data.draw(st.sampled_from(_TARGETS[simulator]), label="target")
    cfg = SimConfig(dt=_DT, t_final=n_steps * _DT, seed=21)
    run = _poisoned_run(simulator, target, k, path, value, n_paths, cfg,
                        identity_params, identity_table)
    with pytest.raises(SimulationBlowUp) as err:
        run()
    assert k + 1 <= err.value.step <= min(k + 16, n_steps)
    assert err.value.n_bad >= 1


def test_pair_csv_rows(ou1):
    cfg = SimConfig(dt=0.1, t_final=0.3, seed=20)
    traj = reflection_pair(ou1, np.array([1.0]), np.array([0.0]), cfg, n_paths=2)
    rows = list(pair_to_csv_rows(traj))
    assert rows[0] == ["path_id", "step", "t", "z0", "zp0", "rc", "merged"]
    assert len(rows) == 1 + 2 * traj.times.size


def _golden_runs():
    """Short runs of every public simulator, keyed by case name.

    Each run returns the arrays (or floats) whose bytes the golden test hashes.
    """
    from nesslsi.estimators import elliptic_fk_system, feynman_kac_h, kinetic_fk_system
    from nesslsi.metric import build_metric, metric_constants
    from nesslsi.simulate import CH_AUX, CH_MAIN

    ou2 = make_scenario("ou", {"d": 2})
    dw = make_scenario("double-well")
    kin = make_scenario("kinetic-quadratic", {"d": 2, "gamma": 1.0, "radius": 1.0})
    params = metric_constants(kin.k_matrix, kin.lip_inner, kin.lip_outer, kin.radius)
    norm = normalize_kinetic(kin)
    cfg = SimConfig(dt=0.05, t_final=2.0, seed=41)
    x2 = np.array([[1.0, -0.5], [0.2, 0.2], [-1.5, 0.5], [0.0, 0.0]])
    y2 = np.array([[-0.5, 0.5], [0.2, 0.2], [1.5, -0.5], [0.3, 0.0]])
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.5, -0.5])

    def pair_arrays(tr):
        return [tr.times, tr.z, tr.z_prime, tr.merge_time, tr.rc, tr.sc, tr.girsanov_logw]

    def kinetic(n_smooth):
        kcfg = replace(cfg, n_smooth=n_smooth)
        table = build_metric(params, quad_tol=1e-10, n_smooth=n_smooth)
        return pair_arrays(kinetic_coupled_pair(norm, table, params, z0, zp0, kcfg,
                                                n_paths=6, record_every=3))

    def fk(system, x):
        est = feynman_kac_h(system, x, 1.7, 32, cfg)
        return [est.value, est.stderr]

    return {
        "em_main": lambda: [em_path(ou2, x2[0], cfg, 5, 3, CH_MAIN).states],
        "em_aux": lambda: [em_path(ou2, x2[0], cfg, 5, 3, CH_AUX).states],
        "em_kinetic": lambda: [em_path(kin, z0, cfg, 5, 3).states],
        "synchronous": lambda: pair_arrays(synchronous_pair(
            dw, np.array([1.2]), np.array([0.7]), replace(cfg, merge_tol=0.02), 6, 3)),
        "reflection": lambda: pair_arrays(reflection_pair(ou2, x2, y2, cfg, 4, 3)),
        "reflection_equal": lambda: pair_arrays(reflection_pair(
            ou2, x2[1], y2[1], cfg, 3, 3)),
        "harnack_kw0": lambda: pair_arrays(harnack_pair(ou2, x2, y2, cfg, 0.0, None, 4, 3)),
        "harnack_kw": lambda: pair_arrays(harnack_pair(dw, np.array([1.0]), np.array([-0.4]),
                                                       cfg, 1.5, None, 5, 3)),
        "harnack_horizon": lambda: pair_arrays(harnack_pair(ou2, x2, y2, cfg, 0.5, 0.8, 4, 3)),
        "kinetic_n5": lambda: kinetic(5),
        "kinetic_n1000": lambda: kinetic(1000),
        "kinetic_ninf": lambda: kinetic(math.inf),
        "fk_elliptic": lambda: fk(elliptic_fk_system(
            lambda s: -s, lambda s: -0.3 * s[..., 0] ** 2 + 0.1 * s[..., 0], 1), np.array([0.4])),
        "fk_kinetic": lambda: fk(kinetic_fk_system(
            kin, potential=lambda z: 0.05 * np.sum(z * z, axis=-1) - 0.2), np.zeros(4)),
    }


def _digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        if v is None:
            h.update(b"none")
            continue
        a = np.ascontiguousarray(np.asarray(v, dtype=float))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# The hashes pin every float operation of the simulators, including how each
# product is associated; a refactor that regroups one changes its hash.
GOLDEN = {
    "em_aux": "d5a4c12a04c977bf0e3e6d713c99eabc474bb463807d3c96e3693c7e4e59726a",
    "em_kinetic": "cb10af56358ae3617ded3a6eb4d2db369f90d3e127f9a4748e4a7956fa81d8a8",
    "em_main": "1184866959144451b29a838ad7b00033946c7db12f32ea072fff94e42b03b6fd",
    "fk_elliptic": "068316e3f49f398cb818a0b4f89b0e2e8916b774cc925ea52a393551a486f517",
    "fk_kinetic": "b6436a0e284882b3f0abe3cb07565964fa614470245115522e52138a18dbf1bc",
    "harnack_horizon": "f46982295c282714d9e7435c7a715071f79b142f6510222f17dc107622ebf094",
    "harnack_kw": "dc85ffbd339d4e66082b61d0d43f995ecf78474bb37acc678741d869aaca4250",
    "harnack_kw0": "c514be0e8f88a1625f35dbf7b144c6412ff994d1a003d98450980ebc5915664f",
    "kinetic_n1000": "00206bd766ebd895129a63655dc0ffd1ba4949a19764e648c9f1325a7dc6f10d",
    "kinetic_n5": "e6aa3e7390c55a2759a44596546f873e26ff74356bbeec64b057300ee7322e03",
    "kinetic_ninf": "00206bd766ebd895129a63655dc0ffd1ba4949a19764e648c9f1325a7dc6f10d",
    "reflection": "d50e452a3552c132c568a58839872b559b551702d8855da108d21dde10f7fb4b",
    "reflection_equal": "fc36ff8d71514ee1ffccb4fda98b29f170cf10d2c4ce1feaf10dead8085f5c77",
    "synchronous": "e81a091cb66e6a6197b8e77b80d26478b674d18fd326cb23ffd1f2f4b0748582",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulator_golden_hash(case):
    """Every simulator reproduces its pinned output bit for bit."""
    assert _digest(_golden_runs()[case]()) == GOLDEN[case]
