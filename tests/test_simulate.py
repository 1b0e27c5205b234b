import hashlib
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslsi import simulate
from nesslsi.metric import metric_constants
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
from oracles import ou_euler_moment, ou_transition, rk4_ode, scalar_radial_sde


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


def test_every_draw_goes_through_the_module_noise_normals(monkeypatch, kinetic_bench):
    """Each simulator looks ``noise_normals`` up in its module at every draw,
    so that a wrapper put there (a benchmark probe, a tracer) sees all
    n_steps x channels draws.  The kinetic pair draws its second channel
    only on the steps that start from an rc with an entry strictly inside
    (0, 1), or nan: elsewhere B'' drops out."""
    from nesslsi import estimators, simulate
    from nesslsi.estimators import elliptic_fk_system, feynman_kac_h

    calls = []
    for module in (simulate, estimators):
        def counting(*args, _draw=module.noise_normals):
            calls.append(args[2])
            return _draw(*args)

        monkeypatch.setattr(module, "noise_normals", counting)
    ou = make_scenario("ou", {"d": 2})
    kin, table = kinetic_bench
    cfg = SimConfig(dt=0.1, t_final=1.3, seed=5, n_smooth=1000)
    x0, y0 = np.array([1.0, 0.5]), np.array([-1.0, 0.0])
    z0, zp0 = np.array([1.5, 0.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5, -0.5])
    fk = elliptic_fk_system(lambda s: -s, lambda s: -0.1 * s[..., 0] ** 2, 2)
    runs = {
        "em_path": (lambda: em_path(ou, x0, cfg, 3), (0,)),
        "synchronous_pair": (lambda: synchronous_pair(ou, x0, y0, cfg, 3), (0,)),
        "reflection_pair": (lambda: reflection_pair(ou, x0, y0, cfg, 3), (0,)),
        "harnack_pair": (lambda: harnack_pair(ou, x0, y0, cfg, 0.5, None, 3), (0,)),
        "feynman_kac_h": (lambda: feynman_kac_h(fk, x0, cfg.t_final, 3, cfg), (0,)),
        # two fine draws a coarse step
        "_em_two_level_step": (lambda: simulate._integrate(
            cfg, simulate._em_two_level_step(simulate.system_of(ou), cfg, 0),
            np.tile(x0, (3, 1)), np.tile(x0, (3, 1))), (0, 0)),
    }
    for name, (run, channels) in runs.items():
        calls.clear()
        run()
        assert sorted(calls) == sorted(channels * cfg.n_steps), name

    # wide ramps (n_smooth 5), so that some steps start on one and some do not
    kin_cfg = replace(cfg, n_smooth=5)
    calls.clear()
    rc = kinetic_coupled_pair(normalize_kinetic(kin), table, table.params, z0, zp0, kin_cfg, 3).rc
    mixed = [bool(np.any((row > 0.0) & (row < 1.0) | np.isnan(row))) for row in rc[:-1]]
    assert 0 < sum(mixed) < kin_cfg.n_steps
    assert sorted(calls) == sorted([0] * kin_cfg.n_steps + [1] * sum(mixed))


def test_em_path_accepts_a_broadcastable_drift():
    """A drift returning one (d,) vector for the whole batch steps every
    path by it, as x + drift(x) dt does."""
    cfg = SimConfig(dt=0.1, t_final=0.5, seed=8)
    sys_ = SdeSystem(dim=2, drift=lambda x: np.array([1.0, -2.0]), noise_dim=2,
                     noise_scale=0.5)
    x = np.tile([0.3, 0.7], (3, 1))
    want = [x]
    for k in range(cfg.n_steps):
        x = x + np.array([1.0, -2.0]) * cfg.dt
        x = x + 0.5 * math.sqrt(cfg.dt) * noise_normals(cfg.seed, k, 0, (3, 2))
        want.append(x)
    np.testing.assert_array_equal(em_path(sys_, np.array([0.3, 0.7]), cfg, 3).states,
                                  np.array(want))


@pytest.mark.parametrize("d", range(1, 11))
def test_row_dot_is_numpy_sum_bit_for_bit(d):
    """The column-wise row dot and norm give the bits of numpy's row
    reductions, signed zeros and non-finite entries included, in either
    memory order."""
    from nesslsi.simulate import _row_dot, _row_norm

    rng = np.random.default_rng(d)
    a = rng.normal(size=(400, d)) * rng.lognormal(0.0, 4.0, size=(400, d))
    b = rng.normal(size=(400, d))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e300])
    a[:40] = rng.choice(specials, size=(40, d))
    b[20:60] = rng.choice(specials, size=(40, d))
    a[60:80], b[60:80] = -0.0, 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        want_dot = np.sum(a * b, axis=-1)
        want_norm = np.linalg.norm(a, axis=-1)
        for order in "CF":
            fa, fb = np.asarray(a, order=order), np.asarray(b, order=order)
            for got, want in ((_row_dot(fa, fb), want_dot), (_row_norm(fa), want_norm)):
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_or_e1_is_the_guarded_division_bit_for_bit(d):
    """delta / |delta| per row, (1, 0, ...) where the norm is 0 or nan, with
    the bits of the guarded division, on rows with positive, subnormal, zero
    and nan norms and on no rows, for C-ordered rows and for the
    Fortran-ordered transpose that the kinetic step passes."""
    from nesslsi.simulate import _row_norm, _unit_or_e1

    def reference(delta, norm):
        e = np.zeros_like(delta)
        e[:, 0] = 1.0
        return np.divide(delta, norm[:, None], out=e, where=norm[:, None] > 0.0)

    rng = np.random.default_rng(d)
    delta = rng.normal(size=(300, d)) * rng.lognormal(0.0, 4.0, size=(300, d))
    delta[:10] = 0.0
    delta[10:20, 0] = np.nan
    norm = _row_norm(delta)
    norm[20:30] = rng.choice([5e-324, 1e-310, 2.2e-308], size=10)
    with np.errstate(invalid="ignore", over="ignore"):
        for rows in (slice(None), slice(20, None), slice(30, None), slice(0, 0)):
            delta_r, norm_r = delta[rows], norm[rows]
            want = reference(delta_r, norm_r)
            got = _unit_or_e1(delta_r, norm_r)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            # the kinetic step's (d, n) rows of a C-ordered state, transposed
            t = np.ascontiguousarray(delta_r.T)
            assert t.T.flags.f_contiguous
            assert _unit_or_e1(t.T, norm_r).T.tobytes() == want.T.tobytes()


def test_sim_config_validation():
    for bad in ({"dt": 0.0}, {"dt": 2.0},
                {"dt": math.nan}, {"dt": math.inf}, {"dt": -math.inf},
                {"t_final": math.nan}, {"t_final": math.inf}, {"dt": 1e-300, "t_final": 1e10},
                {"merge_tol": math.nan}, {"merge_tol": math.inf}, {"merge_tol": 0.0},
                {"n_smooth": math.nan}, {"n_smooth": -5}, {"n_smooth": 0},
                {"n_smooth": -math.inf}):
        with pytest.raises(ValueError):
            SimConfig(**{"dt": 0.1, "t_final": 1.0, "seed": 0, **bad})
    assert SimConfig(dt=1e-3, t_final=1.0, seed=0).n_steps == 1000
    assert SimConfig(dt=1e-3, t_final=1.0, seed=0, n_smooth=math.inf).n_smooth == math.inf


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


def test_two_level_step_fine_copy_is_em_path_and_coarse_copy_sums_normals():
    """The fine copy of the two-level step is ``em_path`` at dt/2 bit for
    bit; the coarse copy is a plain-loop Euler run at dt on the sums of the
    fine steps' normals."""
    model = make_scenario("rotating", {})
    cfg = SimConfig(dt=0.1, t_final=1.2, seed=32)
    x0 = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.0], [0.0, 0.0], [1.1, 1.9]])
    _, fine, coarse, *_ = simulate._integrate(
        cfg, simulate._em_two_level_step(simulate.system_of(model), cfg, 0),
        x0.copy(), x0.copy(), record_every=3)
    want = em_path(model, x0, replace(cfg, dt=cfg.dt / 2), n_paths=5, record_every=6)
    np.testing.assert_array_equal(fine, want.states)
    y, scale = x0.copy(), model.sigma * math.sqrt(cfg.dt / 2)
    for k in range(cfg.n_steps):
        dw = noise_normals(cfg.seed, 2 * k, 0, (5, 2)) + noise_normals(cfg.seed, 2 * k + 1, 0, (5, 2))
        y = y + model.drift(y) * cfg.dt + scale * dw
        if (k + 1) % 3 == 0:
            np.testing.assert_array_equal(coarse[(k + 1) // 3], y)
    assert not np.array_equal(fine[-1], coarse[-1])


@pytest.mark.parametrize("dt", [0.02, 0.04, 0.08])
def test_two_level_step_moments_match_the_ou_euler_chain(ou1, dt):
    """Both copies of the two-level step have the law of their own Euler
    chain: the mean of exp(c X_T), fine (dt/2) and coarse (dt), each within
    3 stderr of its closed form."""
    c, x0, n_paths = 0.5, 1.0, 40_000
    cfg = SimConfig(dt=dt, t_final=1.6, seed=33)
    x = np.full((n_paths, 1), x0)
    _, fine, coarse, *_ = simulate._integrate(
        cfg, simulate._em_two_level_step(simulate.system_of(ou1), cfg, 0), x, x.copy(),
        record_every=cfg.n_steps, keep_states=False)
    for term, step, n in ((fine[-1], dt / 2, 2 * cfg.n_steps), (coarse[-1], dt, cfg.n_steps)):
        vals = np.exp(c * term[:, 0])
        stderr = vals.std(ddof=1) / math.sqrt(n_paths)
        assert abs(vals.mean() - ou_euler_moment(c, x0, step, n)) <= 3.0 * stderr, step


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


@pytest.mark.parametrize("coupling", [synchronous_pair, reflection_pair])
def test_merged_rows_written_into_a_fortran_ordered_state(coupling, monkeypatch):
    """A drift that returns Fortran-ordered arrays makes the state Fortran-
    ordered, so merged rows go through the plain a[idx] = rows branch of
    _put_rows; the run equals the C-ordered one bit for bit."""
    orders = []

    def put_rows(a, idx, rows, _put=simulate._put_rows):
        orders.append(a.flags.c_contiguous)
        return _put(a, idx, rows)

    monkeypatch.setattr(simulate, "_put_rows", put_rows)
    cfg = SimConfig(dt=0.5, t_final=3.0, seed=5)
    x0, y0 = np.array([1.0, 0.5]), np.array([1.0 + 3e-8, 0.5])
    runs = []
    for drift in (lambda x: -x, lambda x: np.asfortranarray(-x)):
        orders.clear()
        model = EllipticModel(d=2, drift=drift, sigma=math.sqrt(2.0), rho=1.0)
        runs.append(coupling(model, x0, y0, cfg, n_paths=6))
    assert False in orders
    c_run, f_run = runs
    assert np.isfinite(c_run.merge_time).any()
    for name in ("z", "z_prime", "merge_time"):
        np.testing.assert_array_equal(getattr(f_run, name), getattr(c_run, name))


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


def _rc_edges(r0: float, n: float):
    """Strategies for r and |dq| that reach nan, inf, the ramp ends and the
    threshold r0 + 1/n with one ulp either side."""
    edge = r0 + 1.0 / n
    r = st.sampled_from([np.nan, np.inf, -np.inf, r0, edge, np.nextafter(edge, -np.inf),
                         np.nextafter(edge, np.inf)]) | st.floats(r0 - 2.0 / n, r0 + 2.0 / n)
    dq = st.sampled_from([np.nan, np.inf, 0.0, 1.0 / n, 2.0 / n]) | st.floats(0.0, 3.0 / n)
    return r, dq


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rc_profile_equals_the_ramps_evaluated_on_every_entry(data):
    """Evaluating cos and sin only inside the ramps changes no bit, on nan
    and inf entries and at the thresholds too."""
    r0 = data.draw(st.sampled_from([0.0, 2.0, 3.0]), label="r0")
    n = data.draw(st.sampled_from([2.0, 50.0, 1000.0]), label="n")
    r_edge, dq_edge = _rc_edges(r0, n)
    drawn = data.draw(st.lists(st.tuples(r_edge, dq_edge), min_size=1, max_size=20),
                      label="(r, |dq|)")
    rng = np.random.default_rng(9)
    r = np.concatenate([r0 + rng.uniform(-2.5, 2.5, 500) / n, [r0, r0 + 1 / n, np.nan, np.inf],
                        [p[0] for p in drawn]])
    dq = np.concatenate([rng.uniform(0.0, 3.0, 500) / n, [1 / n, 2 / n, 0.5, np.nan],
                         [p[1] for p in drawn]])
    u = np.clip((r - r0) * n, 0.0, 1.0)
    w = np.clip(dq * n - 1.0, 0.0, 1.0)
    want = (np.where(u >= 1.0, 0.0, np.cos(0.5 * np.pi * u))
            * np.where(w >= 1.0, 1.0, np.sin(0.5 * np.pi * w)))
    assert rc_profile(r, dq, r0, n).tobytes() == want.tobytes()
    assert ((want > 0.0) & (want < 1.0)).sum() > 100


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rc_is_zero_where_the_kinetic_step_is_synchronous(data):
    """The kinetic step skips rc_profile when (min r - r0) n >= 1: there
    rc_profile is +0.0 on every pair and mixes in no B'', n = inf included.
    As in the step, r = theta |dx| + |dq|, so a nan |dq| makes r nan, which
    never passes the test."""
    from nesslsi.simulate import _rc_mixed

    r0 = data.draw(st.sampled_from([0.0, 2.0, 3.0]), label="r0")
    n = data.draw(st.sampled_from([2.0, 50.0, 1000.0, math.inf]), label="n")
    theta = data.draw(st.sampled_from([0.5, 2.0]), label="theta")
    edge = r0 + 1.0 / (1000.0 if math.isinf(n) else n)
    # |dx| = 0 puts r on |dq| exactly, at the threshold and one ulp either side
    dxn = st.sampled_from([0.0, np.nan, np.inf]) | st.floats(0.0, 2.0)
    dqn = st.sampled_from([np.nan, np.inf, edge, np.nextafter(edge, -np.inf),
                           np.nextafter(edge, np.inf)]) | st.floats(edge, edge + 1.0)
    dqn |= st.floats(0.0, edge)
    pairs = data.draw(st.lists(st.tuples(dxn, dqn), min_size=1, max_size=5),
                      label="(|dx|, |dq|)")
    dx, dq = np.array(pairs).T
    r = theta * dx + dq
    if (r.min() - r0) * n >= 1.0:
        assert not np.isnan(r).any()
        rc, mixed = _rc_mixed(r, dq, r0, n)
        assert rc.tobytes() == np.zeros_like(r).tobytes()
        assert mixed.size == 0


def test_kinetic_pair_equal_start_stays_identical(kinetic_bench):
    model, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=0.5, seed=14, n_smooth=1000)
    z0 = np.array([1.0, 0.0, 0.0, 0.5])
    traj = kinetic_coupled_pair(norm, table, table.params, z0, z0, cfg, n_paths=4)
    np.testing.assert_array_equal(traj.z, traj.z_prime)
    np.testing.assert_allclose(traj.rc, 0.0)


def test_kinetic_pair_far_start_in_synchronous_regime(monkeypatch, kinetic_bench):
    model, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=0.02, seed=15, n_smooth=1000)
    z0 = np.array([4.0, 0.0, 0.0, 0.0])
    zp0 = np.array([-4.0, 0.0, 0.0, 0.0])   # r = theta*8 >> r0 + 1/n
    traj = kinetic_coupled_pair(norm, table, table.params, z0, zp0, cfg, n_paths=4)
    np.testing.assert_allclose(traj.rc[0], 0.0)
    np.testing.assert_allclose(traj.rc[-1], 0.0)
    # every step starts with all pairs outside the zone, so none evaluates
    # the ramps or draws B''
    calls = []
    monkeypatch.setattr(simulate, "_rc_mixed",
                        lambda *args, _rc=simulate._rc_mixed: calls.append("rc") or _rc(*args))
    monkeypatch.setattr(simulate, "noise_normals",
                        lambda *args, _draw=noise_normals: calls.append(args[2]) or _draw(*args))
    again = kinetic_coupled_pair(norm, table, table.params, z0, zp0, cfg, n_paths=4)
    assert calls == [0] * cfg.n_steps
    assert again.z_prime.tobytes() == traj.z_prime.tobytes()


def test_kinetic_pair_rc_sc_identity(kinetic_bench):
    model, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=1e-3, t_final=1.0, seed=16, n_smooth=1000)
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.0, 0.0])
    traj = kinetic_coupled_pair(norm, table, table.params, z0, zp0, cfg, n_paths=64,
                                record_every=50)
    assert traj.rc.max() > 0.0
    np.testing.assert_allclose(traj.rc**2 + traj.sc**2, 1.0, atol=1e-12)


@pytest.mark.parametrize("record_every", [1, 3, 40])   # 40 = n_steps
def test_kinetic_pair_rc_is_that_of_recorded_states(kinetic_bench, record_every):
    """The recorded rc is rc_profile of the recorded pair, bit for bit."""
    model, table = kinetic_bench
    cfg = SimConfig(dt=0.05, t_final=2.0, seed=43, n_smooth=5)
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.5, -0.5])
    traj = kinetic_coupled_pair(normalize_kinetic(model), table, table.params, z0, zp0, cfg,
                                n_paths=6, record_every=record_every)
    delta = traj.z - traj.z_prime
    dx = delta[..., :2]
    dq = dx + delta[..., 2:]
    dqn = np.linalg.norm(dq, axis=-1)
    r = table.params.theta * np.linalg.norm(dx, axis=-1) + dqn
    np.testing.assert_array_equal(traj.rc, rc_profile(r, dqn, table.params.r0, cfg.n_smooth))
    assert traj.rc.max() > 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_kinetic_pair_path_is_independent_of_ensemble_size(d):
    """With a non-diagonal K, a path's bits do not depend on how many other
    paths run beside it, a single path included."""
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d))
    k = a @ a.T / d + np.eye(d)
    model = KineticModel(d=d, gamma=1.0, grad_potential=lambda s: s @ k.T, k_matrix=k,
                         forcing=lambda s, v: 0.03 * np.sin(s - v), radius=1.0,
                         lip_inner=0.03, lip_outer=0.03)
    params = metric_constants(k, model.lip_inner, model.lip_outer, model.radius)
    cfg = SimConfig(dt=0.05, t_final=2.0, seed=4, n_smooth=1000)
    z0, zp0 = rng.normal(size=(2, 2 * d))
    # the step reads no metric table, so none is built for this K
    runs = [kinetic_coupled_pair(model, None, params, z0, zp0, cfg, n) for n in (1, 2, 5)]
    for traj in runs[1:]:
        for field in ("z", "z_prime", "rc"):
            assert getattr(traj, field)[:, :1].tobytes() == getattr(runs[0], field).tobytes()


def _mean_separation_runs(coupling, keep_states):
    """One small run of each coupling whose mean separation moves over many
    records: OU pairs that partly merge, kinetic pairs from random starts."""
    cfg = SimConfig(dt=0.02, t_final=1.0, seed=31, n_smooth=20)
    rng = np.random.default_rng(31)
    if coupling.startswith("kinetic"):
        d = int(coupling[-1])
        model = make_scenario("kinetic-quadratic", {"d": d, "gamma": 1.0, "radius": 1.0})
        params = metric_constants(model.k_matrix, model.lip_inner, model.lip_outer,
                                  model.radius)
        z0, zp0 = rng.normal(size=(2, 300, 2 * d))
        # the step reads no metric table, so none is built
        return kinetic_coupled_pair(model, None, params, z0, zp0, cfg, 300, 3,
                                    keep_states=keep_states)
    ou = make_scenario("ou", {"d": 3})
    x0, y0 = rng.normal(size=(2, 300, 3))
    fn = synchronous_pair if coupling == "synchronous" else reflection_pair
    return fn(ou, x0, y0, cfg, 300, 3, keep_states=keep_states)


@pytest.mark.parametrize("coupling", ["synchronous", "reflection", "kinetic2", "kinetic4"])
def test_mean_separation_is_the_recorded_norm_mean_and_needs_no_states(coupling):
    """The time loop's mean |z - z'| is the path mean of numpy's norm over
    the full records bit for bit (kinetic4 has 2d = 8 columns, which numpy
    sums pairwise), and a run that keeps only the first and last states
    records the same statistic, merge times and end states."""
    full = _mean_separation_runs(coupling, True)
    assert full.times.size == 18 and full.z.shape[0] == 18
    want = np.linalg.norm(full.z - full.z_prime, axis=-1).mean(axis=1)
    assert full.mean_separation.tobytes() == want.tobytes()
    assert np.unique(full.mean_separation).size == full.times.size

    ends = _mean_separation_runs(coupling, False)
    assert ends.z.shape[0] == ends.z_prime.shape[0] == 2
    assert ends.times.tobytes() == full.times.tobytes()
    assert ends.mean_separation.tobytes() == full.mean_separation.tobytes()
    assert ends.merge_time.tobytes() == full.merge_time.tobytes()
    for field in ("z", "z_prime", "rc"):
        kept, every = getattr(ends, field), getattr(full, field)
        if every is None:
            assert kept is None
        else:
            assert kept.tobytes() == every[[0, -1]].tobytes()
    if coupling == "reflection":
        assert 0 < ends.merged.sum() < 300


def test_kinetic_pair_marginal_moments_match_independent_run(kinetic_bench):
    """The reassembled Brownian motion is again a Brownian motion, so the
    second copy's marginal law equals that of a plain simulation."""
    model, table = kinetic_bench
    norm = normalize_kinetic(model)
    cfg = SimConfig(dt=2e-3, t_final=2.0, seed=17, n_smooth=1000)
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.5, -0.5])
    n = 4000
    traj = kinetic_coupled_pair(norm, table, table.params, z0, zp0, cfg, n_paths=n,
                                record_every=cfg.n_steps)
    coupled_term = traj.z_prime[-1]

    indep_cfg = SimConfig(dt=cfg.dt, t_final=cfg.t_final, seed=18_000, n_smooth=1000)
    sys_ = SdeSystem(dim=4, drift=norm.control_drift, noise_dim=2,
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
# copies or accumulators each simulator can poison; the elliptic pair
# simulators evaluate the first copy's field before the second's in every
# step, the kinetic pair both copies in one call on the stacked state
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
        # call k + 1 is step k (the model's identity check makes call 0); its
        # rows are the first copies, then the second copies from n_paths on
        row = path + n_paths * (target == "y")
        residual = _Poison(lambda x, v: np.zeros_like(v), k + 1, row, value)
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


@pytest.mark.parametrize("coupling", ["synchronous", "reflection", "harnack"])
def test_merged_pairs_step_only_the_first_copy(coupling):
    """The second copy's drift is evaluated on the unmerged pairs only."""
    dw = make_scenario("double-well")
    rows = []

    def counted(x):
        rows.append(x.shape[0])
        return dw.drift(x)

    model = EllipticModel(d=1, drift=counted, sigma=dw.sigma, rho=1.0, lip=1.0, radius=3.0)
    cfg = SimConfig(dt=0.05, t_final=2.0, seed=17)
    # synchronous pairs only merge by contraction: a wider tolerance staggers them
    sync_cfg = replace(cfg, merge_tol=0.01)
    run = {"synchronous": lambda x, y, n: synchronous_pair(model, x, y, sync_cfg, n),
           "reflection": lambda x, y, n: reflection_pair(model, x, y, cfg, n),
           "harnack": lambda x, y, n: harnack_pair(model, x, y, cfg, 0.5, None, n)}[coupling]

    run(np.array([0.3]), np.array([0.3]), 8)
    assert rows == [8] * cfg.n_steps

    rows.clear()
    x = np.linspace(-1.5, 1.5, 16)[:, None]
    y = np.linspace(1.2, -0.9, 16)[:, None]
    y[5] = x[5]
    merge_step = np.round(run(x, y, 16).merge_time / cfg.dt)
    expected = []
    for k in range(cfg.n_steps):
        n_active = int(np.sum(~(merge_step <= k)))
        expected += [16, n_active] if n_active else [16]
    assert np.unique(merge_step[merge_step > 0]).size > 5     # staggered merges
    assert rows == expected


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
    from nesslsi.metric import build_metric
    from nesslsi.models import _bump, derive_elliptic_fields
    from nesslsi.simulate import CH_AUX, CH_MAIN

    ou2 = make_scenario("ou", {"d": 2})
    dw = make_scenario("double-well")
    kin = make_scenario("kinetic-quadratic", {"d": 2, "gamma": 1.0, "radius": 1.0})
    cfg = SimConfig(dt=0.05, t_final=2.0, seed=41)
    x2 = np.array([[1.0, -0.5], [0.2, 0.2], [-1.5, 0.5], [0.0, 0.0]])
    y2 = np.array([[-0.5, 0.5], [0.2, 0.2], [1.5, -0.5], [0.3, 0.0]])
    z0 = np.array([1.5, 0.0, 0.0, 0.0])
    zp0 = np.array([0.0, 0.5, 0.5, -0.5])

    def pair_arrays(tr):
        return [tr.times, tr.z, tr.z_prime, tr.merge_time, tr.rc, tr.sc, tr.girsanov_logw]

    # a non-diagonal K and a nonzero residual, so that the x @ K.T products
    # and the residual enter the drift's bits
    k_aniso = np.array([[1.2, 0.3], [0.3, 0.9]])
    aniso = KineticModel(d=2, gamma=1.0, grad_potential=lambda s: s @ k_aniso.T,
                         k_matrix=k_aniso, forcing=lambda s, v: 0.03 * np.sin(s - v),
                         radius=1.0, lip_inner=0.03, lip_outer=0.03)

    def kinetic(n_smooth, model=kin, starts=(z0, zp0), n_paths=6, **sim):
        kcfg = replace(cfg, n_smooth=n_smooth, **sim)
        kparams = metric_constants(model.k_matrix, model.lip_inner, model.lip_outer,
                                   model.radius)
        table = build_metric(kparams, quad_tol=1e-10, n_smooth=n_smooth)
        return pair_arrays(kinetic_coupled_pair(normalize_kinetic(model), table, kparams,
                                                *starts, kcfg, n_paths=n_paths, record_every=3))

    # benchmark size: 2,000 paths reach BLAS blocking and the SIMD tails of
    # every elementwise loop, which a handful of paths never does
    bench_starts = np.random.default_rng(7).normal(0.0, 1.0, (2, 2000, 4))
    # the criterion-08 pair starts with every path outside the reflection
    # zone (r >= r0 + 1/n), where the step is synchronous, and at dt 0.01 the
    # first paths enter it at t = 1.87 (step 187 of 250)
    enter_starts = np.array([[3.0, 0.0, 0.0, 0.0], [-2.0, 1.0, 0.5, -0.5]])

    def fk(system, x):
        est = feynman_kac_h(system, x, 1.7, 32, cfg)
        return [est.value, est.stderr]

    # the criterion-10 bump model (a = 0.5) and its dual drift b_tilde
    b0 = lambda s: -s
    b1 = lambda s: 0.5 * _bump(s)
    bump = EllipticModel(d=1, drift=lambda s: b0(s) + b1(s), sigma=math.sqrt(2.0), rho=0.1,
                         lip=1.0, radius=2.0, b0=b0, b1=b1, grad_log_ref=lambda s: -s)
    fields = derive_elliptic_fields(bump)
    bt = EllipticModel(d=1, drift=fields.b_tilde, sigma=math.sqrt(2.0), rho=0.1, lip=1.0,
                       radius=2.0)
    below1 = np.nextafter(1.0, 0.0)
    edges = np.array([0.0, below1, -below1, 1.0, -1.0, 1.5, -1.5, np.inf, -np.inf])
    grid = np.concatenate([edges, np.linspace(-2.0, 2.0, 401)])[:, None]
    zero = np.zeros_like(edges)
    plane = np.concatenate([np.column_stack([edges, zero]), np.column_stack([zero, edges]),
                            np.outer(edges, [0.6, -0.8]),
                            np.random.default_rng(5).normal(0.0, 0.8, (200, 2))])
    rotating = make_scenario("rotating", {"v_amp": 0.4, "v_width": 1.0})
    rx = np.linspace(-1.6, 1.6, 64)[:, None]
    ry = 1.5 * np.linspace(1.0, -1.0, 64)[:, None] ** 3
    ry[0] = rx[0]
    sx, sy = np.random.default_rng(3).normal(0.0, 1.0, (2, 16, 2))
    sy[3] = sx[3]
    hx = np.linspace(-1.5, 1.5, 16)[:, None]
    hy = np.linspace(1.2, -0.9, 16)[:, None]
    hy[5] = hx[5]

    def fields_of(fns, pts):
        with np.errstate(all="ignore"):    # inf - inf at the infinite grid points
            return [fn(pts) for fn in fns]

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
        "kinetic_aniso": lambda: kinetic(5, aniso),
        "kinetic_aniso_bench": lambda: kinetic(1000, aniso, bench_starts, 2000),
        "kinetic_enters_zone": lambda: kinetic(1000, kin, enter_starts, 2000, dt=0.01,
                                               t_final=2.5),
        "fk_elliptic": lambda: fk(elliptic_fk_system(
            lambda s: -s, lambda s: -0.3 * s[..., 0] ** 2 + 0.1 * s[..., 0], 1), np.array([0.4])),
        "fk_kinetic": lambda: fk(kinetic_fk_system(
            kin, potential=lambda z: 0.05 * np.sum(z * z, axis=-1) - 0.2), np.zeros(4)),
        "bump_fields": lambda: fields_of([fields.b_tilde, fields.phi, bump.drift], grid),
        "rotating_bump": lambda: fields_of([rotating.drift], plane),
        "reflection_bump": lambda: pair_arrays(reflection_pair(bt, rx, ry, cfg, 64, 1)),
        "harnack_staggered": lambda: pair_arrays(harnack_pair(dw, hx, hy, cfg, 0.5, None, 16, 1)),
        "synchronous_staggered": lambda: pair_arrays(synchronous_pair(
            rotating, sx, sy, replace(cfg, merge_tol=0.1), 16, 1)),
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
    "bump_fields": "c759a99b0ff35b268bf79a22ab7d6fdcfecf2abe27ef3eb396e0b22718ba4375",
    "em_aux": "d5a4c12a04c977bf0e3e6d713c99eabc474bb463807d3c96e3693c7e4e59726a",
    "em_kinetic": "cb10af56358ae3617ded3a6eb4d2db369f90d3e127f9a4748e4a7956fa81d8a8",
    "em_main": "1184866959144451b29a838ad7b00033946c7db12f32ea072fff94e42b03b6fd",
    "fk_elliptic": "068316e3f49f398cb818a0b4f89b0e2e8916b774cc925ea52a393551a486f517",
    "fk_kinetic": "b6436a0e284882b3f0abe3cb07565964fa614470245115522e52138a18dbf1bc",
    "harnack_horizon": "f46982295c282714d9e7435c7a715071f79b142f6510222f17dc107622ebf094",
    "harnack_kw": "dc85ffbd339d4e66082b61d0d43f995ecf78474bb37acc678741d869aaca4250",
    "harnack_kw0": "c514be0e8f88a1625f35dbf7b144c6412ff994d1a003d98450980ebc5915664f",
    "harnack_staggered": "a283e669446826b87c46469026ba7061929c0a3fd5c95f73148f6aa08f6d4864",
    "kinetic_aniso": "5dec1c1600325827b07f6f685a889c665ddc634f8b31f40b6571b4ebe6ef50ef",
    "kinetic_aniso_bench": "b2727e1d7c1405e04dcc1b95e4c18a2afb6d9518345ae7122dd70fb997db6bd6",
    "kinetic_enters_zone": "18eb006a0260d24238b20f0e94e2cfaa26b61810c40ab298fdcd1e2742a6ca59",
    "kinetic_n1000": "00206bd766ebd895129a63655dc0ffd1ba4949a19764e648c9f1325a7dc6f10d",
    "kinetic_n5": "e6aa3e7390c55a2759a44596546f873e26ff74356bbeec64b057300ee7322e03",
    "kinetic_ninf": "00206bd766ebd895129a63655dc0ffd1ba4949a19764e648c9f1325a7dc6f10d",
    "reflection": "d50e452a3552c132c568a58839872b559b551702d8855da108d21dde10f7fb4b",
    "reflection_bump": "134723adc010a2cb4d63bf680ff9026778e336891c83b069b9a3cbe1ed4bb56b",
    "reflection_equal": "fc36ff8d71514ee1ffccb4fda98b29f170cf10d2c4ce1feaf10dead8085f5c77",
    "rotating_bump": "658c3c3febe89f2b251497c63fa92222cfdc5646bdd1a324f5d3bff88517ecee",
    "synchronous": "e81a091cb66e6a6197b8e77b80d26478b674d18fd326cb23ffd1f2f4b0748582",
    "synchronous_staggered": "93783068578fff3ccf646ef78039480603a0aafa2b5245dc9979224b7c1fcda4",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulator_golden_hash(case):
    """Every simulator reproduces its pinned output bit for bit."""
    assert _digest(_golden_runs()[case]()) == GOLDEN[case]
