import hashlib
import math

import numpy as np
import pytest
from scipy.special import erf

from nesslsi.metric import (
    QuadratureError,
    _cellwise_simpson,
    _edge_slope,
    _Pchip,
    build_metric,
    g_quadratic,
    metric_constants,
    rho_star,
)
from oracles import metric_scalars_reference


def test_cellwise_simpson_integrates_each_cell():
    edges = np.linspace(0.0, 2.0, 9)
    got = _cellwise_simpson(np.exp, edges, 1e-12)
    np.testing.assert_allclose(got, np.exp(edges[1:]) - np.exp(edges[:-1]), rtol=0, atol=1e-12)


def test_cellwise_simpson_stops_at_the_live_cap():
    """When rounding in f exceeds the per-cell tolerance, no level resolves
    a cell; the quadrature raises once the live subintervals pass the cap
    instead of doubling them for every level left."""
    sizes = []

    def f(x):
        sizes.append(x.size)
        return 1e8 * np.sin(x)       # rounding near 1e-8 per value, far above 1e-20

    with pytest.raises(QuadratureError, match="at most 256"):
        _cellwise_simpson(f, np.linspace(0.0, 1.0, 5), 1e-20)
    assert max(sizes) == 256       # 4 cells, doubled for 6 levels, then stopped


def test_constants_identity_benchmark(identity_params):
    p = identity_params
    assert p.theta == 2.0
    assert p.eta == 0.5
    assert p.lam == 0.25
    assert p.r0 == 3.0
    assert p.kappa2 == 0.125


def test_constants_anisotropic_example():
    p = metric_constants(np.diag([4.0, 1.0]), 1.0, 0.0, 0.0)
    assert p.theta == 10.0
    assert p.eta == 0.5
    assert p.lam == 0.25
    assert p.r0 == 0.0
    assert p.kappa2 == 1.0 / 32.0


def test_constants_boundary_l2_rejected():
    with pytest.raises(ValueError, match="inadmissible"):
        metric_constants(np.eye(1), 1.0, 1.0 / 19.0, 1.0)


def test_constants_nonsymmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        metric_constants(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0, 0.0, 1.0)


def test_constants_l2_above_l1_rejected():
    with pytest.raises(ValueError, match="L2"):
        metric_constants(np.eye(1), 0.0, 0.01, 1.0)


def test_phi_primitive_matches_erf(identity_table):
    # phi(u) = exp(-u^2/4), so Phi(3) = sqrt(pi) erf(3/2)
    closed = math.sqrt(math.pi) * erf(1.5)
    assert abs(identity_table.phi_primitive[-1] - closed) < 1e-10


def test_f_initial_slope(identity_table):
    t = identity_table
    assert t.f_vals[0] == 0.0
    h = t.grid[1] - t.grid[0]
    assert abs(t.f_vals[1] / h - 1.0) < 1e-3   # f'(0+) = phi(0) g(0) = 1


def test_g_sandwich_and_monotone(identity_table):
    g = identity_table.g_vals
    assert np.all(g <= 1.0 + 1e-15)
    assert np.all(g >= 0.5 - identity_table.quad_tol)
    assert np.all(np.diff(g) <= 1e-15)


def test_f_sandwich(identity_table):
    t = identity_table
    assert np.all(t.f_vals <= t.phi_primitive + 1e-12)
    assert np.all(t.f_vals >= 0.5 * t.phi_primitive - 1e-12)
    # on this benchmark f also dominates r/2 over the whole table
    assert np.all(t.f_vals >= 0.5 * t.grid - 1e-12)


def test_f_concave_nondecreasing(identity_table):
    f = identity_table.f_vals
    assert np.all(np.diff(f) >= -1e-15)
    second = np.diff(f, 2)
    assert np.max(second) <= identity_table.quad_tol


def test_differential_inequality_residual(identity_table):
    """4 f'' + theta f' r + kappa1 f + eps[(1 + kappa1/2) theta r^2 + 4] <= 0,
    checked by central finite differences on the interior of the table."""
    t = identity_table
    h = t.grid[1] - t.grid[0]
    f = t.f_vals
    fp = (f[2:] - f[:-2]) / (2.0 * h)
    fpp = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h**2
    r = t.grid[1:-1]
    lhs = (
        4.0 * fpp
        + t.params.theta * fp * r
        + t.kappa1 * f[1:-1]
        + t.eps * ((1.0 + t.kappa1 / 2.0) * t.params.theta * r**2 + 4.0)
    )
    assert np.max(lhs) <= 10.0 * t.quad_tol


def test_scalars_match_independent_quadrature(identity_params, identity_table):
    ref = metric_scalars_reference(
        identity_params.theta, identity_params.radius,
        identity_params.kappa2, identity_params.lam,
    )
    assert abs(identity_table.kappa1 - ref["kappa1"]) < 1e-9
    assert abs(identity_table.eps - ref["eps"]) < 1e-9
    for r in (0.3, 1.1, 2.4, 2.99):
        assert abs(identity_table.f(r) - ref["f"](r)) < 1e-7
        assert abs(identity_table.g(r) - ref["g"](r)) < 1e-8


def test_kappa_floor_from_eps_cap(identity_table, identity_params):
    t, p = identity_table, identity_params
    assert t.eps <= 4.0 / (9.0 * p.radius) + 1e-15
    slot2 = (
        p.lam * p.radius**2 * t.eps * p.kappa2
        / (p.lam * p.radius**2 * t.eps + 2.0 * t.phi_primitive[-1])
    )
    assert t.kappa >= min(t.kappa1, slot2, 3.0 / 20.0) - 1e-15


def test_rho_star_zero_on_diagonal(identity_table, identity_params):
    z = np.array([0.3, -0.2])  # d = 1 phase space
    assert rho_star(identity_table, z, z) == 0.0


def test_rho_star_matches_independent_reimplementation(identity_params):
    # d = 2, identity K: evaluate eps G + f(theta|dx| + |dq|) via scipy quadrature
    params = metric_constants(np.eye(2), 0.0, 0.0, 1.0)
    table = build_metric(params, quad_tol=1e-10)
    ref = metric_scalars_reference(params.theta, params.radius, params.kappa2, params.lam)
    gen = np.random.default_rng(12)
    z = gen.standard_normal((16, 4))
    zp = z + 0.7 * gen.standard_normal((16, 4))
    got = rho_star(table, z, zp)
    for i in range(16):
        dx = z[i, :2] - zp[i, :2]
        dv = z[i, 2:] - zp[i, 2:]
        dq = dx + dv
        G = 0.5 * dx @ dx + 0.5 * dv @ dv + params.eta * dx @ dv
        r = params.theta * np.linalg.norm(dx) + np.linalg.norm(dq)
        expected = ref["eps"] * G + ref["f"](r)
        assert abs(got[i] - expected) < 1e-6


def test_rho_star_small_separation_ratio_bounded_by_c2(identity_table, identity_params):
    z = np.zeros(2)
    for delta in (1e-4, 1e-6):
        zp = np.array([0.0, delta])  # dx = 0, dv = delta
        ratio = rho_star(identity_table, z, zp) / delta
        assert ratio <= identity_table.c2 + 1e-6
    # generic small displacements also obey the C2 limit
    gen = np.random.default_rng(3)
    d = gen.standard_normal((1000, 2)) * 1e-6
    zp = z + d
    ratios = rho_star(identity_table, np.broadcast_to(z, zp.shape), zp)
    ratios = ratios / np.linalg.norm(d, axis=-1)
    assert np.all(ratios <= identity_table.c2 + 1e-6)


def _random_pairs_both_branches(params, n, seed, d=1):
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((n, 2 * d))
    scale = np.where(gen.random(n) < 0.5, 0.2, 5.0)[:, None]
    zp = z + scale * gen.standard_normal((n, 2 * d))
    return z, zp


def test_w1_domination_on_random_pairs(identity_table, identity_params):
    z, zp = _random_pairs_both_branches(identity_params, 10_000, seed=21)
    d = 1
    dx = z[:, :d] - zp[:, :d]
    dq = dx + (z[:, d:] - zp[:, d:])
    r = identity_params.theta * np.linalg.norm(dx, axis=-1) + np.linalg.norm(dq, axis=-1)
    below = (r <= identity_params.r0).sum()
    assert 0 < below < z.shape[0]  # both branches populated
    dist = np.linalg.norm(z - zp, axis=-1)
    rho = rho_star(identity_table, z, zp)
    assert np.all(dist <= identity_table.c1 * rho)


def test_scalars_stable_under_refinement(identity_params, identity_table):
    finer = build_metric(identity_params, quad_tol=0.5e-10)
    for attr in ("kappa", "c1"):
        a, b = getattr(identity_table, attr), getattr(finer, attr)
        assert abs(a - b) / abs(a) < 10.0 * identity_table.quad_tol


def test_finite_smoothing_index_extends_table(identity_params):
    t = build_metric(identity_params, quad_tol=1e-10, n_smooth=10)
    assert abs(t.r_up - (identity_params.r0 + 0.1)) < 1e-12
    assert t.g_vals[-1] >= 0.5 - t.quad_tol
    # finite-n scalars converge to the limit as n grows
    t_fine = build_metric(identity_params, quad_tol=1e-10, n_smooth=1e6)
    t_star = build_metric(identity_params, quad_tol=1e-10)
    assert abs(t_fine.kappa1 - t_star.kappa1) < 1e-4
    assert abs(t_fine.eps - t_star.eps) < 1e-4


def test_degenerate_radius_zero():
    params = metric_constants(np.diag([4.0, 1.0]), 1.0, 0.0, 0.0)
    t = build_metric(params)
    assert t.kappa == params.kappa2
    assert t.c1 == math.sqrt(2.0) / params.lam
    assert t.eps == 1.0
    z = np.array([1.0, 0.0, 0.0, -1.0])
    zp = np.zeros(4)
    dx, dv = z[:2], z[2:]
    expected_g = g_quadratic(params, dx, dv)
    np.testing.assert_allclose(rho_star(t, z, zp), expected_g)


def test_g_quadratic_examples(identity_params):
    assert g_quadratic(identity_params, np.zeros(1), np.zeros(1)) == 0.0
    val = g_quadratic(identity_params, np.array([1.0]), np.array([1.0]))
    assert abs(val - 1.5) < 1e-15


def test_g_quadratic_sandwich(identity_params):
    gen = np.random.default_rng(9)
    dx = gen.standard_normal((10_000, 1))
    dv = gen.standard_normal((10_000, 1))
    G = g_quadratic(identity_params, dx, dv)
    sq = np.sum(dx * dx, axis=-1) + np.sum(dv * dv, axis=-1)
    assert np.all(G >= identity_params.lam * sq - 1e-12)
    assert np.all(G <= identity_params.theta / 2.0 * sq + 1e-12)


def _golden_tables():
    """Metric builds keyed by case name: the identity benchmark, the d = 2
    kinetic-quadratic benchmark and an anisotropic K, each at n_smooth 5,
    1000 and inf, plus the degenerate R = 0 table."""
    lip = math.hypot(0.01, 0.005) / 1.5     # test_kinetic_integration, normalized
    aniso = metric_constants(np.diag([4.0, 1.0]) / 1.5**2, lip, lip, 0.75)
    cases = {
        "identity": metric_constants(np.eye(1), 0.0, 0.0, 1.0),
        "quadratic_d2": metric_constants(np.eye(2), 0.0, 0.0, 1.0),
        "anisotropic": aniso,
    }
    out = {}
    for name, params in cases.items():
        for n_smooth in (5, 1000, math.inf):
            out[f"{name}_n{n_smooth}"] = params, n_smooth
    out["radius0"] = metric_constants(np.diag([4.0, 1.0]), 1.0, 0.0, 0.0), math.inf
    return out


def _golden_points(d: int):
    """Pairs with r on both sides of the table edge, one of them equal."""
    z = np.linspace(-2.5, 2.5, 48 * 2 * d).reshape(48, 2 * d)
    zp = 0.625 * z[::-1]
    zp[7] = z[7]
    return z, zp


def _metric_digest(params, n_smooth) -> str:
    table = build_metric(params, quad_tol=1e-10, n_smooth=n_smooth)
    z, zp = _golden_points(params.k_matrix.shape[0])
    h = hashlib.sha256()
    for v in (table.grid, table.phi_primitive, table.g_vals, table.f_vals,
              [table.kappa1, table.eps, table.kappa, table.c1],
              rho_star(table, z, zp)):
        a = np.ascontiguousarray(np.asarray(v, dtype=float))
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# The hashes pin every float of the metric build and of rho_star, including
# the monotone cubic interpolation that the quadratures integrate through.
METRIC_GOLDEN = {
    "anisotropic_n1000": "d74ee217a722eee1e31d4f664d76874e4526e1067790186b87580036512662fe",
    "anisotropic_n5": "6c01bae088f10ca3b62f4759c3a1a0f0dae70697cff251e259d731270134301b",
    "anisotropic_ninf": "1f9b34a33a13b6fadac10e30849707700edd580c9797ba9d9b03b76237f71b51",
    "identity_n1000": "2b290607b56dfa758082af2998b6670fe2908f7a4831459c3efccec2c8c37bf3",
    "identity_n5": "0ceab134ce268ea384c248612b06f31e561353b387b12f126849f3d272d97922",
    "identity_ninf": "01dda3589bec3fb7488820a7f4442e2f7e25744504422c0f8f42a5bd1bbb6fb4",
    "quadratic_d2_n1000": "11fbe4ad5cac2e76767d409592e13ccab98bcf55e376aa9e980062ed8299a153",
    "quadratic_d2_n5": "91bbe5fbeeb0c03c6885918a392bdc663e711cde8e024cea78ee1d4885b5940b",
    "quadratic_d2_ninf": "b0cfa853541357869ee3a01a1d829a7b7a821612980726c9ea338d6d44082d18",
    "radius0": "b61714229fa261d417c1dc88efff01f983f2fd325f5e16cac891f78d0698ab9e",
}


@pytest.mark.parametrize("case", sorted(_golden_tables()))
def test_metric_golden_hash(case):
    """build_metric and rho_star reproduce their pinned output bit for bit."""
    assert _metric_digest(*_golden_tables()[case]) == METRIC_GOLDEN[case]


def _assert_pchip_matches_scipy(x, y, r):
    from scipy.interpolate import PchipInterpolator

    ours, ref = _Pchip(x, y)(r), PchipInterpolator(x, y)(r)
    assert ours.shape == ref.shape
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", sorted(c for c in _golden_tables() if c != "radius0"))
def test_pchip_matches_scipy_on_metric_tables(case):
    """The tables' interpolants equal scipy's bit for bit at random points,
    every grid node and both endpoints, inside and just outside the table."""
    params, n_smooth = _golden_tables()[case]
    table = build_metric(params, quad_tol=1e-10, n_smooth=n_smooth)
    x = table.grid
    r = np.concatenate([
        np.random.default_rng(11).uniform(-0.05 * x[-1], 1.05 * x[-1], 200_000),
        x, [x[0], x[-1]],
    ])
    for y in (table.phi_primitive, table.g_vals, table.f_vals):
        _assert_pchip_matches_scipy(x, y, r)


def test_pchip_matches_scipy_on_flat_runs_and_sign_changes():
    gen = np.random.default_rng(12)
    x = np.cumsum(gen.uniform(0.05, 2.0, 60))
    y = np.repeat(gen.integers(-3, 4, 30).astype(float), 2)   # flat runs
    y[::7] += gen.standard_normal(y[::7].size)                 # sign changes
    r = np.concatenate([gen.uniform(x[0] - 1.0, x[-1] + 1.0, 20_000), x])
    _assert_pchip_matches_scipy(x, y, r)


def test_pchip_matches_scipy_on_two_and_three_points():
    # the three end-slope branches: sign flip -> 0, overshoot -> 3 m0, else d
    assert _edge_slope(1.0, 1.0, 1.0, 10.0) == 0.0
    assert _edge_slope(1.0, 1.0, 1.0, -5.0) == 3.0
    assert _edge_slope(1.0, 1.0, 10.0, 1.0) == 14.5
    grids = [
        ([0.0, 1.5], [2.0, -1.0]),              # linear
        ([0.0, 1.0, 2.0], [0.0, 1.0, 11.0]),    # left slope flips, right plain
        ([0.0, 1.0, 2.0], [0.0, 1.0, -4.0]),    # left overshoot, interior sign change
        ([0.0, 0.5, 3.0], [1.0, 1.0, 2.0]),     # flat segment
        ([-1.0, 0.25, 2.0], [3.0, -0.5, -2.0]),
    ]
    for x, y in grids:
        x, y = np.array(x), np.array(y)
        r = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 101), x])
        _assert_pchip_matches_scipy(x, y, r)
