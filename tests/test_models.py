import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslsi.models import (
    CompetitionKernel,
    EllipticModel,
    KineticModel,
    arctan_kernel,
    derive_elliptic_fields,
    make_competition_drift,
    make_scenario,
    normalize_kinetic,
    probe_one_sided_condition,
)

from nesslsi.simulate import noise_normals


def test_split_consistency_checked():
    with pytest.raises(ValueError, match="b0 \\+ b1"):
        EllipticModel(
            d=1, drift=lambda x: -x, sigma=1.0, rho=1.0,
            b0=lambda x: -x, b1=lambda x: x,
        )


def test_derive_fields_zero_perturbation(ou1):
    fields = derive_elliptic_fields(ou1)
    x = np.linspace(-2, 2, 9)[:, None]
    np.testing.assert_allclose(fields.phi(x), 0.0)
    np.testing.assert_allclose(fields.b_tilde(x), 2 * ou1.grad_log_ref(x) - ou1.drift(x))


def test_derive_fields_gradient_perturbation_matches_closed_form():
    # mu0 standard Gaussian, b1 = -grad V => phi = Lap V + grad V . x
    d = 2
    grad_v = lambda x: x**3
    lap_v = lambda x: np.sum(3.0 * x**2, axis=-1)
    m = EllipticModel(
        d=d,
        drift=lambda x: -x - grad_v(x),
        sigma=math.sqrt(2.0),
        rho=1.0,
        b0=lambda x: -x,
        b1=lambda x: -grad_v(x),
        grad_log_ref=lambda x: -x,
    )
    fields = derive_elliptic_fields(m)
    gen = np.random.default_rng(5)
    x = gen.standard_normal((100, d))
    expected = lap_v(x) + np.sum(grad_v(x) * x, axis=-1)
    np.testing.assert_allclose(fields.phi(x), expected, atol=1e-5)


def test_derive_fields_rotating_perturbation_matches_closed_form():
    # mu0 propto exp(-|x|^2/2 - V), b1 = f(|x|) x_perp => phi = f(|x|) x_perp . grad V
    a = 0.3
    grad_v = lambda x: a * x  # V = a |x|^2 / 2
    perp = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)
    f_const = 0.7
    m = EllipticModel(
        d=2,
        drift=lambda x: f_const * perp(x) - x - grad_v(x),
        sigma=math.sqrt(2.0),
        rho=0.5,
        b0=lambda x: -x - grad_v(x),
        b1=lambda x: f_const * perp(x),
        grad_log_ref=lambda x: -x - grad_v(x),
    )
    fields = derive_elliptic_fields(m)
    gen = np.random.default_rng(6)
    x = gen.standard_normal((200, 2))
    expected = f_const * np.sum(perp(x) * grad_v(x), axis=-1)
    np.testing.assert_allclose(fields.phi(x), expected, atol=1e-6)


def test_fd_divergence_matches_closed_form_cubic():
    # polynomial b1 of degree 3: phi = -sum(3 x^2 - 2) + b1(x) . (-x)
    d = 3
    b1 = lambda x: x**3 - 2.0 * x
    fields = derive_elliptic_fields(EllipticModel(
        d=d, drift=lambda x: -x + b1(x), sigma=1.0, rho=1.0,
        b0=lambda x: -x, b1=b1, grad_log_ref=lambda x: -x,
    ))
    gen = np.random.default_rng(7)
    x = gen.standard_normal((1000, d))
    want = -np.sum(3.0 * x**2 - 2.0, axis=-1) - np.sum(b1(x) * x, axis=-1)
    np.testing.assert_allclose(fields.phi(x), want, atol=1e-6)


def test_derive_fields_without_b1_has_zero_phi():
    """With no split declared, phi is 0 and b_tilde = 2 grad log mu_0 - b."""
    drift = lambda x: np.stack([-x[..., 0] - x[..., 1], x[..., 0] - x[..., 1]], axis=-1)
    m = EllipticModel(d=2, drift=drift, sigma=math.sqrt(2.0), rho=1.0,
                      grad_log_ref=lambda x: -x)
    fields = derive_elliptic_fields(m)
    x = np.random.default_rng(6).standard_normal((50, 2))
    np.testing.assert_array_equal(fields.phi(x), np.zeros(50))
    np.testing.assert_array_equal(fields.b_tilde(x), 2.0 * -x - drift(x))


def test_derive_fields_requires_reference():
    m = EllipticModel(d=1, drift=lambda x: -x, sigma=1.0, rho=1.0)
    with pytest.raises(ValueError, match="grad_log_ref"):
        derive_elliptic_fields(m)


def test_competition_drift_zero_kernel():
    k = CompetitionKernel(
        p=1,
        k_func=lambda a, b: np.zeros(np.broadcast(a[..., 0], b[..., 0]).shape),
        grad_x1=lambda a, b: np.zeros_like(a),
        grad_x2=lambda a, b: np.zeros_like(b),
    )
    drift = make_competition_drift(k, np.ones((5, 2)))
    np.testing.assert_allclose(drift(np.array([[0.3, -0.7]])), 0.0)


def test_competition_drift_bilinear_kernel():
    # K(x1, x2) = x1 x2: grad_x1 = x2, grad_x2 = x1; one particle at (a, b)
    k = CompetitionKernel(
        p=1,
        k_func=lambda a, b: (a * b)[..., 0],
        grad_x1=lambda a, b: np.broadcast_to(b, np.broadcast_shapes(a.shape, b.shape)).copy(),
        grad_x2=lambda a, b: np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape)).copy(),
    )
    a_val, b_val = 1.3, -0.4
    drift = make_competition_drift(k, np.array([[a_val, b_val]]))
    out = drift(np.array([[10.0, 20.0]]))  # constant in x
    np.testing.assert_allclose(out, [[b_val, -a_val]], atol=1e-12)


def test_competition_drift_arctan_matches_direct_sum():
    kernel = arctan_kernel(1)
    particles = np.array([[0.5, -1.0], [-0.3, 2.0]])
    drift = make_competition_drift(kernel, particles)
    x = np.array([[0.2, 0.9]])
    # direct evaluation: average kernel gradients over the particle cloud
    g1 = np.mean([1.0 / (1.0 + (0.2 - y2) ** 2) for y2 in particles[:, 1]])
    g2 = np.mean([-1.0 / (1.0 + (y1 - 0.9) ** 2) for y1 in particles[:, 0]])
    np.testing.assert_allclose(drift(x), [[g1, -g2]], atol=1e-12)


def test_competition_drift_empty_particles():
    with pytest.raises(ValueError, match="nonempty"):
        make_competition_drift(arctan_kernel(1), np.zeros((0, 2)))


def test_competition_kernel_gradient_validation():
    with pytest.raises(ValueError, match="central differences"):
        CompetitionKernel(
            p=1,
            k_func=lambda a, b: np.sum(np.arctan(a - b), axis=-1),
            grad_x1=lambda a, b: np.ones_like(a),   # wrong on purpose
            grad_x2=lambda a, b: -1.0 / (1.0 + (a - b) ** 2),
        )


def test_normalize_kinetic_identity_at_unit_friction():
    m = make_scenario("kinetic-quadratic", {"d": 1, "gamma": 1.0})
    assert normalize_kinetic(m) is m


def test_normalize_kinetic_rejects_nonpositive_gamma():
    with pytest.raises(ValueError, match="gamma"):
        make_scenario("kinetic-quadratic", {"d": 1, "gamma": 0.0})


def test_normalize_kinetic_scales_k_matrix():
    m = make_scenario("kinetic-quadratic", {"d": 1, "gamma": 2.0})
    norm = normalize_kinetic(m)
    np.testing.assert_allclose(norm.k_matrix, m.k_matrix / 4.0)


def test_normalize_kinetic_pathwise_round_trip():
    """EM paths of the normalized system, mapped back through
    (t, x, v) -> (t/gamma, x/gamma, v), reproduce the original EM paths
    when driven by the matched Brownian rescaling."""
    gamma = 2.0
    m = make_scenario("kinetic-quadratic", {"d": 1, "gamma": gamma})
    norm = normalize_kinetic(m)
    dt, T = 1e-4, 1.0
    steps = int(round(T / dt))
    seed = 99
    x = np.array([0.7])
    v = np.array([-0.2])
    xh, vh = gamma * x.copy(), v.copy()
    sq_orig = math.sqrt(2.0 * gamma) * math.sqrt(dt)
    sq_norm = math.sqrt(2.0) * math.sqrt(gamma * dt)
    for step in range(steps):
        xi = noise_normals(seed, step, 0, (1, 1))[0]
        # original system at dt
        acc = -m.grad_potential(x) - gamma * v
        x, v = x + v * dt, v + acc * dt + sq_orig * xi
        # normalized system at gamma*dt with matched increment sqrt(gamma)*dB
        acc_h = -norm.grad_potential(xh) - vh
        xh, vh = xh + vh * (gamma * dt), vh + acc_h * (gamma * dt) + sq_norm * xi
    assert abs(xh[0] / gamma - x[0]) < 1e-3
    assert abs(vh[0] - v[0]) < 1e-3


def test_probe_ou_exact_ratio(ou1):
    rep = probe_one_sided_condition(ou1, n_pairs=500, seed=1)
    assert abs(rep.max_ratio_outside + 1.0) < 1e-12
    assert not rep.violated


def test_probe_linear_spd_matches_min_eigenvalue():
    a = 1.7
    m = EllipticModel(d=3, drift=lambda x: -a * x, sigma=1.0, rho=a)
    rep = probe_one_sided_condition(m, n_pairs=2000, seed=2)
    assert abs(rep.max_ratio_outside + a) < 1e-12


def test_probe_general_spd_bounded_by_min_eigenvalue():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    lam_min = np.linalg.eigvalsh(A).min()
    m = EllipticModel(d=2, drift=lambda x: -x @ A.T, sigma=1.0, rho=lam_min)
    rep = probe_one_sided_condition(m, n_pairs=5000, seed=3)
    assert rep.max_ratio_outside <= -lam_min + 1e-12
    assert not rep.violated


def test_probe_sin_drift_against_grid_oracle():
    # b(x) = -x + sin(x): dense-grid oracle over pairs in [-10, 10]^2
    drift = lambda x: -x + np.sin(x)
    m = EllipticModel(d=1, drift=drift, sigma=1.0, rho=0.1, lip=2.0, radius=7.0)
    grid = np.linspace(-10.0, 10.0, 401)
    xg, yg = np.meshgrid(grid, grid)
    mask = xg != yg
    ratio = (drift(xg) - drift(yg))[mask] * (xg - yg)[mask] / (xg - yg)[mask] ** 2
    sep = np.abs(xg - yg)[mask]
    assert ratio[sep >= 7.0].max() <= -0.1
    assert ratio[sep < 7.0].max() <= 2.0

    def sampler(gen, n):
        x = gen.uniform(-10, 10, (n, 1))
        y = gen.uniform(-10, 10, (n, 1))
        return x, y

    rep = probe_one_sided_condition(m, n_pairs=20000, seed=4, sampler=sampler)
    assert not rep.violated


def test_probe_flags_misdeclared_rho(ou1):
    too_strong = EllipticModel(d=1, drift=ou1.drift, sigma=ou1.sigma, rho=2.0)
    rep = probe_one_sided_condition(too_strong, n_pairs=200, seed=5)
    assert rep.violated


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.1, 5.0),
    k=st.floats(0.05, 3.0),
    l2_lo=st.floats(0.0, 0.2),
    l2_hi=st.floats(0.0, 0.2),
)
def test_admissibility_monotone_in_l2(gamma, k, l2_lo, l2_hi):
    lo, hi = sorted((l2_lo, l2_hi))

    def flag(l2):
        m = KineticModel(
            d=1, gamma=gamma, grad_potential=lambda x: k * x,
            k_matrix=np.array([[k]]), lip_inner=max(l2, 1.0), lip_outer=l2,
        )
        return m.admissible

    if flag(hi):
        assert flag(lo)


def test_scenario_registry_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        make_scenario("no-such-model")


def test_scenario_rejects_unknown_parameter():
    with pytest.raises(TypeError, match="rat"):
        make_scenario("ou", {"rat": 5})


def test_scenario_double_well_drift():
    m = make_scenario("double-well")
    np.testing.assert_allclose(m.drift(np.array([1.1])), [1.1 - 1.1**3])


def _bump_by_gather(x, prime=False):
    """The bump (or its derivative) on the inside entries only, scattered
    into zeros: the reference the select-based evaluation must equal."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    xi = x[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi * xi))
    if prime:
        out[inside] *= -2.0 * xi / (1.0 - xi * xi) ** 2
    return out


def test_bump_equals_gather_reference_bit_for_bit():
    from nesslsi.models import _bump, _bump_prime

    below1 = np.nextafter(1.0, 0.0)
    edges = [0.0, -0.0, below1, -below1, 1.0, -1.0, 1.5, -1.5, np.inf, -np.inf, np.nan]
    xs = np.concatenate([edges, np.random.default_rng(3).uniform(-1.3, 1.3, 100_000)])
    for x in (xs, xs.reshape(-1, 3), np.float64(0.25), np.float64(1.0)):
        with np.errstate(all="raise"):
            got, got_prime = _bump(x), _bump_prime(x)
        assert got.shape == got_prime.shape == np.shape(x)
        assert got.tobytes() == _bump_by_gather(x).tobytes()
        assert got_prime.tobytes() == _bump_by_gather(x, prime=True).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 300), gamma=st.sampled_from([1.0, 0.7, 2.5]),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_control_drift_is_the_concatenated_formula_bit_for_bit(d, n, gamma, seed, scale):
    """control_drift gives the bits of concatenate([v, -gamma v - x @ K.T + g])
    on C- and Fortran-ordered batches, in the input's memory order, and one
    call on two stacked batches gives the bits of one call on each."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    k = a @ a.T + d * np.eye(d)
    model = KineticModel(d=d, gamma=gamma, grad_potential=lambda x: x @ k.T + 0.05 * np.tanh(x),
                         k_matrix=k, forcing=lambda x, v: 0.03 * np.sin(x - v))

    def formula(z):
        x, v = z[..., :d], z[..., d:]
        acc = -gamma * v - x @ model.k_matrix.T + model.residual_g(x, v)
        return np.concatenate([v, acc], axis=-1)

    z, zp = scale * rng.normal(size=(2, n, 2 * d))
    for order in "CF":
        for batch in (z, zp):
            batch = np.asarray(batch, order=order)
            got = model.control_drift(batch)
            assert got.tobytes(order="A") == np.asarray(formula(batch), order=order).tobytes(order="A")
            assert got.flags[f"{order}_CONTIGUOUS"]
    stacked = model.control_drift(np.asfortranarray(np.concatenate([z, zp])))
    halves = np.concatenate([model.control_drift(np.asfortranarray(b)) for b in (z, zp)])
    assert stacked.tobytes() == halves.tobytes()
