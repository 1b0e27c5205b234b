import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nesslsi.constants import (
    constants_report,
    defective_lsi_constants,
    harnack_factor,
    hypercontractivity_bound,
    interpolate_norm,
    kinetic_value_lip_bound,
    lsi_constant,
    lyapunov_bound,
    perturbation_bound_elliptic,
    poincare_constant,
    sup_inner_drift,
)
from nesslsi.models import EllipticModel, make_scenario


def test_harnack_factor_trivial_cases():
    assert harnack_factor(0.0, 1.0, 2.0, 1.0, 0.0) == 1.0
    assert abs(harnack_factor(0.0, math.sqrt(2.0), 2.0, 1.0, 1.0) - math.exp(0.5)) < 1e-15
    assert abs(harnack_factor(1.0, 1.0, 2.0, 2.0, 1.0) - math.exp(2.5)) < 1e-12


def test_harnack_factor_saturates_where_exp_overflows():
    """At k_w = sigma = 1, alpha = 2 and dist = 0 the exponent is t: exp(t)
    below 709, inf from 709 on, as the hypercontractivity bound saturates."""
    assert harnack_factor(1.0, 1.0, 2.0, 708.0, 0.0) == math.exp(708.0)
    assert harnack_factor(1.0, 1.0, 2.0, 709.0, 0.0) == math.inf
    assert harnack_factor(250.0, 0.01, 2.0, 0.5, 1.0) == math.inf


def test_harnack_factor_validates_inputs():
    with pytest.raises(ValueError):
        harnack_factor(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        harnack_factor(0.0, 1.0, 2.0, 0.0, 1.0)


def test_hypercontractivity_bound_reference_point():
    t0, bound = hypercontractivity_bound(
        L=0.0, rho=1.0, R=0.0, sigma=math.sqrt(2.0), d=1, alpha=2.0, beta=3.0, t=6.0
    )
    assert abs(t0 - 3.0) < 1e-15
    assert abs(bound - 5.0 * math.exp(5.0 / 8.0)) < 1e-12


def test_hypercontractivity_bound_large_time_limit():
    _, bound = hypercontractivity_bound(
        L=0.0, rho=1.0, R=0.0, sigma=math.sqrt(2.0), d=1, alpha=2.0, beta=3.0, t=1e9
    )
    assert abs(bound - 5.0) < 1e-6


def test_hypercontractivity_bound_rejects_t_below_t0():
    with pytest.raises(ValueError, match="t0"):
        hypercontractivity_bound(0.0, 1.0, 0.0, math.sqrt(2.0), 1, 2.0, 3.0, t=2.9)
    with pytest.raises(ValueError, match="t0"):
        hypercontractivity_bound(0.0, 1.0, 0.0, 1.0, 1, 2.0, 3.0, t=6.0)  # t == t0


def test_hypercontractivity_bound_nonincreasing_in_t():
    ts = np.linspace(3.5, 40.0, 50)
    vals = [
        hypercontractivity_bound(0.0, 1.0, 0.0, math.sqrt(2.0), 1, 2.0, 3.0, t)[1]
        for t in ts
    ]
    assert np.all(np.diff(vals) <= 1e-12)


def test_interpolate_norm_examples():
    v = 1.7
    assert abs(interpolate_norm(2.0, 2.0, v) - v**3) < 1e-14
    assert interpolate_norm(2.0, 2.0, 1.0) == 1.0
    assert abs(interpolate_norm(1.5, 3.0, 2.0) - 2.0**3.5) < 1e-14


def test_lyapunov_bound_reference_point():
    val = lyapunov_bound(L=0.0, rho=1.0, R=0.0, d=1, delta=0.125)
    assert abs(val - 5.0 * math.exp(0.625)) < 1e-12


def test_lyapunov_bound_small_delta_limit():
    val = lyapunov_bound(L=0.0, rho=1.0, R=0.0, d=1, delta=1e-9)
    assert abs(val - 5.0) < 1e-6


def test_lyapunov_bound_rejects_delta_at_quarter_rho():
    with pytest.raises(ValueError):
        lyapunov_bound(0.0, 1.0, 0.0, 1, delta=0.25)


def test_lyapunov_bound_nondecreasing_in_delta():
    deltas = np.linspace(1e-4, 0.125, 40)  # (0, rho/8] for rho = 1, R = 0
    vals = [lyapunov_bound(0.0, 1.0, 0.0, 1, d) for d in deltas]
    assert np.all(np.diff(vals) >= 0.0)


def test_defective_lsi_reference_point():
    A, B = defective_lsi_constants(L=0.0, rho=1.0, sigma=1.0, d=1, R=0.0)
    assert abs(A - 12.0) < 1e-12
    assert abs(B - (6.0 * math.log(5.0) + 3.75)) < 1e-12


def test_defective_lsi_limit_slope_scales_with_rho():
    A, _ = defective_lsi_constants(L=0.0, rho=2.0, sigma=1.0, d=1, R=0.0)
    assert abs(A - 6.0) < 1e-12


def test_defective_lsi_independent_arithmetic():
    # independent re-evaluation: L=1, rho=1, sigma=sqrt(2), d=1, R=1
    A, B = defective_lsi_constants(L=1.0, rho=1.0, sigma=math.sqrt(2.0), d=1, R=1.0)
    assert abs(A - (math.exp(12.0) - 1.0)) < 1e-9 * math.exp(12.0)
    expected_b = 6.0 * math.log(1.0 + 4.0 + 2.0 * (1.0 + 1.0) * 1.0) + 108.0 / 4.0 + 0.75 * 5.0
    assert abs(B - expected_b) < 1e-12


def test_defective_lsi_continuity_at_zero_l():
    A_eps, _ = defective_lsi_constants(L=1e-9, rho=1.0, sigma=1.0, d=1, R=0.0)
    A_0, _ = defective_lsi_constants(L=0.0, rho=1.0, sigma=1.0, d=1, R=0.0)
    assert abs(A_eps - A_0) < 1e-6


def test_poincare_degenerate_radius():
    r_star, sigma0, C = poincare_constant(0.0, 1.0, 0.0, 2.0, 1, 1.0, 0.0)
    assert r_star == 0.0
    assert sigma0 == 0.0
    assert abs(C - 8.0) < 1e-15


def test_poincare_r_star_substitution():
    r_star, _, _ = poincare_constant(0.0, 1.0, 1.0, 1.0, 1, 1.0, 0.0)
    assert abs(r_star - 2.0) < 1e-15


def test_poincare_ou_sigma0_substitution(ou1):
    r_star = 2.0
    sup_val, _ = sup_inner_drift(ou1, r_star)
    assert abs(sup_val - 4.0) < 1e-12   # max of |x|^2 over |x| <= 2
    _, sigma0, _ = poincare_constant(0.0, 1.0, 1.0, ou1.sigma, 1, 1.0, sup_val)
    # (2L+rho)((2L+rho/2) R*^2 + 2 sup)/(rho d) = 1 * (0.5*4 + 8) / 1
    assert abs(sigma0 - 10.0) < 1e-12


def test_sup_inner_drift_expanding_field_is_zero():
    m = EllipticModel(d=1, drift=lambda x: x.copy(), sigma=1.0, rho=1.0)
    val, arg = sup_inner_drift(m, 3.0)
    assert val == 0.0
    assert np.allclose(arg, 0.0)


def test_sup_inner_drift_rotation_is_orthogonal():
    # rotating drift with V = 0: -x.b(x) = |x|^2, maximized on the boundary
    m = make_scenario("rotating", {"f_const": 1.0, "v_amp": 0.0})
    r_star = 2.0
    val, arg = sup_inner_drift(m, r_star, n_grid=8192)
    assert abs(val - r_star**2) < 1e-9
    assert abs(np.linalg.norm(arg) - r_star) < 1e-9


def test_lsi_constant_composition():
    A, B = defective_lsi_constants(0.0, 1.0, 1.0, 1, 0.0)
    C = 4.0
    assert abs(lsi_constant(A, B, C) - (12.0 + (6.0 * math.log(5.0) + 3.75 + 2.0))) < 1e-12
    assert lsi_constant(5.0, 0.0, 0.0) == 5.0
    assert lsi_constant(0.0, 2.0, 1.0) == 1.0


def test_perturbation_bound_pure_lipschitz():
    pb = perturbation_bound_elliptic(0.0, 2.0, 1.5, dist=3.0)
    assert pb.bounded_part == 0.0
    assert abs(pb.lipschitz_slope - 3.0) < 1e-15
    assert abs(pb.total - 9.0) < 1e-15


def test_perturbation_bound_minimization_against_grid_oracle():
    m_phi, l_phi, c_prime, dist = 1.0, 0.0, 1.0, 1.0
    pb = perturbation_bound_elliptic(m_phi, l_phi, c_prime, dist)
    assert abs(pb.total - 4.0) < 1e-12
    ts = np.linspace(1e-4, 50.0, 400_000)
    grid_min = np.min(2.0 * m_phi * ts + c_prime * (2.0 * m_phi / ts + l_phi) * dist)
    assert pb.total <= grid_min + 1e-7


def test_perturbation_bound_zero_distance():
    pb = perturbation_bound_elliptic(1.0, 1.0, 1.0, dist=0.0)
    assert pb.total == 0.0


def test_kinetic_value_lip_bound(identity_table):
    assert kinetic_value_lip_bound(identity_table, 0.0) == 0.0
    one = kinetic_value_lip_bound(identity_table, 1.0)
    expected = identity_table.c1 * identity_table.c2 / identity_table.kappa
    assert abs(one - expected) < 1e-12
    assert abs(kinetic_value_lip_bound(identity_table, 2.0) - 2.0 * one) < 1e-9


def test_constants_report_identity():
    rep = constants_report(L=0.0, rho=1.0, R=0.0, sigma=1.0, d=1)
    assert rep.A == 12.0
    assert abs(rep.C - 4.0) < 1e-15
    assert abs(rep.C_LS - (rep.A + rep.C * (rep.B + 2.0) / 4.0)) < 1e-15
    assert rep.sigma_ok


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.0, 3.0),
    rho=st.floats(0.1, 4.0),
    R=st.floats(0.0, 2.0),
    sigma=st.floats(0.3, 3.0),
    d=st.integers(1, 4),
)
def test_calculators_are_pure(L, rho, R, sigma, d):
    a1 = defective_lsi_constants(L, rho, sigma, d, R)
    a2 = defective_lsi_constants(L, rho, sigma, d, R)
    assert a1 == a2
    p1 = poincare_constant(L, rho, R, sigma, d, 1.0, 0.7)
    p2 = poincare_constant(L, rho, R, sigma, d, 1.0, 0.7)
    assert p1 == p2
