"""Explicit constants: Harnack and hypercontractivity factors, Lyapunov and
defective log-Sobolev bounds, the Poincare constant, and the perturbation
bound shapes.

Conventions.  All formulas are written for the SDE dX = b dt + sigma dB
(sigma scalar), matching the Girsanov computation behind the Harnack
inequality; the generator notation b.grad + sigma*Laplace of the structural
assumption is read with this convention.  ``alpha_ext`` in the Poincare
constant is an exponent the closed-form expression leaves free, so it is
exposed as an explicit input (default 1) rather than guessed.

All calculators are pure functions of their inputs: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import EllipticModel, _Record

__all__ = [
    "ConstantsReport",
    "PerturbationBound",
    "harnack_factor",
    "hypercontractivity_t0",
    "hypercontractivity_bound",
    "interpolate_norm",
    "lyapunov_bound",
    "defective_lsi_constants",
    "poincare_constant",
    "sup_inner_drift",
    "lsi_constant",
    "perturbation_bound_elliptic",
    "kinetic_value_lip_bound",
    "constants_report",
]

# Below this, the slope of the defective-LSI constant A switches to its
# L -> 0 limit 12/rho to avoid catastrophic cancellation.
_L_SMALL = 1e-12


@dataclass(frozen=True)
class ConstantsReport(_Record):
    """All explicit constants for one elliptic parameter set."""

    A: float
    B: float
    C: float
    sigma0: float
    R_star: float
    t0: float
    C_LS: float
    sup_inner: float
    sigma_ok: bool
    # inputs echoed
    L: float
    rho: float
    R: float
    sigma: float
    d: int
    alpha_ext: float


def harnack_factor(k_w: float, sigma: float, alpha: float, t: float, dist: float) -> float:
    """Wang-Harnack multiplicative factor
    exp( alpha/(2 sigma^2 (alpha-1)) * (k_w^2 t + dist^2/t) ).

    ``k_w`` is the one-sided constant in (x-y).(b(x)-b(y)) <= k_w |x-y|;
    under the structural assumption with inner bound L and radius R one can
    take k_w = L*R.  An exponent of 709 or more, where exp overflows, gives inf.
    """
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if t <= 0:
        raise ValueError("t must be positive")
    if k_w < 0 or dist < 0:
        raise ValueError("k_w and dist must be nonnegative")
    exponent = alpha / (2.0 * sigma**2 * (alpha - 1.0)) * (k_w**2 * t + dist**2 / t)
    return math.exp(exponent) if exponent < 709.0 else math.inf


def hypercontractivity_t0(sigma: float, rho: float, alpha: float, beta: float) -> float:
    """Time t0 = 2 beta/(sigma^2 rho (alpha-1)) after which
    :func:`hypercontractivity_bound` holds."""
    if not beta > alpha > 1:
        raise ValueError("need beta > alpha > 1")
    return 2.0 * beta / (sigma**2 * rho * (alpha - 1.0))


def hypercontractivity_bound(
    L: float, rho: float, R: float, sigma: float, d: int, alpha: float, beta: float, t: float
) -> tuple[float, float]:
    """Bound on |P_t|_{alpha -> beta} valid for t > t0 = 2 beta/(sigma^2 rho (alpha-1)).

    Returns (t0, bound) with
    bound = (1 + 4d + 2(L+rho)R^2)
            * exp( beta L R t / (2 sigma^2 (alpha-1))
                   + (1/8) max((1+4d)/(t/t0 - 1), 2 rho R^2) ).
    """
    t0 = hypercontractivity_t0(sigma, rho, alpha, beta)
    if t <= t0:
        raise ValueError(f"bound undefined for t <= t0 = {t0:g}")
    prefactor = 1.0 + 4.0 * d + 2.0 * (L + rho) * R**2
    exponent = beta * L * R * t / (2.0 * sigma**2 * (alpha - 1.0)) + 0.125 * max(
        (1.0 + 4.0 * d) / (t / t0 - 1.0), 2.0 * rho * R**2
    )
    # the bound blows up as t decreases to t0; saturate instead of overflowing
    bound = prefactor * math.exp(exponent) if exponent < 709.0 else math.inf
    return t0, bound


def interpolate_norm(alpha: float, gamma_h: float, norm_val: float) -> float:
    """Holder interpolation: |P_t|_{1 -> alpha} <= norm_val^(gamma_h*alpha - 1)
    given norm_val = |P_t|_{alpha -> (gamma_h*alpha-1)/(gamma_h-1)}."""
    if alpha <= 1 or gamma_h <= 1:
        raise ValueError("need alpha > 1 and gamma_h > 1")
    return norm_val ** (gamma_h * alpha - 1.0)


def lyapunov_bound(L: float, rho: float, R: float, d: int, delta: float) -> float:
    """Exponential-moment bound on two independent stationary copies:
    E exp(delta |X - Y|^2) <= (1 + 4d + (2L + 8 delta) R^2)
                              * exp(delta max((1+4d)/(2(rho-4delta)), R^2)),
    for delta in (0, rho/4)."""
    if not 0 < delta < rho / 4.0:
        raise ValueError("delta must lie in (0, rho/4)")
    prefactor = 1.0 + 4.0 * d + (2.0 * L + 8.0 * delta) * R**2
    return prefactor * math.exp(delta * max((1.0 + 4.0 * d) / (2.0 * (rho - 4.0 * delta)), R**2))


def defective_lsi_constants(
    L: float, rho: float, sigma: float, d: int, R: float
) -> tuple[float, float]:
    """Defective log-Sobolev constants (A, B):

    A = sigma^2/(2L) (exp(24 L/(sigma^2 rho)) - 1), with its L -> 0 limit
        12/rho below L = 1e-12,
    B = 6 ln(1 + 4d + 2(L+rho)R^2) + 108 L R/(sigma^4 rho)
        + (3/4) max(1 + 4d, 2 rho R^2).
    """
    if rho <= 0 or sigma <= 0:
        raise ValueError("need rho > 0 and sigma > 0")
    if L < 0 or R < 0:
        raise ValueError("L and R must be nonnegative")
    if L < _L_SMALL:
        A = 12.0 / rho
    else:
        exponent = 24.0 * L / (sigma**2 * rho)
        A = sigma**2 / (2.0 * L) * math.expm1(exponent) if exponent < 709.0 else math.inf
    B = (
        6.0 * math.log(1.0 + 4.0 * d + 2.0 * (L + rho) * R**2)
        + 108.0 * L * R / (sigma**4 * rho)
        + 0.75 * max(1.0 + 4.0 * d, 2.0 * rho * R**2)
    )
    return A, B


def poincare_constant(
    L: float,
    rho: float,
    R: float,
    sigma: float,
    d: int,
    alpha_ext: float,
    sup_inner: float,
) -> tuple[float, float, float]:
    """Poincare constant under the high-diffusivity condition.

    Returns (R_star, sigma0, C) with R_star = R (2 + 2L/rho)^(1/d),
    sigma0 = (2L+rho)((2L+rho/2) R_star^2 + 2 sup_inner)/(rho d) and
    C = (4 sigma/rho)(1 + alpha_ext (2L+rho) R_star^2/(4 d sigma)).
    ``sup_inner`` is sup{-x.b(x) : |x| <= R_star} (see
    :func:`sup_inner_drift`); the caller should check sigma >= sigma0.
    """
    if rho <= 0 or sigma <= 0:
        raise ValueError("need rho > 0 and sigma > 0")
    r_star = R * (2.0 + 2.0 * L / rho) ** (1.0 / d)
    sigma0 = (2.0 * L + rho) * ((2.0 * L + rho / 2.0) * r_star**2 + 2.0 * sup_inner) / (rho * d)
    C = 4.0 * sigma / rho * (1.0 + alpha_ext * (2.0 * L + rho) * r_star**2 / (4.0 * d * sigma))
    return r_star, sigma0, C


def sup_inner_drift(
    model: EllipticModel, r_star: float, n_grid: int = 4096
) -> tuple[float, np.ndarray]:
    """Maximize -x.b(x) over the ball |x| <= r_star by sampling.

    Dense radial grid in d = 1; in higher dimension a seeded low-discrepancy
    cloud plus radial rescaling.  Returns (max value, argmax); the maximum is
    at least 0 since x = 0 is always included.
    """
    if r_star < 0:
        raise ValueError("r_star must be nonnegative")
    if r_star == 0.0 or n_grid < 1:
        return 0.0, np.zeros(model.d)
    if model.d == 1:
        xs = np.linspace(-r_star, r_star, max(n_grid, 3))[:, None]
    else:
        gen = np.random.Generator(np.random.Philox(key=np.array([0, 51], dtype=np.uint64)))
        raw = gen.standard_normal((n_grid, model.d))
        radii = gen.random(n_grid) ** (1.0 / model.d)
        xs = raw / np.linalg.norm(raw, axis=1, keepdims=True) * (r_star * radii)[:, None]
        boundary = raw[: max(n_grid // 4, 1)]
        boundary = boundary / np.linalg.norm(boundary, axis=1, keepdims=True) * r_star
        xs = np.vstack([xs, boundary])
    xs = np.vstack([xs, np.zeros((1, model.d))])
    vals = -np.sum(xs * model.drift(xs), axis=-1)
    i = int(np.argmax(vals))
    return float(vals[i]), xs[i]


def lsi_constant(A: float, B: float, C: float) -> float:
    """Tight log-Sobolev constant A + C(B + 2)/4 from a defective LSI (A, B)
    and a Poincare constant C."""
    if min(A, B, C) < 0:
        raise ValueError("A, B, C must be nonnegative")
    return A + C * (B + 2.0) / 4.0


@dataclass(frozen=True)
class PerturbationBound:
    """Pieces of the bounded+Lipschitz value-function bound
    |u(x) - u(y)| <= bounded_part + lipschitz_slope * dist."""

    bounded_part: float
    lipschitz_slope: float
    total: float


def perturbation_bound_elliptic(
    m_phi: float,
    l_phi: float,
    c_prime: float,
    dist: float,
) -> PerturbationBound:
    """Value-function increment bound 2 M t + C'(2M/t + L) dist, minimized
    over t: t* = sqrt(C' dist) and total 4 M sqrt(C' dist) + C' L dist.
    ``c_prime`` is the contraction ratio C/kappa estimated from reflection
    coupling fits; it is never asserted, only supplied.
    """
    if c_prime <= 0:
        raise ValueError("c_prime must be positive")
    if dist < 0 or m_phi < 0 or l_phi < 0:
        raise ValueError("m_phi, l_phi, dist must be nonnegative")
    if m_phi == 0.0 or dist == 0.0:
        # limit t -> 0: only the Lipschitz term survives
        return PerturbationBound(0.0, c_prime * l_phi, c_prime * l_phi * dist)
    t_star = math.sqrt(c_prime * dist)
    total = 4.0 * m_phi * math.sqrt(c_prime * dist) + c_prime * l_phi * dist
    return PerturbationBound(
        2.0 * m_phi * t_star, c_prime * (2.0 * m_phi / t_star + l_phi), total
    )


def kinetic_value_lip_bound(table, l_phi: float) -> float:
    """Lipschitz constant C1 C2 L_phi / kappa of the kinetic value function,
    from a built metric table."""
    if l_phi < 0:
        raise ValueError("l_phi must be nonnegative")
    return table.c1 * table.c2 * l_phi / table.kappa


def constants_report(
    *,
    rho: float,
    sigma: float,
    L: float = 0.0,
    R: float = 0.0,
    d: int = 1,
    alpha_ext: float = 1.0,
    sup_inner: float | None = None,
) -> ConstantsReport:
    """Assemble the full constants report (A, B, C, sigma0, R_star, t0, C_LS).

    ``sup_inner`` is sup{-x.b(x) : |x| <= R_star} (see
    :func:`sup_inner_drift`); it may be omitted only when R = 0, where the
    sup over {0} vanishes.  t0 follows the default exponent path alpha = 2,
    beta = 3.
    """
    A, B = defective_lsi_constants(L, rho, sigma, d, R)
    if sup_inner is None:
        if R != 0.0:
            raise ValueError("sup_inner required when R > 0")
        sup_inner = 0.0
    r_star, sigma0, C = poincare_constant(L, rho, R, sigma, d, alpha_ext, sup_inner)
    t0 = hypercontractivity_t0(sigma, rho, 2.0, 3.0)
    return ConstantsReport(
        A=A,
        B=B,
        C=C,
        sigma0=sigma0,
        R_star=r_star,
        t0=t0,
        C_LS=lsi_constant(A, B, C),
        sup_inner=sup_inner,
        sigma_ok=sigma >= sigma0,
        L=L,
        rho=rho,
        R=R,
        sigma=sigma,
        d=d,
        alpha_ext=alpha_ext,
    )
