"""Independent oracles for the test suite.

Everything here is deliberately computed through routes disjoint from the
package code: closed forms, dense-grid quadrature, a Crank-Nicolson PDE
solver, plain-loop scalar SDE simulation with numpy's default bit
generator, and classical ODE integration.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.stats import norm


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck closed forms (dX = -rate X dt + sigma dB)
# ---------------------------------------------------------------------------


def ou_transition(x0: float, t: float, rate: float = 1.0, sigma: float = math.sqrt(2.0)):
    """Mean and variance of X_t | X_0 = x0."""
    mean = x0 * math.exp(-rate * t)
    var = sigma**2 * (1.0 - math.exp(-2.0 * rate * t)) / (2.0 * rate)
    return mean, var


def gaussian_exp_moment(c: float, mean: float, var: float) -> float:
    """E exp(c X) for X ~ N(mean, var)."""
    return math.exp(c * mean + 0.5 * c * c * var)


def clipped_exp_expectation(mean: float, var: float, cap: float) -> float:
    """E min(exp(X), exp(cap)) for X ~ N(mean, var)."""
    s = math.sqrt(var)
    return gaussian_exp_moment(1.0, mean, var) * norm.cdf(
        (cap - mean - var) / s
    ) + math.exp(cap) * norm.sf((cap - mean) / s)


def ou_euler_moment(c: float, x0: float, dt: float, n: int, rate: float = 1.0,
                    sigma: float = math.sqrt(2.0)) -> float:
    """E exp(c X_n) for the Euler chain X_{k+1} = a X_k + sigma sqrt(dt) xi_k
    of the OU process, a = 1 - rate dt, started at x0: X_n is normal with
    mean a^n x0 and variance sigma^2 dt (1 - a^(2n)) / (1 - a^2)."""
    a = 1.0 - rate * dt
    var = sigma**2 * dt * (1.0 - a ** (2 * n)) / (1.0 - a * a)
    return gaussian_exp_moment(c, a**n * x0, var)


def ou_hyper_ratio(c: float, alpha: float, beta: float, t: float) -> float:
    """|P_t f|_beta / |f|_alpha for f = exp(c x) under the standard OU
    semigroup (rate 1, noise sqrt(2), stationary N(0,1))."""
    decay = math.exp(-t)
    # P_t f(x) = exp(c x e^{-t} + c^2 (1 - e^{-2t})/2)
    base = math.exp(0.5 * c * c * (1.0 - decay * decay))
    num = base * gaussian_exp_moment(beta * c * decay, 0.0, 1.0) ** (1.0 / beta)
    den = gaussian_exp_moment(alpha * c, 0.0, 1.0) ** (1.0 / alpha)
    return num / den


# ---------------------------------------------------------------------------
# scalar radial SDE: dr = drift(r) dt + noise dW absorbed at r <= 0
# ---------------------------------------------------------------------------


def scalar_radial_sde(
    r0: float,
    record_times: np.ndarray,
    dt: float,
    n_paths: int,
    seed: int,
    drift=lambda r: -r,
    noise: float = 2.0 * math.sqrt(2.0),
):
    """Plain-loop EM simulation of the radial comparison SDE.

    Returns (survival fraction, mean of the alive radius contribution) at
    each requested time; absorbed paths contribute 0 to the mean.
    """
    record_times = np.asarray(record_times, dtype=float)
    gen = np.random.default_rng(seed)
    r = np.full(n_paths, float(r0))
    alive = np.ones(n_paths, dtype=bool)
    survival = np.empty(record_times.size)
    mean_r = np.empty(record_times.size)
    n_steps = int(round(record_times[-1] / dt))
    targets = np.rint(record_times / dt).astype(int)
    pos = 0
    while pos < targets.size and targets[pos] == 0:
        survival[pos] = alive.mean()
        mean_r[pos] = np.where(alive, r, 0.0).mean()
        pos += 1
    for step in range(1, n_steps + 1):
        xi = gen.standard_normal(n_paths)
        r = np.where(alive, r + drift(r) * dt + noise * math.sqrt(dt) * xi, 0.0)
        crossed = alive & (r <= 0.0)
        alive &= ~crossed
        r[~alive] = 0.0
        while pos < targets.size and step == targets[pos]:
            survival[pos] = alive.mean()
            mean_r[pos] = r.mean()
            pos += 1
    return survival, mean_r


# ---------------------------------------------------------------------------
# Crank-Nicolson solver for  d_t h = h_xx + b(x) h_x + phi(x) h
# ---------------------------------------------------------------------------


def crank_nicolson_h(b, phi, x_lo: float, x_hi: float, nx: int, T: float, nt: int):
    """Dense-grid solution of the linear parabolic equation with h(0, x) = 1.

    Central differences in space, homogeneous Neumann boundaries (the domain
    should comfortably contain the drift's attractor), trapezoidal in time.
    Returns (grid, h(T, grid)).
    """
    import scipy.linalg as sla

    xs = np.linspace(x_lo, x_hi, nx)
    dx = xs[1] - xs[0]
    dt = T / nt
    bv = b(xs)
    pv = phi(xs)
    main = np.full(nx, -2.0 / dx**2) + pv
    upper = np.zeros(nx)
    lower = np.zeros(nx)
    upper[1:] = 1.0 / dx**2 + bv[:-1] / (2.0 * dx)    # A[i, i+1] stored at upper[i+1]
    lower[:-1] = 1.0 / dx**2 - bv[1:] / (2.0 * dx)    # A[i, i-1] stored at lower[i-1]
    # Neumann: ghost nodes mirror the interior
    upper[1] += 1.0 / dx**2 - bv[0] / (2.0 * dx)
    lower[-2] += 1.0 / dx**2 + bv[-1] / (2.0 * dx)

    lhs = np.vstack([-0.5 * dt * upper, 1.0 - 0.5 * dt * main, -0.5 * dt * lower])

    def apply_a(h):
        out = main * h
        out[:-1] += upper[1:] * h[1:]
        out[1:] += lower[:-1] * h[:-1]
        return out

    h = np.ones(nx)
    for _ in range(nt):
        rhs_vec = h + 0.5 * dt * apply_a(h)
        h = sla.solve_banded((1, 1), lhs, rhs_vec)
    return xs, h


# ---------------------------------------------------------------------------
# misc oracles
# ---------------------------------------------------------------------------


def rk4_ode(f, x0: np.ndarray, T: float, n_steps: int) -> np.ndarray:
    """Classical RK4 for dx/dt = f(x)."""
    x = np.asarray(x0, dtype=float).copy()
    h = T / n_steps
    for _ in range(n_steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def gauss_quad(f, a: float, b: float, **kw) -> float:
    val, _ = integrate.quad(f, a, b, **kw)
    return val


def gaussian_expectation(f, mean: float = 0.0, std: float = 1.0) -> float:
    """E f(X) for X ~ N(mean, std^2) by adaptive quadrature."""
    return gauss_quad(
        lambda x: f(x) * math.exp(-0.5 * ((x - mean) / std) ** 2)
        / (std * math.sqrt(2.0 * math.pi)),
        mean - 12.0 * std,
        mean + 12.0 * std,
        limit=200,
    )


def metric_scalars_reference(theta: float, radius: float, kappa2: float, lam: float):
    """Re-derive (kappa1, eps, f, g, Phi) by scipy adaptive quadrature,
    independent of the package's cell-wise Simpson tables."""
    from scipy.special import erf

    r0 = (theta + 1.0) * radius
    phi = lambda u: math.exp(-theta * u * u / 8.0)
    Phi = lambda u: math.sqrt(2.0 * math.pi / theta) * erf(math.sqrt(theta / 8.0) * u)
    i1 = gauss_quad(lambda u: Phi(u) / phi(u), 0.0, r0, epsabs=1e-13)
    kappa1 = 0.5 / i1
    i2 = gauss_quad(
        lambda u: ((1.0 + kappa1 / 2.0) * theta * u * u + 4.0) / phi(u), 0.0, r0,
        epsabs=1e-12,
    )
    eps = min(0.5 / i2, 4.0 / (9.0 * radius))

    def g(r: float) -> float:
        a = gauss_quad(lambda u: Phi(u) / phi(u), 0.0, r, epsabs=1e-12)
        bb = gauss_quad(
            lambda u: ((1.0 + kappa1 / 2.0) * theta * u * u + 4.0) / phi(u), 0.0, r,
            epsabs=1e-12,
        )
        return 1.0 - 0.5 * kappa1 * a - 0.5 * eps * bb

    def f(r: float) -> float:
        return gauss_quad(lambda u: phi(u) * g(u), 0.0, min(r, r0), epsabs=1e-10)

    return {"kappa1": kappa1, "eps": eps, "g": g, "f": f, "Phi": Phi, "r0": r0}
