"""Coupling metric for kinetic diffusions: constants, tabulated functions,
and the semimetric rho_*.

For a unit-friction kinetic model with linear part K (smallest eigenvalue k,
operator norm |K|) and residual Lipschitz constants L1 >= L2, the metric is

    rho(z, z') = eps * G(z, z') + f(theta |dx| + |dq|),      q = x + v,

where G is the quadratic Lyapunov form

    G = (1/2) dx^T K dx + (1/2)|dv|^2 + eta dx.dv,

f is a concave nondecreasing function built from Gaussian-weight quadratures,
and all scalar constants (theta, eta, lambda, kappa_2, kappa_1, eps, kappa,
C1, C2) are explicit.  Coupled kinetic diffusions contract rho at rate kappa
in expectation, and |z - z'| <= C1 rho(z, z') converts this into plain
Wasserstein-distance decay.

The construction is parameterized by a smoothing index n (thresholds live at
r0 + 1/n); n = inf gives the limiting objects.  All quadratures are adaptive
Simpson with absolute tolerance ``quad_tol``; tabulated functions use
monotone cubic (PCHIP) interpolation between grid nodes, computed in this
module with numpy alone (``_Pchip``, bit-identical to scipy's
``PchipInterpolator``).

Degenerate case R = 0: eps and C1 involve 1/R and are singular, so the
module returns rho = G, kappa = kappa_2, C1 = sqrt(2)/lambda instead
(synchronous coupling contracts G globally when L1 = L2).  Note that for
R = 0 the pointwise bound |z - z'| <= C1 rho only holds for |z - z'| >=
1/sqrt(2) since rho is then purely quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import _Record

__all__ = [
    "MetricParams",
    "MetricTable",
    "QuadratureError",
    "metric_constants",
    "build_metric",
    "rho_star",
    "g_quadratic",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class MetricParams(_Record):
    """Closed-form constants of the coupling metric."""

    theta: float
    eta: float
    lam: float
    r0: float
    kappa2: float
    k_min: float
    k_norm: float
    lip_inner: float
    lip_outer: float
    radius: float
    k_matrix: np.ndarray


def metric_constants(
    k_matrix: np.ndarray, lip_inner: float, lip_outer: float, radius: float
) -> MetricParams:
    """Closed-form metric constants from (K, L1, L2, R).

    theta = 2 max(|K| + L1, 1),  eta = min(1,k)/2,  lambda = min(1,k)/4,
    r0 = (theta + 1) R, and

    kappa_2 = (min(1,k) - 19 L2) k / (8 max(1 - L2, k - L2) max(1, |K|)).

    Requires L2 < min(1, k)/19 strictly (kappa_2 > 0), K symmetric
    positive-definite and L2 <= L1.
    """
    K = np.asarray(k_matrix, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be a square matrix")
    if not np.allclose(K, K.T, atol=1e-12):
        raise ValueError("K must be symmetric")
    eigs = np.linalg.eigvalsh(K)
    k, k_norm = float(eigs.min()), float(eigs.max())
    if k <= 0:
        raise ValueError("K must be positive-definite")
    if lip_outer > lip_inner:
        raise ValueError("L2 must not exceed L1")
    if lip_outer < 0 or radius < 0:
        raise ValueError("L2 and R must be nonnegative")
    if not 19.0 * lip_outer < min(1.0, k):
        raise ValueError("inadmissible residual: need L2 < min(1, k)/19 strictly")

    theta = 2.0 * max(k_norm + lip_inner, 1.0)
    kappa2 = ((min(1.0, k) - 19.0 * lip_outer) * k) / (
        8.0 * max(1.0 - lip_outer, k - lip_outer) * max(1.0, k_norm)
    )
    return MetricParams(
        theta=theta,
        eta=0.5 * min(1.0, k),
        lam=0.25 * min(1.0, k),
        r0=(theta + 1.0) * radius,
        kappa2=kappa2,
        k_min=k,
        k_norm=k_norm,
        lip_inner=lip_inner,
        lip_outer=lip_outer,
        radius=radius,
        k_matrix=K,
    )


# Cap on unresolved subintervals per cell, and on refinement levels, in
# _cellwise_simpson.
_LIVE_PER_CELL = 64
_MAX_DEPTH = 30


def _cellwise_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Adaptive Simpson integral of f over each cell [edges[i], edges[i+1]],
    vectorized across cells.  Total absolute error is below tol.

    Raises :class:`QuadratureError` when more than ``_LIVE_PER_CELL`` times
    the number of cells are left unresolved, as happens when rounding in f
    alone exceeds the per-cell tolerance, rather than doubling them at every
    level left, or when subintervals are left after ``_MAX_DEPTH`` levels."""
    a = edges[:-1].astype(float)
    b = edges[1:].astype(float)
    n_cells = a.size
    max_live = _LIVE_PER_CELL * max(n_cells, 1)
    out = np.zeros(n_cells)
    idx = np.arange(n_cells)
    tol_arr = np.full(n_cells, tol / max(n_cells, 1))
    for level in range(_MAX_DEPTH + 1):
        if a.size == 0:
            return out
        if a.size > max_live or level == _MAX_DEPTH:
            raise QuadratureError(
                f"{a.size} subintervals left after {level} refinement levels (at most "
                f"{max_live} and {_MAX_DEPTH} allowed); is the tolerance below f's rounding?")
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        fa, fm, fb = f(a), f(m), f(b)
        flm, frm = f(lm), f(rm)
        h = b - a
        s1 = h / 6.0 * (fa + 4.0 * fm + fb)
        s2 = h / 12.0 * (fa + 4.0 * flm + 2.0 * fm + 4.0 * frm + fb)
        err = np.abs(s2 - s1) / 15.0
        ok = err <= tol_arr
        np.add.at(out, idx[ok], s2[ok] + (s2[ok] - s1[ok]) / 15.0)
        bad = ~ok
        a = np.concatenate([a[bad], m[bad]])
        b = np.concatenate([m[bad], b[bad]])
        idx = np.concatenate([idx[bad], idx[bad]])
        tol_arr = np.concatenate([tol_arr[bad] / 2.0, tol_arr[bad] / 2.0])


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, shape-preserving (Moler, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise cubic Hermite interpolant (Fritsch-Butland slopes),
    extrapolating the end cubics.  Gives the same bits as
    ``scipy.interpolate.PchipInterpolator`` on the same data: the slopes,
    the coefficients and the evaluation order all follow scipy's."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise ValueError("x and y must be 1-d of equal length >= 2")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("x and y must be finite")
        h = x[1:] - x[:-1]
        if np.any(h <= 0):
            raise ValueError("x must be strictly increasing")
        m = (y[1:] - y[:-1]) / h
        if x.size == 2:
            dk = np.array([m[0], m[0]])
        else:
            # weighted harmonic mean of the adjacent slopes, 0 at flat
            # segments and where the slope changes sign
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                inner = np.where(flat, 0.0, 1.0 / whmean)
            dk = np.concatenate([[_edge_slope(h[0], h[1], m[0], m[1])], inner,
                                 [_edge_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (dk[:-1] + dk[1:] - 2 * m) / h
        self.x = x
        self.c = (t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        s = r - self.x[i]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * ((s * s) * s)


@dataclass(frozen=True)
class MetricTable:
    """Tabulated metric functions Phi, g, f on [0, r0 + 1/n] plus scalars.

    ``f`` and ``g`` evaluate anywhere via monotone cubic interpolation
    (constant extension beyond the table).  Immutable and thread-shareable.
    """

    grid: np.ndarray
    phi_primitive: np.ndarray
    g_vals: np.ndarray
    f_vals: np.ndarray
    kappa1: float
    eps: float
    kappa: float
    c1: float
    c2: float
    quad_tol: float
    params: MetricParams

    def __post_init__(self):
        if self.grid.size >= 2:
            object.__setattr__(self, "_f_interp", _Pchip(self.grid, self.f_vals))
            object.__setattr__(self, "_g_interp", _Pchip(self.grid, self.g_vals))
        else:
            object.__setattr__(self, "_f_interp", None)
            object.__setattr__(self, "_g_interp", None)

    @property
    def r_up(self) -> float:
        return float(self.grid[-1]) if self.grid.size else 0.0

    def f(self, r: np.ndarray) -> np.ndarray:
        """Concave distance profile f(r), constant for r beyond the table."""
        if self._f_interp is None:
            return np.zeros_like(np.asarray(r, dtype=float))
        return self._f_interp(np.clip(r, 0.0, self.r_up))

    def g(self, r: np.ndarray) -> np.ndarray:
        if self._g_interp is None:
            return np.ones_like(np.asarray(r, dtype=float))
        return self._g_interp(np.clip(r, 0.0, self.r_up))


def build_metric(
    params: MetricParams,
    quad_tol: float = 1e-10,
    n_smooth: float = math.inf,
) -> MetricTable:
    """Tabulate the metric functions and compute the derived scalars.

    With phi(u) = exp(-theta u^2 / 8) and Phi its primitive, on 4096 evenly
    spaced points of [0, r_up] with r_up = r0 + 1/n:

      kappa_1 = 1 / (2 int_0^{r_up} Phi/phi),
      eps     = min( 1 / (2 int_0^{r_up} [(1 + kappa_1/2) theta u^2 + 4]/phi),
                     4/(9R) ),
      g(r)    = 1 - (kappa_1/2) int_0^r Phi/phi
                  - (eps/2) int_0^r [(1 + kappa_1/2) theta u^2 + 4]/phi,
      f(r)    = int_0^{r and r_up} phi g,
      kappa   = min(kappa_1, lam R^2 eps kappa_2 / (lam R^2 eps + 2 Phi(r_up)),
                    1/(4 + 6 eps R)),
      C1      = sqrt(2) max( 2 (theta+1) R / Phi((theta+1) R), 1/(lam eps R) ),
      C2      = theta + sqrt(2).
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    if not (n_smooth == math.inf or (isinstance(n_smooth, (int, float)) and n_smooth > 0)):
        raise ValueError("n_smooth must be a positive number or inf")
    theta, lam, r0, radius = params.theta, params.lam, params.r0, params.radius

    if radius == 0.0:
        # Singular eps/C1; synchronous coupling contracts G directly.
        return MetricTable(
            grid=np.zeros(1),
            phi_primitive=np.zeros(1),
            g_vals=np.ones(1),
            f_vals=np.zeros(1),
            kappa1=math.inf,
            eps=1.0,
            kappa=params.kappa2,
            c1=math.sqrt(2.0) / lam,
            c2=theta + math.sqrt(2.0),
            quad_tol=quad_tol,
            params=params,
        )

    r_up = r0 + (0.0 if math.isinf(n_smooth) else 1.0 / n_smooth)
    grid = np.linspace(0.0, r_up, 4096)

    def phi(u: np.ndarray) -> np.ndarray:
        return np.exp(-theta * u * u / 8.0)

    phi_cells = _cellwise_simpson(phi, grid, quad_tol)
    phi_primitive = np.concatenate([[0.0], np.cumsum(phi_cells)])
    phi_interp = _Pchip(grid, phi_primitive)

    def integrand_a(u: np.ndarray) -> np.ndarray:
        return phi_interp(u) / phi(u)

    a_cells = _cellwise_simpson(integrand_a, grid, quad_tol)
    cum_a = np.concatenate([[0.0], np.cumsum(a_cells)])
    kappa1 = 0.5 / cum_a[-1]

    def integrand_b(u: np.ndarray) -> np.ndarray:
        return ((1.0 + kappa1 / 2.0) * theta * u * u + 4.0) / phi(u)

    b_cells = _cellwise_simpson(integrand_b, grid, quad_tol)
    cum_b = np.concatenate([[0.0], np.cumsum(b_cells)])
    eps = min(0.5 / cum_b[-1], 4.0 / (9.0 * radius))

    g_vals = 1.0 - 0.5 * kappa1 * cum_a - 0.5 * eps * cum_b
    g_interp = _Pchip(grid, g_vals)

    def integrand_f(u: np.ndarray) -> np.ndarray:
        return phi(u) * g_interp(u)

    f_cells = _cellwise_simpson(integrand_f, grid, quad_tol)
    f_vals = np.concatenate([[0.0], np.cumsum(f_cells)])

    phi_at_r0 = float(phi_interp(r0))
    phi_at_up = float(phi_primitive[-1])
    kappa = min(
        kappa1,
        lam * radius**2 * eps * params.kappa2 / (lam * radius**2 * eps + 2.0 * phi_at_up),
        1.0 / (4.0 + 6.0 * eps * radius),
    )
    c1 = math.sqrt(2.0) * max(2.0 * (theta + 1.0) * radius / phi_at_r0, 1.0 / (lam * eps * radius))
    return MetricTable(
        grid=grid,
        phi_primitive=phi_primitive,
        g_vals=g_vals,
        f_vals=f_vals,
        kappa1=kappa1,
        eps=eps,
        kappa=kappa,
        c1=c1,
        c2=theta + math.sqrt(2.0),
        quad_tol=quad_tol,
        params=params,
    )


def g_quadratic(params: MetricParams, dx: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Quadratic Lyapunov form G = (1/2) dx^T K dx + (1/2)|dv|^2 + eta dx.dv.

    Satisfies lam (|dx|^2 + |dv|^2) <= G <= (theta/2)(|dx|^2 + |dv|^2).
    """
    K = np.asarray(params.k_matrix, dtype=float)
    dx = np.asarray(dx, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if dx.shape != dv.shape or dx.shape[-1] != K.shape[0]:
        raise ValueError("dx/dv shapes must match each other and K")
    quad = 0.5 * np.sum((dx @ K.T) * dx, axis=-1)
    return quad + 0.5 * np.sum(dv * dv, axis=-1) + params.eta * np.sum(dx * dv, axis=-1)


def rho_star(table: MetricTable, z: np.ndarray, z_prime: np.ndarray) -> np.ndarray:
    """Semimetric rho(z, z') = eps G(z, z') + f(theta |dx| + |dq|) with
    q = x + v.  Satisfies |z - z'| <= C1 rho(z, z') (for R > 0)."""
    params = table.params
    z = np.asarray(z, dtype=float)
    z_prime = np.asarray(z_prime, dtype=float)
    d = z.shape[-1] // 2
    dx = z[..., :d] - z_prime[..., :d]
    dv = z[..., d:] - z_prime[..., d:]
    dq = dx + dv
    r = params.theta * np.linalg.norm(dx, axis=-1) + np.linalg.norm(dq, axis=-1)
    return table.eps * g_quadratic(params, dx, dv) + table.f(r)
