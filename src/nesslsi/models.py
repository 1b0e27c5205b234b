"""SDE model definitions: drift fields, structural parameters, named scenarios.

Two families of diffusions are covered:

* elliptic:  dZ = b(Z) dt + sigma dB on R^d, with a drift split b = b0 + b1
  around a reference generator whose invariant density mu_0 is known,
* kinetic:   dX = V dt, dV = (-grad U(X) + G(X,V) - gamma V) dt + sqrt(2 gamma) dB
  on R^d x R^d, with the force decomposed as -grad U(x) + G(x,-v) = -Kx + g(x,v).

Structural parameters (contraction rate rho, inner bound L, radius R for the
elliptic case; K, L1, L2, R, gamma for the kinetic case) are declared by the
caller and can be probed numerically, never inferred: global verification is
impossible for black-box drifts.

All drift callables are vectorized: they map arrays of shape (..., d) to
arrays of the same shape.  Models are immutable after construction and all
operations here are pure, so instances can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Drift",
    "EllipticModel",
    "DerivedEllipticFields",
    "KineticModel",
    "CompetitionKernel",
    "OneSidedReport",
    "derive_elliptic_fields",
    "make_competition_drift",
    "normalize_kinetic",
    "probe_one_sided_condition",
    "make_scenario",
    "SCENARIOS",
]

Drift = Callable[[np.ndarray], np.ndarray]

_CHECK_TOL = 1e-10


def _check_points(d: int, seed: int = 1234, n: int = 64, scale: float = 2.0) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, d], dtype=np.uint64)))
    return scale * gen.standard_normal((n, d))


@dataclass(frozen=True)
class EllipticModel:
    """Elliptic diffusion dZ = b(Z) dt + sigma dB with declared structure.

    ``rho``, ``lip`` and ``radius`` encode the one-sided condition
    (b(x)-b(y)).(x-y) <= -rho |x-y|^2 outside radius and <= lip |x-y|^2
    inside (for whichever drift field the caller declares them; see
    :func:`probe_one_sided_condition`).  ``grad_log_ref`` is grad log mu_0
    for the reference invariant density of the b0 part, needed to derive
    the dual drift and the perturbation potential.
    """

    d: int
    drift: Drift
    sigma: float
    rho: float
    lip: float = 0.0
    radius: float = 0.0
    b0: Drift | None = None
    b1: Drift | None = None
    grad_log_ref: Drift | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if self.b0 is not None and self.b1 is not None:
            x = _check_points(self.d)
            gap = np.max(np.abs(self.drift(x) - self.b0(x) - self.b1(x)))
            if gap > _CHECK_TOL:
                raise ValueError(f"b != b0 + b1 on sampled points (max gap {gap:.3e})")


@dataclass(frozen=True)
class DerivedEllipticFields:
    """Dual drift b_tilde = 2 grad log mu_0 - b and potential
    phi = -div b1 + b1 . grad log mu_0."""

    b_tilde: Drift
    phi: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class KineticModel:
    """Kinetic Langevin diffusion on R^d x R^d.

    dX = V dt,  dV = (-grad U(X) + G(X,V) - gamma V) dt + sqrt(2 gamma) dB.

    ``k_matrix`` (symmetric positive-definite) and ``residual`` g realize the
    decomposition -grad U(x) + G(x,-v) = -K x + g(x,v); when ``residual`` is
    omitted it is derived from that identity.  ``lip_inner``/``lip_outer``
    (L1 >= L2) bound g inside/outside the ``radius`` ball in |dx| + |dv|.
    """

    d: int
    gamma: float
    grad_potential: Drift
    k_matrix: np.ndarray
    forcing: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    radius: float = 0.0
    lip_inner: float = 0.0
    lip_outer: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        K = np.asarray(self.k_matrix, dtype=float)
        if K.shape != (self.d, self.d):
            raise ValueError(f"k_matrix must be ({self.d},{self.d})")
        if not np.allclose(K, K.T, atol=1e-12):
            raise ValueError("k_matrix must be symmetric")
        if self.k_min <= 0:
            raise ValueError("k_matrix must be positive-definite")
        if self.lip_outer > self.lip_inner:
            raise ValueError("lip_outer (L2) must not exceed lip_inner (L1)")
        object.__setattr__(self, "k_matrix", K)
        if self.residual is not None:
            x = _check_points(self.d, seed=77)
            v = _check_points(self.d, seed=78)
            lhs = -self.grad_potential(x) + self.force_g(x, -v)
            rhs = -x @ K.T + self.residual(x, v)
            gap = np.max(np.abs(lhs - rhs))
            if gap > _CHECK_TOL:
                raise ValueError(
                    f"-grad U(x) + G(x,-v) != -Kx + g(x,v) on sampled points (max gap {gap:.3e})"
                )

    @property
    def k_min(self) -> float:
        return float(np.linalg.eigvalsh(np.asarray(self.k_matrix, dtype=float)).min())

    @property
    def admissible(self) -> bool:
        """19 max(1, gamma) L2 <= min(1, k)."""
        return 19.0 * max(1.0, self.gamma) * self.lip_outer <= min(1.0, self.k_min)

    def force_g(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.forcing is None:
            return np.zeros_like(v)
        return self.forcing(x, v)

    def residual_g(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """g(x,v) = -grad U(x) + G(x,-v) + Kx."""
        if self.residual is not None:
            return self.residual(x, v)
        return -self.grad_potential(x) + self.force_g(x, -v) + x @ np.asarray(self.k_matrix).T

    def kinetic_drift(self, z: np.ndarray) -> np.ndarray:
        """Full phase-space drift (v, -grad U + G - gamma v) of the physical SDE."""
        x, v = z[..., : self.d], z[..., self.d :]
        acc = -self.grad_potential(x) + self.force_g(x, v) - self.gamma * v
        return np.concatenate([v, acc], axis=-1)

    def control_drift(self, z: np.ndarray) -> np.ndarray:
        """Velocity-flipped drift (v, -gamma v - Kx + g(x,v)) used by the
        stochastic-control representation and the coupled-pair simulator.

        The result has z's memory order, so that on a Fortran-ordered batch
        every pass runs along the paths.  Its bits are those of
        ``concatenate([v, -gamma * v - x @ K.T + g])``.
        """
        x, v = z[..., : self.d], z[..., self.d :]
        out = np.empty_like(z, dtype=float)
        out[..., : self.d] = v
        acc = out[..., self.d :]
        np.multiply(v, -self.gamma, out=acc)
        # x @ K.T is C-ordered whatever z's order; through the transposes
        # numpy's inner loop runs along the paths on a Fortran-ordered z
        np.subtract(acc.T, (x @ self.k_matrix.T).T, out=acc.T)
        acc += self.residual_g(x, v)
        return out


@dataclass(frozen=True)
class CompetitionKernel:
    """Two-population competition kernel K(x1, x2) on R^p x R^p with its two
    partial gradients.  The first population climbs K averaged over the
    second population's distribution, the second population descends it."""

    p: int
    k_func: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x2: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def __post_init__(self):
        x1 = _check_points(self.p, seed=31, n=16)
        x2 = _check_points(self.p, seed=32, n=16)
        h = 1e-6
        for which, grad in (("grad_x1", self.grad_x1), ("grad_x2", self.grad_x2)):
            num = np.empty((16, self.p))
            for i in range(self.p):
                dx = np.zeros(self.p)
                dx[i] = h
                if which == "grad_x1":
                    num[:, i] = (self.k_func(x1 + dx, x2) - self.k_func(x1 - dx, x2)) / (2 * h)
                else:
                    num[:, i] = (self.k_func(x1, x2 + dx) - self.k_func(x1, x2 - dx)) / (2 * h)
            gap = np.max(np.abs(grad(x1, x2) - num))
            if gap > 1e-6 * (1.0 + np.max(np.abs(num))):
                raise ValueError(f"{which} disagrees with central differences (max gap {gap:.3e})")


@dataclass(frozen=True)
class OneSidedReport:
    """Sampled bounds on (b(x)-b(y)).(x-y)/|x-y|^2 split at |x-y| = R."""

    max_ratio_outside: float
    max_ratio_inside: float
    n_outside: int
    n_inside: int
    declared_rho: float
    declared_lip: float
    radius: float

    @property
    def outside_violated(self) -> bool:
        return self.n_outside > 0 and self.max_ratio_outside > -self.declared_rho + 1e-12

    @property
    def inside_violated(self) -> bool:
        return self.n_inside > 0 and self.max_ratio_inside > self.declared_lip + 1e-12

    @property
    def violated(self) -> bool:
        return self.outside_violated or self.inside_violated


def _central_divergence(field: Drift, y: np.ndarray) -> np.ndarray:
    """div field at y, (..., d) -> (...), by central differences of step
    h = 1e-5 (accuracy O(h^2))."""
    y = np.asarray(y, dtype=float)
    d, h = y.shape[-1], 1e-5
    out = np.zeros(y.shape[:-1])
    for i in range(d):
        dy = np.zeros(d)
        dy[i] = h
        out += (field(y + dy)[..., i] - field(y - dy)[..., i]) / (2.0 * h)
    return out


def derive_elliptic_fields(model: EllipticModel) -> DerivedEllipticFields:
    """Build the dual drift b_tilde = 2 grad log mu_0 - b and the potential
    phi = -div b1 + b1 . grad log mu_0, with div b1 by central differences
    (see ``_central_divergence``)."""
    if model.grad_log_ref is None:
        raise ValueError("model.grad_log_ref (grad log mu_0) is required")
    grad_log_ref = model.grad_log_ref
    drift = model.drift
    b1 = model.b1

    def b_tilde(x: np.ndarray) -> np.ndarray:
        return 2.0 * grad_log_ref(x) - drift(x)

    if b1 is None:
        def phi(x: np.ndarray) -> np.ndarray:
            return np.zeros(np.asarray(x).shape[:-1])
        return DerivedEllipticFields(b_tilde=b_tilde, phi=phi)

    def phi(x: np.ndarray) -> np.ndarray:
        return -_central_divergence(b1, x) + np.sum(b1(x) * grad_log_ref(x), axis=-1)

    return DerivedEllipticFields(b_tilde=b_tilde, phi=phi)


def make_competition_drift(kernel: CompetitionKernel, particles: np.ndarray) -> Drift:
    """Empirical-measure interaction drift for the competition model.

    Given particles (N, 2p) representing the joint population, returns
    b(x) whose first block is the particle average of grad_x1 K(x1, y2)
    and second block the negated average of grad_x2 K(y1, x2).
    """
    particles = np.asarray(particles, dtype=float)
    if particles.ndim != 2 or particles.shape[0] == 0:
        raise ValueError("particles must be a nonempty (N, 2p) array")
    p = kernel.p
    if particles.shape[1] != 2 * p:
        raise ValueError(f"particles must have dimension 2p = {2 * p}")
    y1 = particles[:, :p].copy()
    y2 = particles[:, p:].copy()

    def b_emp(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., :p], x[..., p:]
        # broadcast states against the frozen particle cloud
        g1 = kernel.grad_x1(x1[..., None, :], y2[None, :, :]).mean(axis=-2)
        g2 = kernel.grad_x2(y1[None, :, :], x2[..., None, :]).mean(axis=-2)
        return np.concatenate([g1, -g2], axis=-1)

    return b_emp


def normalize_kinetic(model: KineticModel) -> KineticModel:
    """Rescale a kinetic model to unit friction; at gamma = 1 the model
    itself is returned.

    New time gamma*t, new position gamma*x, velocity unchanged; the rescaled
    system has friction 1 and noise sqrt(2), with K -> K/gamma^2 and
    g -> g(x/gamma, v)/gamma, and its Euler-Maruyama paths map back onto the
    original model's paths under matched Brownian rescaling.  Structural
    constants transform conservatively: R -> max(1, gamma) R,
    L_i -> L_i max(1, 1/gamma)/gamma.
    """
    gamma = model.gamma
    if gamma == 1.0:
        return model

    grad_u, forcing, residual = model.grad_potential, model.forcing, model.residual
    lip_scale = max(1.0, 1.0 / gamma) / gamma

    def grad_u_hat(x: np.ndarray) -> np.ndarray:
        return grad_u(x / gamma) / gamma

    forcing_hat = None
    if forcing is not None:
        def forcing_hat(x: np.ndarray, v: np.ndarray) -> np.ndarray:
            return forcing(x / gamma, v) / gamma

    residual_hat = None
    if residual is not None:
        def residual_hat(x: np.ndarray, v: np.ndarray) -> np.ndarray:
            return residual(x / gamma, v) / gamma

    return KineticModel(
        d=model.d,
        gamma=1.0,
        grad_potential=grad_u_hat,
        k_matrix=np.asarray(model.k_matrix) / gamma**2,
        forcing=forcing_hat,
        residual=residual_hat,
        radius=max(1.0, gamma) * model.radius,
        lip_inner=model.lip_inner * lip_scale,
        lip_outer=model.lip_outer * lip_scale,
    )


def probe_one_sided_condition(
    model: EllipticModel,
    n_pairs: int,
    seed: int = 0,
    sampler: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> OneSidedReport:
    """Sample pairs (x, y) and report the worst one-sided ratios
    (b(x)-b(y)).(x-y)/|x-y|^2 of the model's drift b, split at separation
    |x-y| = R.

    Without a ``sampler`` both points are N(0, 9 I).  Reporting only; the
    violation flags compare to the model's declared (rho, lip).
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    b = model.drift
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0x9E3779B9], dtype=np.uint64)))
    if sampler is not None:
        x, y = sampler(gen, n_pairs)
    else:
        x = 3.0 * gen.standard_normal((n_pairs, model.d))
        y = 3.0 * gen.standard_normal((n_pairs, model.d))
    diff = x - y
    dist2 = np.sum(diff * diff, axis=-1)
    ok = dist2 > 0
    ratio = np.sum((b(x) - b(y)) * diff, axis=-1)[ok] / dist2[ok]
    outside = np.sqrt(dist2[ok]) >= model.radius
    max_out = float(ratio[outside].max()) if outside.any() else -math.inf
    max_in = float(ratio[~outside].max()) if (~outside).any() else -math.inf
    return OneSidedReport(
        max_ratio_outside=max_out,
        max_ratio_inside=max_in,
        n_outside=int(outside.sum()),
        n_inside=int((~outside).sum()),
        declared_rho=model.rho,
        declared_lip=model.lip,
        radius=model.radius,
    )


# ---------------------------------------------------------------------------
# named scenarios
# ---------------------------------------------------------------------------


def _perp(x: np.ndarray) -> np.ndarray:
    """(u, v) -> (v, -u)."""
    return np.stack([x[..., 1], -x[..., 0]], axis=-1)


# The bump and its derivative evaluate their formula on every entry and then
# select the support, which is cheaper than gathering the inside entries and
# scattering them back.  Outside the support the formula divides by zero,
# overflows or meets inf - inf, and those entries are discarded; near the edge
# of the support exp underflows to the right value, 0.  Hence no warnings.
def _bump(x: np.ndarray) -> np.ndarray:
    """C-infinity bump supported on [-1, 1], normalized to 1 at 0."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        v = np.exp(1.0 - 1.0 / (1.0 - x * x))
        return np.where(np.abs(x) < 1.0, v, 0.0)


def _bump_prime(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        v = np.exp(1.0 - 1.0 / (1.0 - x * x)) * (-2.0 * x / (1.0 - x * x) ** 2)
        return np.where(np.abs(x) < 1.0, v, 0.0)


def _scenario_ou(
    *, d: int = 1, rate: float = 1.0, sigma: float = math.sqrt(2.0),
    declared_rho: float | None = None,
) -> EllipticModel:
    if rate <= 0:
        raise ValueError("ou scenario needs rate > 0")
    drift = lambda x: -rate * x
    # invariant density N(0, sigma^2/(2 rate) I)
    glr = lambda x: -(2.0 * rate / sigma**2) * x
    return EllipticModel(
        d=d, drift=drift, sigma=sigma,
        rho=rate if declared_rho is None else declared_rho,  # may deliberately misdeclare
        lip=0.0, radius=0.0,
        b0=drift, b1=lambda x: np.zeros_like(x), grad_log_ref=glr,
    )


def _scenario_rotating(
    *, f_const: float = 1.0, v_amp: float = 0.0, v_width: float = 1.0,
) -> EllipticModel:
    """Planar rotating drift b(x) = f(|x|) x_perp - x - grad V(x), noise sqrt(2).

    V is a radial compactly-supported bump v_amp * bump(|x|/v_width); the
    split is b0 = f x_perp - x (standard Gaussian reference), b1 = -grad V.
    """

    def grad_v(x: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        safe = np.maximum(r, 1e-12)
        return v_amp / v_width * _bump_prime(r / v_width) * x / safe

    def b0(x: np.ndarray) -> np.ndarray:
        return f_const * _perp(x) - x

    def b1(x: np.ndarray) -> np.ndarray:
        return -grad_v(x)

    def drift(x: np.ndarray) -> np.ndarray:
        return b0(x) + b1(x)

    # sup |Hess V| <= (|v_amp|/v_width^2) * sup |bump''| ~ 21.1 |v_amp|/v_width^2
    lip_v = 22.0 * abs(v_amp) / v_width**2
    return EllipticModel(
        d=2, drift=drift, sigma=math.sqrt(2.0), rho=max(1.0 - lip_v, 0.05),
        lip=lip_v, radius=2.0 * v_width, b0=b0, b1=b1, grad_log_ref=lambda x: -x,
    )


def _scenario_double_well(*, d: int = 1, sigma: float = math.sqrt(2.0)) -> EllipticModel:
    drift = lambda x: x - x**3
    # contraction outside |x-y| >= R = 3: (b(x)-b(y)).(x-y) <= (1 - r^2/4)|x-y|^2
    return EllipticModel(d=d, drift=drift, sigma=sigma, rho=1.0, lip=1.0, radius=3.0)


def _scenario_kinetic_quadratic(
    *, d: int = 2, gamma: float = 1.0, radius: float = 1.0,
) -> KineticModel:
    return KineticModel(
        d=d, gamma=gamma,
        grad_potential=lambda x: x,
        k_matrix=np.eye(d),
        forcing=None,
        residual=lambda x, v: np.zeros_like(x),
        radius=radius, lip_inner=0.0, lip_outer=0.0,
    )


def arctan_kernel(p: int = 1) -> CompetitionKernel:
    """K(x1, x2) = sum_i arctan(x1_i - x2_i): bounded gradient with the
    1/(1+|x1-x2|^2) decay required by the interaction-growth condition."""

    def k_func(x1, x2):
        return np.sum(np.arctan(x1 - x2), axis=-1)

    def grad_x1(x1, x2):
        return 1.0 / (1.0 + (x1 - x2) ** 2)

    def grad_x2(x1, x2):
        return -1.0 / (1.0 + (x1 - x2) ** 2)

    return CompetitionKernel(p=p, k_func=k_func, grad_x1=grad_x1, grad_x2=grad_x2)


def _scenario_competition(*, p: int = 1, lam: float = 0.05) -> dict:
    """McKean-Vlasov competition scenario: returns the pieces consumed by the
    particle fixed-point estimator (kernel, confining gradient, coupling)."""
    return {
        "kernel": arctan_kernel(p),
        "grad_v": lambda x: x,
        "lam": lam,
    }


# Each builder's keyword-only parameters are the keys its ``model`` block accepts.
SCENARIOS: dict[str, Callable[..., object]] = {
    "ou": _scenario_ou,
    "rotating": _scenario_rotating,
    "double-well": _scenario_double_well,
    "kinetic-quadratic": _scenario_kinetic_quadratic,
    "competition": _scenario_competition,
}


def make_scenario(name: str, params: dict | None = None):
    """Instantiate a registered scenario by name with a parameter dict; a key
    that is not a parameter of the scenario's builder raises TypeError."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    return SCENARIOS[name](**(params or {}))
