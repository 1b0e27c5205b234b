"""Monte Carlo estimators verifying the coupling inequalities, plus the
Feynman-Kac and interacting-particle procedures.

Every estimator is deterministic given (seed, configuration): sub-streams
are derived from the config seed by stable tags, ensembles are vectorized
over a per-path counter-based noise scheme, and reductions run in fixed
order.  Ergodic averages of the invariant measure use replicated long
trajectories (burn-in 10/rho, thinning 1/rho) since no explicit
density is available; replica means provide the standard errors.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, asdict, replace
from typing import Callable, Sequence

import numpy as np

from .constants import (
    harnack_factor,
    hypercontractivity_bound,
    lyapunov_bound,
    perturbation_bound_elliptic,
)
from .metric import MetricTable, rho_star
from .models import (
    CompetitionKernel, EllipticModel, KineticModel, _central_divergence, make_competition_drift,
)
from .simulate import (
    CH_AUX,
    CH_MAIN,
    SdeSystem,
    SimConfig,
    _as_batch,
    _em_step,
    _horizon_steps,
    _integrate,
    _record_index,
    derive_seed,
    em_path,
    kinetic_coupled_pair,
    noise_normals,
    reflection_pair,
    synchronous_pair,
)

__all__ = [
    "EstimateResult",
    "RateFit",
    "EstimatorDiverged",
    "UnstableLogError",
    "WeightOverflowError",
    "elliptic_fk_system",
    "kinetic_fk_system",
    "fit_exponential_rate",
    "w1_contraction",
    "coalescence_probability",
    "lyapunov_expectation",
    "harnack_check",
    "feynman_kac_h",
    "u_lipschitz_scan",
    "mollified_split",
    "hypercontractivity_probe",
    "defective_lsi_check",
    "mckv_fixed_point",
    "ergodic_sample",
    "wasserstein2_subsampled",
]


class EstimatorDiverged(RuntimeError):
    """A running Monte Carlo mean became non-finite."""


class UnstableLogError(RuntimeError):
    """Relative error too large to take a stable logarithm."""


class WeightOverflowError(RuntimeError):
    """A Feynman-Kac path weight exponent overflowed."""

    def __init__(self, max_exponent: float):
        super().__init__(f"path weight exponent reached {max_exponent:g}")
        self.max_exponent = max_exponent


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate with Monte Carlo error and an optional attached bound."""

    value: float
    stderr: float
    n_samples: int
    seed: int
    bound: float | None = None

    @property
    def half_width(self) -> float:
        """3-sigma confidence half-width."""
        return 3.0 * self.stderr

    @property
    def passed(self) -> bool | None:
        """Whether value <= bound + 3 sigma; None when no bound is attached."""
        if self.bound is None:
            return None
        return self.value <= self.bound + self.half_width

    def to_json(self) -> dict:
        out = asdict(self)
        out["half_width"] = self.half_width
        out["passed"] = self.passed
        return out


@dataclass(frozen=True)
class RateFit:
    """Log-linear least-squares fit m_t ~ c_hat * exp(-kappa_hat t)."""

    c_hat: float
    kappa_hat: float
    residual: float
    window: tuple[float, float]

    def to_json(self) -> dict:
        return asdict(self)


def fit_exponential_rate(times: Sequence[float], means: Sequence[float]) -> RateFit:
    """Fit ln m_t = ln c - kappa t by least squares on strictly positive means."""
    t = np.asarray(times, dtype=float)
    m = np.asarray(means, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(m <= 0):
        raise ValueError("means must be strictly positive")
    coef = np.polyfit(t, np.log(m), 1)
    kappa_hat, logc = -coef[0], coef[1]
    resid = np.log(m) - (logc - kappa_hat * t)
    return RateFit(
        c_hat=float(np.exp(logc)),
        kappa_hat=float(kappa_hat),
        residual=float(np.sqrt(np.mean(resid**2))),
        window=(float(t[0]), float(t[-1])),
    )


@dataclass(frozen=True)
class W1Report:
    times: np.ndarray
    mean_dist: np.ndarray
    fit: RateFit
    envelope_ok: bool | None = None
    rho0: float | None = None


class _CoupledRuns:
    """The summary of the last completed coupled run: ``last`` is
    ``(key, model, times, mean_separation, merge_time)``; the model is held
    so that its id in the key cannot be reused."""

    lock = threading.Lock()
    last: tuple | None = None


def _coupled_run(kind: str, model, x0, y0, cfg: SimConfig, n_paths: int):
    """``(times, mean_separation, merge_time)`` of a synchronous or
    reflection pair recorded at ``w1_contraction``'s schedule, without
    states.

    ``w1_contraction`` reads the first two, ``coalescence_probability`` the
    third (merge times do not depend on the record schedule), so equal
    requests share one run: the summary of the last completed run is kept,
    keyed by kind, model (by identity), the bytes of x0 and y0, cfg and
    n_paths.  Equal requests made at the same time each run, with the same
    bits; a run that raises is not kept.  The coupling is looked up in this
    module at each call."""
    x0, y0 = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    key = (kind, id(model), x0.shape, x0.tobytes(), y0.shape, y0.tobytes(), cfg, n_paths)
    with _CoupledRuns.lock:
        last = _CoupledRuns.last
    if last is not None and last[0] == key:
        return tuple(a.copy() for a in last[2:])
    pair = synchronous_pair if kind == "synchronous" else reflection_pair
    traj = pair(model, x0, y0, cfg, n_paths, max(cfg.n_steps // 100, 1), keep_states=False)
    out = traj.times, traj.mean_separation, traj.merge_time
    with _CoupledRuns.lock:
        _CoupledRuns.last = (key, model, *out)
    return tuple(a.copy() for a in out)


def w1_contraction(
    kind: str,
    model,
    x0,
    y0,
    cfg: SimConfig,
    n_paths: int,
    table: MetricTable | None = None,
    slack: float = 0.10,
) -> W1Report:
    """Estimate E|Z_t - Z'_t| under a coupling and fit an exponential rate.

    ``kind`` is "synchronous", "reflection" or "kinetic".  For the kinetic
    coupling the empirical means are additionally checked against the
    envelope (1 + slack) * C1 exp(-kappa t) * rho(z0, z0') built from the
    metric table.  A synchronous or reflection run is shared with an equal
    ``coalescence_probability`` call (see ``_coupled_run``).
    """
    if n_paths < 1000:
        raise ValueError("need n_paths >= 1000")
    # the time loop records the mean separation; the states are not kept
    if kind in ("synchronous", "reflection"):
        times, mean_dist, _ = _coupled_run(kind, model, x0, y0, cfg, n_paths)
    elif kind == "kinetic":
        if table is None:
            raise ValueError("kinetic contraction needs the metric table")
        traj = kinetic_coupled_pair(model, table, table.params, x0, y0, cfg, n_paths,
                                    max(cfg.n_steps // 100, 1), keep_states=False)
        times, mean_dist = traj.times, traj.mean_separation
    else:
        raise ValueError(f"unknown coupling kind {kind!r}")
    positive = mean_dist > 0
    if positive.sum() < 3:
        raise EstimatorDiverged("fewer than 3 time points with positive mean separation")
    fit = fit_exponential_rate(times[positive], mean_dist[positive])

    envelope_ok = rho0 = None
    if kind == "kinetic":
        z0b = traj.z[0]
        zp0b = traj.z_prime[0]
        rho0 = float(np.mean(rho_star(table, z0b, zp0b)))
        envelope = table.c1 * np.exp(-table.kappa * times) * rho0
        envelope_ok = bool(np.all(mean_dist <= (1.0 + slack) * envelope))
    return W1Report(
        times=times, mean_dist=mean_dist, fit=fit, envelope_ok=envelope_ok, rho0=rho0,
    )


@dataclass(frozen=True)
class CoalescenceReport:
    times: np.ndarray
    survival: np.ndarray          # P[X_t != Y_t]
    fit: RateFit | None
    envelope_factor: float | None
    envelope_ok: bool | None


def coalescence_probability(
    model: EllipticModel,
    x0,
    y0,
    cfg: SimConfig,
    n_paths: int,
) -> CoalescenceReport:
    """Non-merge fraction P[X_t != Y_t] of the reflection coupling over time.
    The reflection run is shared with an equal ``w1_contraction`` call.

    Also fits c exp(-kappa t)/t to the positive part of the curve and
    reports the factor by which c must be inflated for the fitted shape to
    dominate the data (close to 1 when the shape describes the decay).
    """
    if n_paths < 1000:
        raise ValueError("need n_paths >= 1000")
    # only merge times are read, so the run is the one an equal w1_contraction
    # makes; the survival grid is the one reflection_pair would record at
    # about 200 times
    merge_time = _coupled_run("reflection", model, x0, y0, cfg, n_paths)[2]
    times = _record_index(cfg.n_steps, max(cfg.n_steps // 200, 1)) * cfg.dt
    # the fraction of merge times above t, from the sorted merge times: the
    # integer counts over n are the bits that a boolean (time, path) mean gives
    merge_t = np.sort(np.where(np.isnan(merge_time), np.inf, merge_time))
    survival = (n_paths - np.searchsorted(merge_t, times, side="right")) / n_paths

    # fit only where decay has started: an all-alive prefix carries no
    # information about the c e^{-kappa t}/t shape
    pos = (survival > 0) & (survival < 1) & (times > 0)
    fit = None
    envelope_factor = None
    envelope_ok = None
    if pos.sum() >= 3:
        # p_t ~ c exp(-kappa t)/t  <=>  ln(p_t t) = ln c - kappa t
        fit = fit_exponential_rate(times[pos], survival[pos] * times[pos])
        model_curve = fit.c_hat * np.exp(-fit.kappa_hat * times[pos]) / times[pos]
        envelope_factor = float(np.max(survival[pos] / model_curve))
        envelope_ok = bool(envelope_factor <= math.exp(3.0 * fit.residual) + 1e-9)
    return CoalescenceReport(
        times=times, survival=survival, fit=fit,
        envelope_factor=envelope_factor, envelope_ok=envelope_ok,
    )


def ergodic_sample(
    model: EllipticModel,
    cfg: SimConfig,
    n_replicas: int,
    samples_per_replica: int,
    tag: str = "ergodic",
) -> np.ndarray:
    """Thinned post-burn-in states of replicated trajectories started at 0,
    with burn-in 10/rho and thinning 1/rho.

    Returns (n_replicas, samples_per_replica, d).  Replicas are rows of a
    single vectorized ensemble, hence mutually independent and individually
    reproducible.
    """
    if samples_per_replica < 1:
        raise ValueError("need samples_per_replica >= 1")
    burn_steps = int(math.ceil(10.0 / model.rho / cfg.dt))
    thin_steps = max(int(round(1.0 / model.rho / cfg.dt)), 1)
    total_steps = burn_steps + thin_steps * samples_per_replica
    run_cfg = replace(cfg, t_final=total_steps * cfg.dt, seed=derive_seed(cfg.seed, tag))
    traj = em_path(model, np.zeros(model.d), run_cfg, n_paths=n_replicas,
                   record_every=thin_steps)
    # recorded times: 0, thin, 2 thin, ...; burn-in occupies the first
    # burn_steps/thin_steps records (rounded up)
    skip = int(math.ceil(burn_steps / thin_steps))
    states = traj.states[skip : skip + samples_per_replica]
    return np.swapaxes(states, 0, 1)


def lyapunov_expectation(
    model: EllipticModel,
    delta: float,
    cfg: SimConfig,
    n_replicas: int = 64,
    samples_per_replica: int = 400,
) -> EstimateResult:
    """Ergodic estimate of E exp(delta |X - Y|^2) for two independent
    stationary copies, against the closed-form exponential-moment bound.

    Uses 2 * n_replicas independent trajectories paired off; replica means
    give the standard error.  The bound checks delta before any sampling.
    """
    if n_replicas < 2:
        raise ValueError("need n_replicas >= 2")
    bound = lyapunov_bound(model.lip, model.rho, model.radius, model.d, delta)
    sample = ergodic_sample(model, cfg, 2 * n_replicas, samples_per_replica, tag="lyapunov")
    xs, ys = sample[:n_replicas], sample[n_replicas:]
    vals = np.exp(delta * np.sum((xs - ys) ** 2, axis=-1))
    rep_means = vals.mean(axis=1)
    value = float(rep_means.mean())
    if not math.isfinite(value):
        raise EstimatorDiverged("running mean of exp(delta |X-Y|^2) is non-finite")
    stderr = float(rep_means.std(ddof=1) / math.sqrt(n_replicas))
    return EstimateResult(
        value=value,
        stderr=stderr,
        n_samples=int(vals.size),
        seed=cfg.seed,
        bound=bound,
    )


@dataclass(frozen=True)
class HarnackCheck:
    lhs: float
    rhs: float
    lhs_stderr: float
    rhs_stderr: float
    factor: float
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def harnack_check(
    model: EllipticModel,
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    x,
    y,
    t: float,
    n_paths: int,
    cfg: SimConfig,
    k_w: float | None = None,
) -> HarnackCheck:
    """Monte Carlo check of (P_t f(y))^alpha <= (P_t f^alpha)(x) * factor.

    Both semigroup values are plain ensemble averages (lhs from y, rhs from
    x, independent streams); the inequality is accepted up to the combined
    3-sigma error.  ``f`` must be nonnegative on the sampled range.  The
    factor checks alpha before any path is run.
    """
    if n_paths < 2:
        raise ValueError("need n_paths >= 2")
    k_w = model.lip * model.radius if k_w is None else k_w
    dist = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    factor = harnack_factor(k_w, model.sigma, alpha, t, dist)
    run = replace(cfg, t_final=t)
    lhs_traj = em_path(
        model, y, replace(run, seed=derive_seed(cfg.seed, "harnack-lhs")),
        n_paths=n_paths, record_every=run.n_steps,
    )
    rhs_traj = em_path(
        model, x, replace(run, seed=derive_seed(cfg.seed, "harnack-rhs")),
        n_paths=n_paths, record_every=run.n_steps,
    )
    fy, fx = f(lhs_traj.terminal), f(rhs_traj.terminal)
    if np.any(fy < 0) or np.any(fx < 0):
        raise ValueError("f must be nonnegative on the sampled range")
    fax = fx**alpha
    m_y, s_y = float(fy.mean()), float(fy.std(ddof=1) / math.sqrt(n_paths))
    m_x, s_x = float(fax.mean()), float(fax.std(ddof=1) / math.sqrt(n_paths))
    lhs = m_y**alpha
    lhs_stderr = alpha * m_y ** (alpha - 1.0) * s_y
    rhs = m_x * factor
    rhs_stderr = s_x * factor
    ok = lhs <= rhs + 3.0 * math.hypot(lhs_stderr, rhs_stderr)
    return HarnackCheck(lhs, rhs, lhs_stderr, rhs_stderr, factor, bool(ok))


def elliptic_fk_system(
    b_tilde: Callable[[np.ndarray], np.ndarray],
    potential: Callable[[np.ndarray], np.ndarray],
    d: int,
) -> SdeSystem:
    """Elliptic Feynman-Kac system: drift b_tilde, noise sqrt(2)."""
    return SdeSystem(dim=d, drift=b_tilde, noise_dim=d, noise_scale=math.sqrt(2.0),
                     potential=potential)


def kinetic_fk_system(
    model: KineticModel,
    potential: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SdeSystem:
    """Kinetic Feynman-Kac system.

    The relative-density equation transports along
    dX = -V dt, dV = (-gamma V + grad U(X) - G(X,V)) dt + sqrt(2 gamma) dB,
    with potential phi(x,v) = -div_v G(x,v) + G(x,v).v (central differences
    of step 1e-5 when no closed form is supplied).
    """
    d, gamma = model.d, model.gamma

    def drift(z: np.ndarray) -> np.ndarray:
        x, v = z[..., :d], z[..., d:]
        acc = -gamma * v + model.grad_potential(x) - model.force_g(x, v)
        return np.concatenate([-v, acc], axis=-1)

    if potential is None:
        if model.forcing is None:
            potential_fn = lambda z: np.zeros(z.shape[:-1])
        else:
            def potential_fn(z: np.ndarray) -> np.ndarray:
                x, v = z[..., :d], z[..., d:]
                div = _central_divergence(lambda w: model.force_g(x, w), v)
                return -div + np.sum(model.force_g(x, v) * v, axis=-1)
    else:
        potential_fn = potential
    return SdeSystem(dim=2 * d, drift=drift, noise_dim=d,
                     noise_scale=math.sqrt(2.0 * gamma), potential=potential_fn)


def feynman_kac_h(
    system: SdeSystem,
    x,
    T: float,
    n_paths: int,
    cfg: SimConfig,
) -> EstimateResult:
    """Estimate h_T(x) = E exp( int_0^T phi(X_s) ds ) with h_0 = 1.

    The integral is a left Riemann sum along the Euler-Maruyama path.
    Raises :class:`SimulationBlowUp` when the path or the integral turns
    non-finite and :class:`WeightOverflowError` when an exponent exceeds 700.
    """
    if system.potential is None:
        raise ValueError("feynman_kac_h needs a system with a potential")
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    steps = _horizon_steps(T, cfg.dt)
    acc = np.zeros(n_paths)
    em_step = _em_step(system, cfg, CH_MAIN)

    def step(k, x, y, active):
        acc[:] += system.potential(x) * cfg.dt
        return em_step(k, x, y, active)

    _integrate(cfg, step, _as_batch(x, n_paths, system.dim), n_steps=steps,
               record_every=max(steps, 1), accumulators=(acc,))
    max_exp = float(acc.max())
    if max_exp > 700.0:
        raise WeightOverflowError(max_exp)
    w = np.exp(acc)
    value = float(w.mean())
    stderr = float(w.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return EstimateResult(value=value, stderr=stderr, n_samples=n_paths, seed=cfg.seed)


@dataclass(frozen=True)
class ScanReport:
    points: np.ndarray
    u_vals: np.ndarray
    u_stderr: np.ndarray
    worst_margin: float
    worst_pair: tuple[int, int] | None
    ok: bool

    def to_json(self) -> dict:
        return {
            "points": self.points.tolist(),
            "u_vals": self.u_vals.tolist(),
            "u_stderr": self.u_stderr.tolist(),
            "worst_margin": self.worst_margin,
            "worst_pair": self.worst_pair,
            "ok": self.ok,
        }


def u_lipschitz_scan(
    system: SdeSystem,
    points: np.ndarray,
    T: float,
    n_paths: int,
    cfg: SimConfig,
    m_phi: float = 0.0,
    l_phi: float = 0.0,
    *,
    c_prime: float,
) -> ScanReport:
    """Check the bounded+Lipschitz increment bound of u_T = ln h_T on a grid.

    Each pair (x, y) must satisfy
    |u(x) - u(y)| <= min_t [2 m_phi t + c_prime (2 m_phi/t + l_phi)|x-y|]
    up to the propagated 3-sigma error; a plain Lipschitz bound L |x - y|
    is the case m_phi = 0, l_phi = L, c_prime = 1.  Log errors use the delta
    method; a relative h-standard error above 0.1 raises
    :class:`UnstableLogError`.  A bad bound argument raises before any path.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n_pts = points.shape[0]
    bounds = {(i, j): perturbation_bound_elliptic(
        m_phi, l_phi, c_prime, float(np.linalg.norm(points[i] - points[j]))).total
        for i in range(n_pts) for j in range(i + 1, n_pts)}
    u = np.empty(n_pts)
    su = np.empty(n_pts)
    for i, pt in enumerate(points):
        sub = replace(cfg, seed=derive_seed(cfg.seed, f"uscan-{i}"))
        est = feynman_kac_h(system, pt, T, n_paths, sub)
        rel = est.stderr / est.value if est.value > 0 else math.inf
        if not math.isfinite(rel) or rel > 0.10:
            raise UnstableLogError(f"relative stderr {rel:.3g} at grid point {i} exceeds 0.1")
        u[i] = math.log(est.value)
        su[i] = rel    # delta method: d(ln h) = dh / h
    worst, worst_pair = math.inf, None    # a single-point grid passes vacuously
    for (i, j), bound in bounds.items():
        margin = bound + 3.0 * math.hypot(su[i], su[j]) - abs(u[i] - u[j])
        if margin < worst:
            worst, worst_pair = margin, (i, j)
    return ScanReport(
        points=points, u_vals=u, u_stderr=su,
        worst_margin=float(worst), worst_pair=worst_pair, ok=bool(worst >= 0.0),
    )


def mollified_split(u_vals: np.ndarray, xs: np.ndarray, eps: float) -> tuple[float, float]:
    """Split u into (Lipschitz, bounded) parts by Gaussian mollification.

    Convolves u with the Gaussian kernel of width eps on a uniform grid and
    returns (Lipschitz constant of the mollification, sup-norm of the
    remainder u - u * g_eps), both over the interior where the truncated
    kernel fits entirely.
    """
    u_vals = np.asarray(u_vals, dtype=float)
    xs = np.asarray(xs, dtype=float)
    h = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), h, rtol=1e-8):
        raise ValueError("xs must be a uniform grid")
    if eps < h:
        raise ValueError("eps must be at least the grid spacing")
    half = int(math.ceil(7.5 * eps / h))
    if 2 * half + 1 > xs.size:
        raise ValueError("grid too short for the kernel support")
    k = np.exp(-0.5 * (np.arange(-half, half + 1) * h / eps) ** 2)
    k /= k.sum()
    smooth = np.convolve(u_vals, k, mode="valid")   # interior points xs[half:-half]
    interior_u = u_vals[half : xs.size - half]
    remainder = float(np.max(np.abs(interior_u - smooth)))
    lip = float(np.max(np.abs(np.diff(smooth)))) / h if smooth.size > 1 else 0.0
    return lip, remainder


@dataclass(frozen=True)
class HyperProbeResult:
    ratio: EstimateResult
    ratio_plugin: float
    closed_bound: float
    t0: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "ratio": self.ratio.to_json(),
            "ratio_plugin": self.ratio_plugin,
            "closed_bound": self.closed_bound,
            "t0": self.t0,
            "ok": self.ok,
        }


def hypercontractivity_probe(
    model: EllipticModel,
    f: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    beta: float,
    t: float,
    n_outer: int,
    n_inner: int,
    cfg: SimConfig,
) -> HyperProbeResult:
    """Nested Monte Carlo estimate of |P_t f|_beta / |f|_alpha.

    Outer points are ergodic samples of the invariant measure; each feeds an
    inner ensemble estimating P_t f.  The beta-power of a noisy inner mean
    is biased upward, so a leave-one-out jackknife value is reported as the
    estimate alongside the plug-in value, and compared to the explicit
    hypercontractivity bound.  A t at or below the bound's t0, or fewer than
    2 outer or inner points, raises ValueError before anything is sampled.
    """
    if n_outer < 2 or n_inner < 2:
        raise ValueError("need n_outer >= 2 and n_inner >= 2")
    t0, bound = hypercontractivity_bound(
        model.lip, model.rho, model.radius, model.sigma, model.d, alpha, beta, t
    )
    if n_inner < 1000:
        warnings.warn("n_inner < 1000: inner-mean bias may dominate", stacklevel=2)
    n_rep = min(n_outer, 64)
    per_rep = int(math.ceil(n_outer / n_rep))
    ys = ergodic_sample(model, cfg, n_rep, per_rep, tag="hyper-outer")
    ys = ys.reshape(-1, model.d)[:n_outer]

    f_alpha_vals = np.abs(f(ys)) ** alpha
    norm_alpha = float(f_alpha_vals.mean()) ** (1.0 / alpha)

    inner_cfg = replace(cfg, t_final=t, seed=derive_seed(cfg.seed, "hyper-inner"))
    tiled = np.repeat(ys, n_inner, axis=0)
    term = em_path(
        model, tiled, inner_cfg, n_paths=n_outer * n_inner, record_every=inner_cfg.n_steps
    ).terminal
    vals = f(term).reshape(n_outer, n_inner)
    p_hat = vals.mean(axis=1)
    plug = p_hat**beta
    loo = (p_hat[:, None] * n_inner - vals) / (n_inner - 1.0)
    jack = n_inner * plug - (n_inner - 1.0) * np.mean(np.abs(loo) ** beta, axis=1)
    jack = np.maximum(jack, 0.0)

    mean_jack = float(jack.mean())
    if mean_jack <= 0:
        raise EstimatorDiverged("jackknife-corrected beta-moment is nonpositive")
    ratio = mean_jack ** (1.0 / beta) / norm_alpha
    ratio_plugin = float(plug.mean()) ** (1.0 / beta) / norm_alpha
    # delta method on ln ratio from outer spreads of both moments
    se_num = float(jack.std(ddof=1) / math.sqrt(n_outer)) / (beta * mean_jack)
    se_den = float(f_alpha_vals.std(ddof=1) / math.sqrt(f_alpha_vals.size)) / (
        alpha * float(f_alpha_vals.mean())
    )
    stderr = ratio * math.hypot(se_num, se_den)
    est = EstimateResult(
        value=float(ratio), stderr=float(stderr),
        n_samples=n_outer * n_inner, seed=cfg.seed, bound=bound,
    )
    return HyperProbeResult(
        ratio=est, ratio_plugin=float(ratio_plugin), closed_bound=bound, t0=t0,
        ok=bool(ratio <= bound + 3.0 * stderr),
    )


@dataclass(frozen=True)
class DefectiveLsiCheck:
    lhs: float
    rhs: float
    margin_stderr: float
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


def defective_lsi_check(
    model: EllipticModel,
    f: Callable[[np.ndarray], np.ndarray],
    grad_f: Callable[[np.ndarray], np.ndarray],
    A: float,
    B: float,
    cfg: SimConfig,
    n_replicas: int = 64,
    samples_per_replica: int = 400,
) -> DefectiveLsiCheck:
    """Ergodic check of the defective log-Sobolev inequality
    E[f ln f] <= A E[|grad f|^2 / f] + B for f >= 0 self-normalized to
    unit mean over the sample.

    Each replica produces one normalized (lhs, rhs) pair; the flag compares
    the mean gap to its 3-sigma replica error.
    """
    if n_replicas < 2:
        raise ValueError("need n_replicas >= 2")
    xs = ergodic_sample(model, cfg, n_replicas, samples_per_replica, tag="dlsi")
    fv = f(xs.reshape(-1, model.d)).reshape(n_replicas, samples_per_replica)
    gv = grad_f(xs.reshape(-1, model.d)).reshape(n_replicas, samples_per_replica, model.d)
    if np.any(fv < 0):
        raise ValueError("f must be nonnegative")
    grad_sq = np.sum(gv * gv, axis=-1)
    m = fv.mean(axis=1)                     # per-replica normalization
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = np.where(fv > 0, fv * np.log(np.maximum(fv, 1e-300) / m[:, None]), 0.0)
        fisher = np.where(fv > 0, grad_sq / fv, 0.0)
    lhs_r = ent.mean(axis=1) / m
    rhs_r = A * fisher.mean(axis=1) / m + B
    gap = lhs_r - rhs_r
    lhs = float(lhs_r.mean())
    rhs = float(rhs_r.mean())
    margin_stderr = float(gap.std(ddof=1) / math.sqrt(n_replicas))
    ok = float(gap.mean()) <= 3.0 * margin_stderr
    return DefectiveLsiCheck(lhs=lhs, rhs=rhs, margin_stderr=margin_stderr, ok=bool(ok))


def wasserstein2_subsampled(
    a: np.ndarray,
    b: np.ndarray,
    k: int = 256,
    draws: int = 8,
    seed: int = 0,
) -> float:
    """W2 distance between empirical measures by exact linear assignment on
    subsamples of at most k points, averaged over ``draws`` seeded draws."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = min(k, a.shape[0], b.shape[0])
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 87], dtype=np.uint64)))
    total = 0.0
    for _ in range(draws):
        ia = gen.choice(a.shape[0], size=k, replace=False)
        ib = gen.choice(b.shape[0], size=k, replace=False)
        sa, sb = a[ia], b[ib]
        cost = np.sum((sa[:, None, :] - sb[None, :, :]) ** 2, axis=-1)
        rows, cols = linear_sum_assignment(cost)
        total += math.sqrt(cost[rows, cols].mean())
    return total / draws


@dataclass(frozen=True)
class MckvReport:
    w2_distances: list[float]
    converged: bool
    probe_stat: float
    probe_ok: bool
    mean_abs: float

    def to_json(self) -> dict:
        return asdict(self)


def mckv_fixed_point(
    kernel: CompetitionKernel,
    grad_v: Callable[[np.ndarray], np.ndarray],
    lam: float,
    n_particles: int,
    n_iters: int,
    cfg: SimConfig,
    c_prime: float = 5.0,
) -> MckvReport:
    """Picard iteration for the stationary interacting-particle measure.

    Each iteration freezes the empirical interaction drift, relaxes the
    particle cloud toward the corresponding linear stationary measure, and
    measures the W2 distance between successive clouds (exact assignment on
    8 subsamples of 256 particles).  The initial cloud is N(0, 9 I).  Also probes the interaction-growth condition
    |b(x)| (1 + |x|) / (1 + mean |y|) <= c_prime over the final cloud.
    """
    if n_particles < 64:
        raise ValueError("need at least 64 particles")
    dim = 2 * kernel.p
    gen_seed = derive_seed(cfg.seed, "mckv-init")
    init = 3.0 * noise_normals(gen_seed, 0, CH_AUX, (n_particles, dim))
    particles = init
    dists: list[float] = []
    for it in range(n_iters):
        b_int = make_competition_drift(kernel, particles)

        def drift(x, _b=b_int):
            return -grad_v(x) - lam * _b(x)

        system = SdeSystem(dim=dim, drift=drift, noise_dim=dim, noise_scale=math.sqrt(2.0))
        it_cfg = replace(cfg, seed=derive_seed(cfg.seed, f"mckv-{it}"))
        new_particles = em_path(
            system, particles, it_cfg, n_paths=n_particles, record_every=it_cfg.n_steps
        ).terminal
        dists.append(
            wasserstein2_subsampled(
                particles, new_particles, seed=derive_seed(cfg.seed, f"mckv-w2-{it}")
            )
        )
        particles = new_particles
    converged = len(dists) < 2 or dists[-1] <= dists[0]
    b_final = make_competition_drift(kernel, particles)
    b_norm = np.linalg.norm(b_final(particles), axis=-1)
    x_norm = np.linalg.norm(particles, axis=-1)
    probe_stat = float(np.max(b_norm * (1.0 + x_norm)) / (1.0 + x_norm.mean()))
    return MckvReport(
        w2_distances=dists,
        converged=bool(converged),
        probe_stat=probe_stat,
        probe_ok=bool(probe_stat <= c_prime),
        mean_abs=float(x_norm.mean()),
    )
