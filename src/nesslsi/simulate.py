"""Euler-Maruyama discretization and coupling constructions.

Noise is drawn from a counter-based (Philox) stream keyed by
(seed, step, channel); within a step, path p consumes the fixed slice
[p*d, (p+1)*d) of the stream.  Trajectories are therefore bit-reproducible
from (seed, config, model) alone, per path, independently of ensemble size
or scheduling.  Each thread holds one Philox generator and re-keys it for
every draw (key (seed, step << 3 | channel), counter 0, empty buffer), so a
draw builds no generator and reads no OS entropy; the numbers are those of a
freshly keyed ``Philox(key=...)``.

Couplings:

* synchronous: both copies share every Brownian increment,
* reflection:  the second copy sees noise mirrored across the separation
  direction until the pair merges, then synchronous,
* drifted (Harnack): same noise plus an extra inward drift xi * e on the
  second copy that forces merging by the horizon; the Girsanov log-weight
  of the added drift is recorded,
* kinetic reflection-synchronous: mixed noise rc/sc with rc^2 + sc^2 = 1,
  reflecting across the q = x + v separation direction, with smoothing
  index n controlling the thresholds.

Merging in discrete time is declared either when the separation falls below
merge_tol * (1 + initial separation), or when the signed radial coordinate
of the updated difference crosses zero (exact hits are almost surely missed
on a grid, crossings are not).  Merged pairs are advanced identically and
never separate.

Every simulator, the Feynman-Kac weight in ``estimators`` included, runs
the one time loop ``_integrate``, which owns the record buffers (states and
rc), the merge bookkeeping and the finiteness check.  A coupling supplies
only its one-step update: the second copy's noise map, its merge test and
its per-path accumulators (the Girsanov int e . dB, the Feynman-Kac
int phi ds).  Both copies and every accumulator are checked every 16 steps
and at the last step; a non-finite entry raises :class:`SimulationBlowUp`.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import EllipticModel, KineticModel, NormalizedKineticModel
from .metric import MetricParams, MetricTable

__all__ = [
    "SimConfig",
    "Trajectory",
    "PairTrajectory",
    "SimulationBlowUp",
    "SdeSystem",
    "system_of",
    "noise_normals",
    "derive_seed",
    "em_path",
    "synchronous_pair",
    "reflection_pair",
    "harnack_pair",
    "kinetic_coupled_pair",
    "rc_profile",
    "pair_to_csv_rows",
]

_MASK64 = (1 << 64) - 1

CH_MAIN = 0
CH_AUX = 1
CH_INIT = 2


class SimulationBlowUp(FloatingPointError):
    """A state became non-finite during integration."""

    def __init__(self, step: int, t: float, n_bad: int):
        super().__init__(f"non-finite state at step {step} (t={t:g}) in {n_bad} path(s)")
        self.step = step
        self.t = t
        self.n_bad = n_bad


@dataclass(frozen=True)
class SimConfig:
    """Time grid, seed and coupling knobs shared by all simulators.

    ``n_smooth`` is the smoothing index of the kinetic coupling (math.inf
    for the limiting construction).  ``merge_tol`` is the base merge
    threshold, scaled by (1 + initial separation) per pair.
    """

    dt: float
    t_final: float
    seed: int
    merge_tol: float = 1e-8
    n_smooth: float = 1000

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError("dt and t_final must be positive")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if self.merge_tol <= 0:
            raise ValueError("merge_tol must be positive")

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_final / self.dt - 1e-12))


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for an estimator or replica stream."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_thread_rng = threading.local()
_ZERO4 = np.zeros(4, dtype=np.uint64)


def noise_normals(seed: int, step: int, channel: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from the counter-based stream (seed, step, channel):
    ``Generator(Philox(key=[seed, step << 3 | channel])).standard_normal(shape)``,
    drawn from this thread's generator re-keyed in place."""
    gen = getattr(_thread_rng, "gen", None)
    if gen is None:
        gen = _thread_rng.gen = np.random.Generator(np.random.Philox(0))
    key = np.array([seed & _MASK64, ((step << 3) | channel) & _MASK64], dtype=np.uint64)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen.standard_normal(shape)


@dataclass(frozen=True)
class SdeSystem:
    """Constant-diffusion SDE: drift on R^dim, noise on the trailing
    ``noise_dim`` coordinates with scalar scale ``noise_scale``.  A
    Feynman-Kac system also carries the path ``potential`` phi."""

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    noise_dim: int
    noise_scale: float
    potential: Callable[[np.ndarray], np.ndarray] | None = None


def system_of(model) -> SdeSystem:
    """Wrap a model as an SdeSystem (physical dynamics)."""
    if isinstance(model, EllipticModel):
        return SdeSystem(model.d, model.drift, model.d, model.sigma)
    if isinstance(model, NormalizedKineticModel):
        model = model.model
    if isinstance(model, KineticModel):
        return SdeSystem(
            2 * model.d, model.kinetic_drift, model.d, math.sqrt(2.0 * model.gamma)
        )
    if isinstance(model, SdeSystem):
        return model
    raise TypeError(f"unsupported model type {type(model).__name__}")


@dataclass
class Trajectory:
    times: np.ndarray           # (n_rec,)
    states: np.ndarray          # (n_rec, n_paths, dim)

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class PairTrajectory:
    """Two coupled discretized paths with coupling-mode trace.

    ``rc``/``sc`` are the reflection/synchronous mixing weights where the
    coupling records them (rc = 1 pure reflection, 0 pure synchronous).
    ``merge_time`` is nan for pairs that never merged; after merging the two
    paths coincide exactly.  ``girsanov_logw`` is populated by the drifted
    coupling only.
    """

    times: np.ndarray                      # (n_rec,)
    z: np.ndarray                          # (n_rec, n_paths, dim)
    z_prime: np.ndarray                    # (n_rec, n_paths, dim)
    merge_time: np.ndarray                 # (n_paths,)
    rc: np.ndarray | None = None           # (n_rec, n_paths)
    sc: np.ndarray | None = None
    girsanov_logw: np.ndarray | None = None
    mode: str = ""

    @property
    def separation(self) -> np.ndarray:
        """|z - z'| per recorded time and path."""
        return np.linalg.norm(self.z - self.z_prime, axis=-1)

    @property
    def merged(self) -> np.ndarray:
        return ~np.isnan(self.merge_time)


def _as_batch(x0, n_paths: int, dim: int) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (n_paths, dim))
    if x0.shape != (n_paths, dim):
        raise ValueError(f"initial state must have shape ({n_paths},{dim}) or ({dim},)")
    return x0.copy()


def _record_index(n_steps: int, record_every: int) -> np.ndarray:
    idx = np.arange(0, n_steps + 1, record_every)
    if idx[-1] != n_steps:
        idx = np.append(idx, n_steps)
    return idx


def _check_finite(step: int, dt: float, states) -> None:
    """Raise SimulationBlowUp counting the paths with a non-finite entry."""
    bad = np.zeros(len(states[0]), dtype=bool)
    for s in states:
        bad |= ~np.isfinite(s).all(axis=tuple(range(1, s.ndim)))
    if bad.any():
        raise SimulationBlowUp(step, step * dt, int(bad.sum()))


def _integrate(
    cfg: SimConfig,
    advance: Callable,
    x: np.ndarray,
    y: np.ndarray | None = None,
    *,
    n_steps: int | None = None,
    record_every: int = 1,
    tol: np.ndarray | None = None,
    accumulators: tuple[np.ndarray, ...] = (),
    rc_of: Callable | None = None,
):
    """The time loop shared by every simulator.

    ``advance(k, x, y, active)`` takes the state from step k to k + 1 and
    returns ``(x, y, hit)``, ``hit`` being the merge test on the new pair.
    With ``tol`` given, pairs within tol merge at t = 0, ``active`` pairs
    that ``hit`` merge at t_{k+1}, and a merged second copy is set to the
    first after every step.  ``accumulators`` are per-path arrays that
    ``advance`` updates in place; ``rc_of(x, y, active)`` is recorded with
    the states.  Returns ``(times, xs, ys, merge_time, rc)``.
    """
    n_steps = cfg.n_steps if n_steps is None else n_steps
    rec = _record_index(n_steps, record_every)
    xs = np.empty((rec.size,) + x.shape)
    ys = None if y is None else np.empty_like(xs)
    xs[0] = x
    if y is not None:
        ys[0] = y
    merge_time = np.full(x.shape[0], np.nan)
    active = None
    if tol is not None:
        merge_time[np.linalg.norm(x - y, axis=-1) <= tol] = 0.0
        active = np.isnan(merge_time)
        y[~active] = x[~active]
    rc = None
    if rc_of is not None:
        rc = np.empty((rec.size, x.shape[0]))
        rc[0] = rc_of(x, y, active)
    rec_pos = 1
    for step in range(n_steps):
        x, y, hit = advance(step, x, y, active)
        if tol is not None:
            merge_time[active & hit] = (step + 1) * cfg.dt
            active = np.isnan(merge_time)
            y[~active] = x[~active]
        if step % 16 == 0 or step == n_steps - 1:
            _check_finite(step + 1, cfg.dt, [s for s in (x, y, *accumulators) if s is not None])
        if rec_pos < rec.size and step + 1 == rec[rec_pos]:
            xs[rec_pos] = x
            if y is not None:
                ys[rec_pos] = y
            if rc is not None:
                rc[rec_pos] = rc_of(x, y, active)
            rec_pos += 1
    return rec * cfg.dt, xs, ys, merge_time, rc


def _pair_trajectory(out, mode: str, **extra) -> PairTrajectory:
    times, xs, ys, merge_time, rc = out
    sc = None if rc is None else np.sqrt(1.0 - rc**2)
    return PairTrajectory(times=times, z=xs, z_prime=ys, merge_time=merge_time,
                          rc=rc, sc=sc, mode=mode, **extra)


def _em_step(sys_: SdeSystem, cfg: SimConfig, channel: int) -> Callable:
    """x <- x + drift(x) dt + (scale sqrt(dt)) xi on the noise block."""
    nd = sys_.dim - sys_.noise_dim
    scale = sys_.noise_scale * math.sqrt(cfg.dt)

    def step(k, x, y, active):
        xi = noise_normals(cfg.seed, k, channel, (x.shape[0], sys_.noise_dim))
        x = x + sys_.drift(x) * cfg.dt
        x[:, nd:] += scale * xi
        return x, y, None

    return step


def em_path(
    model,
    x0,
    cfg: SimConfig,
    n_paths: int = 1,
    record_every: int = 1,
    channel: int = CH_MAIN,
) -> Trajectory:
    """Euler-Maruyama ensemble: x <- x + drift(x) dt + scale sqrt(dt) xi.

    Kinetic models advance (x, v) with noise on the velocity block only.
    Aborts with :class:`SimulationBlowUp` on non-finite states.
    """
    sys_ = system_of(model)
    x = _as_batch(x0, n_paths, sys_.dim)
    times, xs, _, _, _ = _integrate(cfg, _em_step(sys_, cfg, channel), x,
                                    record_every=record_every)
    return Trajectory(times=times, states=xs)


def _merge_tol_effective(cfg: SimConfig, x0: np.ndarray, y0: np.ndarray) -> np.ndarray:
    return cfg.merge_tol * (1.0 + np.linalg.norm(x0 - y0, axis=-1))


def synchronous_pair(
    model, x0, y0, cfg: SimConfig, n_paths: int = 1, record_every: int = 1
) -> PairTrajectory:
    """Both copies driven by identical noise increments."""
    sys_ = system_of(model)
    x = _as_batch(x0, n_paths, sys_.dim)
    y = _as_batch(y0, n_paths, sys_.dim)
    tol = _merge_tol_effective(cfg, x, y)
    nd = sys_.dim - sys_.noise_dim
    scale = sys_.noise_scale * math.sqrt(cfg.dt)

    def step(k, x, y, active):
        noise = scale * noise_normals(cfg.seed, k, CH_MAIN, (n_paths, sys_.noise_dim))
        x = x + sys_.drift(x) * cfg.dt
        x[:, nd:] += noise
        y = y + sys_.drift(y) * cfg.dt
        y[:, nd:] += noise
        return x, y, np.linalg.norm(x - y, axis=-1) <= tol

    out = _integrate(cfg, step, x, y, record_every=record_every, tol=tol)
    return _pair_trajectory(out, "synchronous")


def _unit_or_e1(delta: np.ndarray) -> np.ndarray:
    """delta/|delta| with the convention (1, 0, ..., 0) at delta = 0."""
    norm = np.linalg.norm(delta, axis=-1, keepdims=True)
    e = np.zeros_like(delta)
    e[..., 0] = 1.0
    safe = norm[..., 0] > 0.0
    e[safe] = delta[safe] / norm[safe]
    return e


def _radial_step(model: EllipticModel, cfg: SimConfig, cross_tol, second: Callable) -> Callable:
    """One step of an elliptic pair whose unmerged second copy moves by
    ``second(k, y, dB, e, active)``, e the unit separation before the step.
    The pair hits when the radial coordinate of the new difference crosses
    zero or the separation falls below ``cross_tol``."""
    sqdt = math.sqrt(cfg.dt)

    def step(k, x, y, active):
        e = _unit_or_e1(x - y)
        dB = sqdt * noise_normals(cfg.seed, k, CH_MAIN, x.shape)
        x_new = x + model.drift(x) * cfg.dt + model.sigma * dB
        y_new = np.where(active[:, None], second(k, y, dB, e, active), x_new)
        delta_new = x_new - y_new
        radial = np.sum(e * delta_new, axis=-1)
        # a non-finite difference (radial -inf or nan) is no crossing: merging
        # would overwrite the diverged copy before the finiteness check sees it
        crossed = (radial <= 0.0) & (radial > -np.inf)
        return x_new, y_new, crossed | (np.linalg.norm(delta_new, axis=-1) <= cross_tol)

    return step


def reflection_pair(
    model: EllipticModel, x0, y0, cfg: SimConfig, n_paths: int = 1, record_every: int = 1
) -> PairTrajectory:
    """Reflection coupling for an elliptic diffusion.

    The second copy is driven by (1 - 2 e e^T) dB with e the unit
    separation; the pair is declared merged when the signed radial
    coordinate of the updated difference crosses zero or the separation
    falls below the merge tolerance, and is advanced synchronously after.
    """
    if not isinstance(model, EllipticModel):
        raise TypeError("reflection coupling requires an elliptic model")
    b, sigma = model.drift, model.sigma
    x = _as_batch(x0, n_paths, model.d)
    y = _as_batch(y0, n_paths, model.d)
    tol = _merge_tol_effective(cfg, x, y)

    def reflected(k, y, dB, e, active):
        refl = dB - 2.0 * e * np.sum(e * dB, axis=-1, keepdims=True)
        return y + b(y) * cfg.dt + sigma * refl

    out = _integrate(cfg, _radial_step(model, cfg, tol, reflected), x, y,
                     record_every=record_every, tol=tol,
                     rc_of=lambda x, y, active: active.astype(float))
    return _pair_trajectory(out, "reflection")


def harnack_pair(
    model: EllipticModel,
    x0,
    y0,
    cfg: SimConfig,
    k_w: float,
    horizon: float | None = None,
    n_paths: int = 1,
    record_every: int = 1,
) -> PairTrajectory:
    """Synchronous coupling with an extra inward drift xi * e on the second
    copy, xi = k_w + |x0 - y0| / T, which forces merging by T.

    Records the Girsanov log-weight of the added drift,
    ln R = -(xi/sigma) int_0^tau e . dB - xi^2 tau / (2 sigma^2),
    so that averaging f(Y_T) R over paths estimates the semigroup applied
    at the second starting point.
    """
    if not isinstance(model, EllipticModel):
        raise TypeError("the drifted coupling requires an elliptic model")
    if k_w < 0:
        raise ValueError("k_w must be nonnegative")
    b, sigma = model.drift, model.sigma
    T = cfg.t_final if horizon is None else float(horizon)
    x = _as_batch(x0, n_paths, model.d)
    y = _as_batch(y0, n_paths, model.d)
    xi_drift = k_w + np.linalg.norm(x - y, axis=-1) / T
    tol = _merge_tol_effective(cfg, x, y)
    # the radial part decreases by at least (xi - k_w) dt per unit time, so a
    # separation below that decrement crosses zero within the step
    cross_tol = np.maximum(tol, (xi_drift - k_w) * cfg.dt)
    ito = np.zeros(n_paths)     # int e . dB up to merge

    def drifted(k, y, dB, e, active):
        ito[active] += np.sum(e * dB, axis=-1)[active]
        return y + b(y) * cfg.dt + sigma * dB + (xi_drift * cfg.dt)[:, None] * e

    out = _integrate(cfg, _radial_step(model, cfg, cross_tol, drifted), x, y,
                     record_every=record_every, tol=tol, accumulators=(ito,))
    merge_time = out[3]
    tau = np.where(np.isnan(merge_time), cfg.n_steps * cfg.dt, merge_time)
    logw = -(xi_drift / sigma) * ito - xi_drift**2 * tau / (2.0 * sigma**2)
    return _pair_trajectory(out, "harnack", girsanov_logw=logw)


def rc_profile(r: np.ndarray, dq_norm: np.ndarray, r0: float, n_smooth: float) -> np.ndarray:
    """Reflection weight rc_n(r, |dq|): 0 when r >= r0 + 1/n or |dq| <= 1/n,
    1 when r <= r0 and |dq| >= 2/n, quarter-cosine ramps in between."""
    r = np.asarray(r, dtype=float)
    dq_norm = np.asarray(dq_norm, dtype=float)
    if math.isinf(n_smooth):
        return np.where((r <= r0) & (dq_norm > 0.0), 1.0, 0.0)
    u = np.clip((r - r0) * n_smooth, 0.0, 1.0)
    c = np.where(u >= 1.0, 0.0, np.cos(0.5 * np.pi * u))
    w = np.clip(dq_norm * n_smooth - 1.0, 0.0, 1.0)
    m = np.where(w >= 1.0, 1.0, np.sin(0.5 * np.pi * w))
    return c * m


def kinetic_coupled_pair(
    normalized: NormalizedKineticModel,
    table: MetricTable,
    params: MetricParams,
    z0,
    z0_prime,
    cfg: SimConfig,
    n_paths: int = 1,
    record_every: int = 1,
) -> PairTrajectory:
    """Reflection-synchronous coupling for a unit-friction kinetic diffusion.

    Both copies follow dX = V dt, dV = (-V - KX + g(X,V)) dt + sqrt(2) dB'.
    The second copy's Brownian is assembled from the main noise B and an
    independent B'' through the mixing weights rc/sc evaluated on
    (r, |dq|) = (theta |dx| + |dq|, |dx + dv|), reflecting across the unit
    q-separation.  The reassembled B' is again a Brownian motion, so the
    marginal law of the second copy is exact.
    """
    model = normalized.model
    if model.gamma != 1.0:
        raise ValueError("kinetic coupling runs on the normalized (gamma = 1) system")
    if not model.admissible:
        raise ValueError("model fails the admissibility condition 19 L2 <= min(1, k)")
    if not math.isinf(cfg.n_smooth) and cfg.n_smooth <= 0:
        raise ValueError("n_smooth must be positive")
    d = model.d
    theta, r0 = params.theta, params.r0
    z = _as_batch(z0, n_paths, 2 * d)
    zp = _as_batch(z0_prime, n_paths, 2 * d)

    def weights(z_, zp_):
        dx = z_[:, :d] - zp_[:, :d]
        dq = dx + (z_[:, d:] - zp_[:, d:])
        dqn = np.linalg.norm(dq, axis=-1)
        r = theta * np.linalg.norm(dx, axis=-1) + dqn
        return rc_profile(r, dqn, r0, cfg.n_smooth), _unit_or_e1(dq)

    sq2, sqdt = math.sqrt(2.0), math.sqrt(cfg.dt)

    def step(k, z, zp, active):
        rc, e = weights(z, zp)
        sc = np.sqrt(np.clip(1.0 - rc * rc, 0.0, 1.0))
        dB = sqdt * noise_normals(cfg.seed, k, CH_MAIN, (n_paths, d))
        dBpp = sqdt * noise_normals(cfg.seed, k, CH_AUX, (n_paths, d))
        rc_, sc_ = rc[:, None], sc[:, None]
        dB_rc = rc_ * dB + sc_ * dBpp
        dB_sc = sc_ * dB - rc_ * dBpp
        refl = dB_rc - 2.0 * e * np.sum(e * dB_rc, axis=-1, keepdims=True)
        z_new = z + model.control_drift(z) * cfg.dt
        z_new[:, d:] += sq2 * dB
        zp_new = zp + model.control_drift(zp) * cfg.dt
        zp_new[:, d:] += sq2 * (rc_ * refl + sc_ * dB_sc)
        return z_new, zp_new, None

    out = _integrate(cfg, step, z, zp, record_every=record_every,
                     rc_of=lambda z_, zp_, active: weights(z_, zp_)[0])
    return _pair_trajectory(out, "kinetic")


def pair_to_csv_rows(traj: PairTrajectory):
    """Yield CSV rows (path_id, step, t, z..., z'..., rc, merged)."""
    n_rec, n_paths, dim = traj.z.shape
    header = (
        ["path_id", "step", "t"]
        + [f"z{i}" for i in range(dim)]
        + [f"zp{i}" for i in range(dim)]
        + ["rc", "merged"]
    )
    yield header
    for p in range(n_paths):
        for i in range(n_rec):
            t = traj.times[i]
            merged = (not math.isnan(traj.merge_time[p])) and t >= traj.merge_time[p]
            rc = traj.rc[i, p] if traj.rc is not None else ""
            yield (
                [p, i, f"{t:.12g}"]
                + [f"{v:.17g}" for v in traj.z[i, p]]
                + [f"{v:.17g}" for v in traj.z_prime[i, p]]
                + [f"{rc:.12g}" if rc != "" else "", int(merged)]
            )
