"""Euler-Maruyama discretization and coupling constructions.

Noise is drawn from a counter-based (Philox) stream keyed by
(seed, step, channel); within a step, path p consumes the fixed slice
[p*d, (p+1)*d) of the stream.  Trajectories are therefore bit-reproducible
from (seed, config, model) alone, per path, independently of ensemble size
or scheduling.  Each thread holds one Philox generator and one state payload
of Python ints (counter 0, empty buffer); a draw rewrites the payload's two
key entries (seed, step << 3 | channel) and sets it, so it builds no
generator and no key array and reads no OS entropy, and the numbers are
those of a freshly keyed ``Philox(key=...)``.  Every draw looks
``noise_normals`` up in this module at call time, so a wrapper installed
there sees every draw.

Couplings:

* synchronous: both copies share every Brownian increment,
* reflection:  the second copy sees noise mirrored across the separation
  direction until the pair merges, then synchronous,
* drifted (Harnack): same noise plus an extra inward drift xi * e on the
  second copy that forces merging by the horizon; the Girsanov log-weight
  of the added drift is recorded,
* kinetic reflection-synchronous: mixed noise rc/sc with rc^2 + sc^2 = 1,
  reflecting across the q = x + v separation direction, with smoothing
  index n controlling the thresholds.  Where rc is 0 or 1 the second
  Brownian motion B'' drops out, so its channel is drawn only on the steps
  that start with an rc strictly inside (0, 1), or nan.  A step that starts
  with every pair at r >= r0 + 1/n, outside the reflection zone, is a plain
  synchronous step: it builds no unit vector and evaluates no ramp.

Merging in discrete time is declared either when the separation falls below
merge_tol * (1 + initial separation), or when the signed radial coordinate
of the updated difference crosses zero (exact hits are almost surely missed
on a grid, crossings are not).  A merged pair steps only its first copy and
its second copy is set to the first, so merged pairs never separate.

Every simulator, the Feynman-Kac weight in ``estimators`` included, runs
the one time loop ``_integrate``, which owns the state record buffers, the
merge bookkeeping and the finiteness check.  A coupling supplies
only its one-step update: the second copy's noise map, its merge test and
its per-path accumulators (the Girsanov int e . dB, the Feynman-Kac
int phi ds).  Both copies and every accumulator are checked every 16 steps
and at the last step; a non-finite entry raises :class:`SimulationBlowUp`.

At each record time the loop stores the states and, for a pair, the path
mean of |x - y| (``PairTrajectory.mean_separation``, through ``_row_norm``,
bit for bit the norm of the records).  The W1 estimator reads only that
mean, so it calls the couplings with ``keep_states=False``: the state
buffers (and the kinetic rc) then keep only the first and the last record,
and memory no longer grows with paths x records.

The steps are written for a low per-step cost at unchanged bits: new states
are summed in place (addition and multiplication commute exactly), the
unmerged second copies are gathered with ``take`` and written back as the
items of a row view, and row dots and norms add the columns in numpy's own
order (``_sum_rows``).  The kinetic pair holds both copies in one
Fortran-ordered (2n, 2d) state, the first copies above the second: its
transpose is a C-ordered (2d, 2n) array with one contiguous row per
coordinate, so the drift (one ``control_drift`` call), the dt update and
the noise increment each run once for both copies, and every pass runs
along the paths.  ``test_simulator_golden_hash`` pins the bits, at 2,000
paths too.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import EllipticModel, KineticModel
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


def _horizon_steps(t: float, dt: float) -> int:
    """Number of dt-steps that reach the horizon t (a step that falls
    short of t only by rounding is not taken)."""
    return int(math.ceil(t / dt - 1e-12))


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

    ``n_smooth`` is the smoothing index of the kinetic coupling, positive,
    or math.inf for the limiting construction.  ``merge_tol`` is the base merge
    threshold, scaled by (1 + initial separation) per pair.
    """

    dt: float
    t_final: float
    seed: int
    merge_tol: float = 1e-8
    n_smooth: float = 1000

    def __post_init__(self):
        # written as "not inside" so that nan fails every check
        if not (0 < self.dt < math.inf and 0 < self.t_final < math.inf):
            raise ValueError("dt and t_final must be positive and finite")
        if self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if not self.t_final / self.dt < math.inf:
            raise ValueError("t_final / dt, the number of steps, must be finite")
        if not 0 < self.merge_tol < math.inf:
            raise ValueError("merge_tol must be positive and finite")
        if not self.n_smooth > 0:
            raise ValueError("n_smooth must be positive or inf")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64): it keys a uint64 Philox stream")

    @property
    def n_steps(self) -> int:
        return _horizon_steps(self.t_final, self.dt)


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed for an estimator or replica stream."""
    digest = hashlib.blake2b(f"{seed}:{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


_thread_rng = threading.local()


def noise_normals(seed: int, step: int, channel: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals from the counter-based stream (seed, step, channel):
    ``Generator(Philox(key=[seed, step << 3 | channel])).standard_normal(shape)``,
    drawn from this thread's generator re-keyed in place."""
    try:
        gen, bitgen, state, key = _thread_rng.philox
    except AttributeError:
        # the state payload is built once, from Python ints, for the setter;
        # a draw rewrites only the two entries of ``key`` and sets it again
        bitgen, key = np.random.Philox(0), [0, 0]
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen = np.random.Generator(bitgen)
        _thread_rng.philox = gen, bitgen, state, key
    key[0] = seed & _MASK64
    key[1] = ((step << 3) | channel) & _MASK64
    bitgen.state = state
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

    ``mean_separation`` is the path mean of |z - z'| at every record time,
    computed in the time loop; it equals ``separation.mean(axis=1)`` of the
    full records bit for bit.  A coupling called with ``keep_states=False``
    keeps only the first and the last record in ``z``, ``z_prime`` and
    ``rc`` (so ``z[0]`` and ``z[-1]`` keep their meaning), while ``times``
    and ``mean_separation`` cover every record time.
    ``rc``/``sc`` are the reflection/synchronous mixing weights where the
    coupling records them (rc = 1 pure reflection, 0 pure synchronous;
    sc = sqrt(1 - rc^2)).
    ``merge_time`` is nan for pairs that never merged; after merging the two
    paths coincide exactly.  ``girsanov_logw`` is populated by the drifted
    coupling only.
    """

    times: np.ndarray                      # (n_rec,)
    z: np.ndarray                          # (n_rec, n_paths, dim), or (2, ...)
    z_prime: np.ndarray                    # (n_rec, n_paths, dim), or (2, ...)
    merge_time: np.ndarray                 # (n_paths,)
    mean_separation: np.ndarray            # (n_rec,)
    rc: np.ndarray | None = None           # (n_rec, n_paths), or (2, n_paths)
    girsanov_logw: np.ndarray | None = None
    mode: str = ""

    @property
    def sc(self) -> np.ndarray | None:
        return None if self.rc is None else np.sqrt(1.0 - self.rc**2)

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
    if all(np.isfinite(s).all() for s in states):
        return
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
    keep_states: bool = True,
):
    """The time loop shared by every simulator.

    ``advance(k, x, y, active)`` takes the state from step k to k + 1 and
    returns ``(x, y, hit)``, ``hit`` being the merge test on the new pair.
    With ``tol`` given, pairs within tol merge at t = 0 and ``active`` pairs
    that ``hit`` merge at t_{k+1}, their second copy set to the first;
    ``advance`` keeps every merged second copy equal to its first copy.
    ``accumulators`` are per-path arrays that ``advance`` updates in place.
    A pair records the path mean of |x - y| at every record time; with
    ``keep_states`` False its state buffers hold only the first and the
    last record.  Returns ``(times, xs, ys, merge_time, mean_separation)``,
    the last None without y.
    """
    n_steps = cfg.n_steps if n_steps is None else n_steps
    rec = _record_index(n_steps, record_every)
    last = rec.size - 1
    xs = np.empty((rec.size if keep_states else min(rec.size, 2),) + x.shape)
    ys = sep = None
    if y is not None:
        ys, sep = np.empty_like(xs), np.empty(rec.size)
        sep[0] = _row_norm(x - y).mean()
        ys[0] = y
    xs[0] = x
    merge_time = np.full(x.shape[0], np.nan)
    active = None
    if tol is not None:
        merged = np.linalg.norm(x - y, axis=-1) <= tol
        merge_time[merged] = 0.0
        active = ~merged
        y[merged] = x[merged]
    schedule = rec.tolist()     # Python ints: no numpy scalar per step
    rec_pos, next_rec = 1, schedule[1] if rec.size > 1 else -1
    for step in range(n_steps):
        x, y, hit = advance(step, x, y, active)
        if tol is not None:
            merged = active & hit
            if merged.any():
                active = active & ~merged
                merged = np.flatnonzero(merged)
                merge_time[merged] = (step + 1) * cfg.dt
                _put_rows(y, merged, x.take(merged, axis=0))
        if step % 16 == 0 or step == n_steps - 1:
            _check_finite(step + 1, cfg.dt, [s for s in (x, y, *accumulators) if s is not None])
        if step + 1 == next_rec:
            if y is not None:
                sep[rec_pos] = _row_norm(x - y).mean()
            if keep_states or rec_pos == last:
                slot = rec_pos if keep_states else -1
                xs[slot] = x
                if y is not None:
                    ys[slot] = y
            rec_pos += 1
            next_rec = schedule[rec_pos] if rec_pos < rec.size else -1
    return rec * cfg.dt, xs, ys, merge_time, sep


def _pair_trajectory(out, mode: str, **extra) -> PairTrajectory:
    times, xs, ys, merge_time, sep = out
    return PairTrajectory(times=times, z=xs, z_prime=ys, merge_time=merge_time,
                          mean_separation=sep, mode=mode, **extra)


def _drift_step(drift: Callable, x: np.ndarray, dt: float) -> np.ndarray:
    """x + drift(x) dt as a new array, summed in place when the drift has
    the shape and dtype of x (addition commutes, so the bits agree)."""
    out = drift(x) * dt
    if type(out) is not np.ndarray or out.shape != x.shape or out.dtype != x.dtype:
        return x + out
    out += x
    return out


def _add_noise(x: np.ndarray, noise: np.ndarray, nd: int) -> np.ndarray:
    """x with ``noise`` added in place to its trailing columns from ``nd`` on."""
    if nd:
        x[:, nd:] += noise
    else:
        x += noise
    return x


def _sum_rows(p: np.ndarray) -> np.ndarray:
    """The sum over axis -2 of a (..., d, m) array, bit for bit as numpy's
    row reduction adds each length-d column: below 8 terms in order,
    starting from +0.0 (so a sum is never -0.0); from 8 terms on pairwise,
    over the contiguous copy."""
    d = p.shape[-2]
    if d >= 8:
        return np.sum(np.ascontiguousarray(np.swapaxes(p, -1, -2)), axis=-1)
    s = p[..., 0, :] + 0.0
    for j in range(1, d):
        s += p[..., j, :]
    return s


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sum(a * b, axis=-1)`` of two (n, d) arrays, bit for bit."""
    return _sum_rows((a * b).T)


def _row_norm(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)`` of an (n, d) array, bit for bit."""
    return np.sqrt(_row_dot(a, a))


def _active_rows(active: np.ndarray):
    """``(idx, rows)`` of the active pairs, ``rows(a)`` taking their rows of
    a, or None when no pair is active.  idx is a slice when every pair is:
    then rows are views and nothing is gathered."""
    if active.all():
        return slice(None), lambda a: a
    if not active.any():
        return None
    # take() gathers rows several times faster than a[idx] for d > 1
    idx = np.flatnonzero(active)
    return idx, lambda a: a.take(idx, axis=0)


def _put_rows(a: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``a[idx] = rows`` for the rows idx of an (n, d) array.  On a C-ordered
    a the rows are written as the items of one-dimensional row views, which
    numpy assigns several times faster than a 2-d a[idx]."""
    if not a.flags.c_contiguous:
        a[idx] = rows
        return
    row = np.dtype((np.void, a.itemsize * a.shape[1]))
    rows = np.ascontiguousarray(rows, dtype=a.dtype)
    a.view(row).reshape(-1)[idx] = rows.view(row).reshape(-1)


def _with_rows(x: np.ndarray, idx, rows: np.ndarray) -> np.ndarray:
    """A copy of x whose rows idx are ``rows`` (``rows`` itself when idx is
    the full slice)."""
    if isinstance(idx, slice):
        return rows
    out = x.copy()
    _put_rows(out, idx, rows)
    return out


def _em_step(sys_: SdeSystem, cfg: SimConfig, channel: int) -> Callable:
    """x <- x + drift(x) dt + (scale sqrt(dt)) xi on the noise block."""
    nd = sys_.dim - sys_.noise_dim
    scale = sys_.noise_scale * math.sqrt(cfg.dt)
    drift, dt, seed, noise_dim = sys_.drift, cfg.dt, cfg.seed, sys_.noise_dim

    def step(k, x, y, active):
        xi = noise_normals(seed, k, channel, (x.shape[0], noise_dim))
        xi *= scale
        return _add_noise(_drift_step(drift, x, dt), xi, nd), y, None

    return step


def _em_two_level_step(sys_: SdeSystem, cfg: SimConfig, channel: int) -> Callable:
    """Step k of a fine copy x at dt/2 and a coarse copy y at dt = cfg.dt
    on one Brownian path: x takes the normals of fine steps 2k and 2k + 1
    (x is then bit for bit ``em_path`` at dt/2), y takes their sum."""
    nd, h, drift = sys_.dim - sys_.noise_dim, 0.5 * cfg.dt, sys_.drift
    scale = sys_.noise_scale * math.sqrt(h)

    def step(k, x, y, active):
        shape = (x.shape[0], sys_.noise_dim)
        xi = [noise_normals(cfg.seed, 2 * k + i, channel, shape) for i in (0, 1)]
        dw = xi[0] + xi[1]
        dw *= scale
        for z in xi:
            z *= scale
            x = _add_noise(_drift_step(drift, x, h), z, nd)
        return x, _add_noise(_drift_step(drift, y, cfg.dt), dw, nd), None

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
    times, xs, *_ = _integrate(cfg, _em_step(sys_, cfg, channel), x,
                               record_every=record_every)
    return Trajectory(times=times, states=xs)


def _merge_tol_effective(cfg: SimConfig, x0: np.ndarray, y0: np.ndarray) -> np.ndarray:
    return cfg.merge_tol * (1.0 + np.linalg.norm(x0 - y0, axis=-1))


def synchronous_pair(
    model, x0, y0, cfg: SimConfig, n_paths: int = 1, record_every: int = 1, *,
    keep_states: bool = True,
) -> PairTrajectory:
    """Both copies driven by identical noise increments; a merged pair steps
    only its first copy.  ``keep_states=False`` records only the first and
    last states (see :class:`PairTrajectory`)."""
    sys_ = system_of(model)
    x = _as_batch(x0, n_paths, sys_.dim)
    y = _as_batch(y0, n_paths, sys_.dim)
    tol = _merge_tol_effective(cfg, x, y)
    nd = sys_.dim - sys_.noise_dim
    scale = sys_.noise_scale * math.sqrt(cfg.dt)
    drift, dt = sys_.drift, cfg.dt

    def step(k, x, y, active):
        noise = noise_normals(cfg.seed, k, CH_MAIN, (n_paths, sys_.noise_dim))
        noise *= scale
        x_new = _add_noise(_drift_step(drift, x, dt), noise, nd)
        hit = np.zeros(n_paths, dtype=bool)
        sel = _active_rows(active)
        if sel is None:
            return x_new, x_new.copy(), hit
        idx, rows = sel
        y_act = _add_noise(_drift_step(drift, rows(y), dt), rows(noise), nd)
        hit[idx] = _row_norm(rows(x_new) - y_act) <= rows(tol)
        return x_new, _with_rows(x_new, idx, y_act), hit

    out = _integrate(cfg, step, x, y, record_every=record_every, tol=tol,
                     keep_states=keep_states)
    return _pair_trajectory(out, "synchronous")


def _unit_or_e1(delta: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """delta/|delta| row by row, given norm = |delta|, with the convention
    (1, 0, ..., 0) at delta = 0."""
    if (norm > 0.0).all():              # a nan norm fails this test
        return delta / norm[:, None]
    e = np.zeros_like(delta)
    e[:, 0] = 1.0
    return np.divide(delta, norm[:, None], out=e, where=norm[:, None] > 0.0)


def _radial_step(model: EllipticModel, cfg: SimConfig, cross_tol: np.ndarray,
                 second: Callable) -> Callable:
    """One step of an elliptic pair.  Only the active (unmerged) pairs move
    their second copy, by ``second(idx, y, dB, e)``: ``idx`` indexes their
    rows (a slice when every pair is active), y and dB are those rows and e
    their unit separation before the step.  A merged second copy is set to
    the first.  An active pair hits when the radial coordinate of the new
    difference crosses zero or the separation falls below ``cross_tol``."""
    sqdt = math.sqrt(cfg.dt)

    def step(k, x, y, active):
        dB = noise_normals(cfg.seed, k, CH_MAIN, x.shape)
        dB *= sqdt
        x_new = _drift_step(model.drift, x, cfg.dt)
        x_new += model.sigma * dB
        hit = np.zeros(x.shape[0], dtype=bool)
        sel = _active_rows(active)
        if sel is None:
            return x_new, x_new.copy(), hit
        idx, rows = sel
        delta = rows(x) - rows(y)
        e = _unit_or_e1(delta, _row_norm(delta))
        y_act = second(idx, rows(y), rows(dB), e)
        delta_new = rows(x_new) - y_act
        radial = _row_dot(e, delta_new)
        # a non-finite difference (radial -inf or nan) is no crossing: merging
        # would overwrite the diverged copy before the finiteness check sees it
        crossed = (radial <= 0.0) & (radial > -np.inf)
        hit[idx] = crossed | (_row_norm(delta_new) <= rows(cross_tol))
        return x_new, _with_rows(x_new, idx, y_act), hit

    return step


def reflection_pair(
    model: EllipticModel, x0, y0, cfg: SimConfig, n_paths: int = 1, record_every: int = 1,
    *, keep_states: bool = True,
) -> PairTrajectory:
    """Reflection coupling for an elliptic diffusion.

    The second copy is driven by (1 - 2 e e^T) dB with e the unit
    separation; the pair is declared merged when the signed radial
    coordinate of the updated difference crosses zero or the separation
    falls below the merge tolerance, and is advanced synchronously after.
    ``keep_states=False`` records only the first and last states and rc.
    """
    if not isinstance(model, EllipticModel):
        raise TypeError("reflection coupling requires an elliptic model")
    b, sigma = model.drift, model.sigma
    x = _as_batch(x0, n_paths, model.d)
    y = _as_batch(y0, n_paths, model.d)
    tol = _merge_tol_effective(cfg, x, y)

    def reflected(idx, y, dB, e):
        refl = dB - 2.0 * e * _row_dot(e, dB)[:, None]
        y_new = _drift_step(b, y, cfg.dt)
        y_new += sigma * refl
        return y_new

    out = _integrate(cfg, _radial_step(model, cfg, tol, reflected), x, y,
                     record_every=record_every, tol=tol, keep_states=keep_states)
    times, merge_time = out[0], out[3]
    if not keep_states:
        times = times[[0, -1]]
    # a pair reflects until it merges and is synchronous from then on
    return _pair_trajectory(out, "reflection",
                            rc=np.where(merge_time <= times[:, None], 0.0, 1.0))


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
    xi_dt = xi_drift * cfg.dt

    def drifted(idx, y, dB, e):
        ito[idx] += _row_dot(e, dB)
        y_new = _drift_step(b, y, cfg.dt)
        y_new += sigma * dB
        y_new += xi_dt[idx][:, None] * e
        return y_new

    out = _integrate(cfg, _radial_step(model, cfg, cross_tol, drifted), x, y,
                     record_every=record_every, tol=tol, accumulators=(ito,))
    merge_time = out[3]
    tau = np.where(np.isnan(merge_time), cfg.n_steps * cfg.dt, merge_time)
    logw = -(xi_drift / sigma) * ito - xi_drift**2 * tau / (2.0 * sigma**2)
    return _pair_trajectory(out, "harnack", girsanov_logw=logw)


def _ramp(t: np.ndarray, trig: Callable, at_one: float) -> np.ndarray:
    """trig(pi/2 clip(t, 0, 1)), and ``at_one`` exactly where t >= 1."""
    return np.where(t >= 1.0, at_one, trig(0.5 * np.pi * np.clip(t, 0.0, 1.0)))


def rc_profile(r: np.ndarray, dq_norm: np.ndarray, r0: float, n_smooth: float) -> np.ndarray:
    """Reflection weight rc_n(r, |dq|): 0 when r >= r0 + 1/n or |dq| <= 1/n,
    1 when r <= r0 and |dq| >= 2/n, quarter-cosine ramps in between."""
    return _rc_mixed(r, dq_norm, r0, n_smooth)[0]


_NO_ENTRIES = np.empty(0, dtype=np.intp)


def _rc_mixed(r, dq_norm, r0: float, n_smooth: float) -> tuple[np.ndarray, np.ndarray]:
    """``rc_profile`` and the indices of its entries that lie strictly
    inside (0, 1) or are nan: the pairs whose coupling mixes in B''."""
    r = np.asarray(r, dtype=float)
    dq_norm = np.asarray(dq_norm, dtype=float)
    if math.isinf(n_smooth):
        return np.where((r <= r0) & (dq_norm > 0.0), 1.0, 0.0), _NO_ENTRIES
    # u = (r - r0) n and w = |dq| n - 1 in one buffer, compared once with
    # each ramp end; a nan entry lies at neither end, so it is on a ramp
    uw = np.empty((2,) + np.broadcast_shapes(r.shape, dq_norm.shape))
    u, w = uw[0, ...], uw[1, ...]      # views, 0-d ones too
    np.multiply(np.subtract(r, r0, out=u), n_smooth, out=u)
    np.subtract(np.multiply(dq_norm, n_smooth, out=w), 1.0, out=w)
    low, high = uw <= 0.0, uw >= 1.0
    ends = low | high
    # off the ramps rc is 0 or 1 (cos 0 = 1 and sin 0 = 0 exactly); the
    # few entries on a ramp, or nan, are evaluated in full
    rc = np.where(low[0] & high[1], 1.0, 0.0)
    off = ends[0] & ends[1]
    if off.all():
        return rc, _NO_ENTRIES
    on_ramp = ~off
    ramp = _ramp(u[on_ramp], np.cos, 0.0) * _ramp(w[on_ramp], np.sin, 1.0)
    rc[on_ramp] = ramp
    return rc, np.flatnonzero(on_ramp)[~((ramp == 0.0) | (ramp == 1.0))]


def kinetic_coupled_pair(
    model: KineticModel,
    table: MetricTable,
    params: MetricParams,
    z0,
    z0_prime,
    cfg: SimConfig,
    n_paths: int = 1,
    record_every: int = 1,
    *,
    keep_states: bool = True,
) -> PairTrajectory:
    """Reflection-synchronous coupling for a unit-friction kinetic diffusion
    (see :func:`~nesslsi.models.normalize_kinetic`).

    Both copies follow dX = V dt, dV = (-V - KX + g(X,V)) dt + sqrt(2) dB'.
    The second copy's Brownian is assembled from the main noise B and an
    independent B'' through the mixing weights rc/sc evaluated on
    (r, |dq|) = (theta |dx| + |dq|, |dx + dv|), reflecting across the unit
    q-separation.  The reassembled B' is again a Brownian motion, so the
    marginal law of the second copy is exact.  B'' is drawn (for every path)
    only on the steps where it enters, those that start with some rc
    strictly inside (0, 1) or nan, and mixed in only on those pairs.  A step
    that starts with every pair at r >= r0 + 1/n, where rc is 0, is
    synchronous (dB' = dB) without computing rc or the unit vector.
    ``keep_states=False`` records only the first and last states and rc.
    """
    if model.gamma != 1.0:
        raise ValueError("kinetic coupling runs on the normalized (gamma = 1) system")
    if not model.admissible:
        raise ValueError("model fails the admissibility condition 19 L2 <= min(1, k)")
    d, n = model.d, n_paths
    theta, r0, n_smooth, dt = params.theta, params.r0, cfg.n_smooth, cfg.dt
    sq2, sqdt = math.sqrt(2.0), math.sqrt(dt)
    # both copies in one Fortran-ordered state, the first copies in rows
    # [0, n); the step computes on its transpose (see the module docstring)
    state = np.empty((2 * n, 2 * d), order="F")
    state[:n] = _as_batch(z0, n, 2 * d)
    state[n:] = _as_batch(z0_prime, n, 2 * d)

    # rc is 0 on every pair with r >= r0 + 1/n: a step that starts with all
    # of them there is synchronous, and needs neither e nor the ramps
    no_rc = np.zeros(n)

    def weights(st):
        """rc, the indices of its mixed entries and the unit q-separation e,
        (d, n), of the transposed state; e is None when rc is 0 throughout."""
        delta = st[:, :n] - st[:, n:]
        delta[d:] += delta[:d]          # rows dx, then dq = dx + dv
        dxn, dqn = np.sqrt(_sum_rows((delta * delta).reshape(2, d, n)))
        r = theta * dxn + dqn
        # u = (r - r0) n is monotone in r, so u >= 1 on every pair when it is
        # on the smallest r; a nan r fails the test
        if (r.min() - r0) * n_smooth >= 1.0:
            return no_rc, _NO_ENTRIES, None
        return *_rc_mixed(r, dqn, r0, n_smooth), _unit_or_e1(delta[d:].T, dqn).T

    # the weights of the state the next step starts from; the rc of each
    # recorded state is kept, as the rc that the step after it mixes with
    rc, mixed, e = weights(state.T)
    rec = _record_index(cfg.n_steps, record_every)
    recorded, rcs = set((rec if keep_states else rec[-1:]).tolist()), [rc]
    # the velocity increments of both copies, (d, 2n)
    inc = np.empty((d, 2 * n))
    dB, inc_p = inc[:, :n], inc[:, n:]

    def step(k, z, zp, active):
        # z and zp are the two halves of ``state``, which the step advances
        nonlocal state, rc, mixed, e
        np.multiply(noise_normals(cfg.seed, k, CH_MAIN, (n, d)).T, sqdt, out=dB)
        if e is None:
            np.copyto(inc_p, dB)
        else:
            # where rc is 0 or 1 (sc = 1 or 0) the second increment is dB or
            # its reflection dB - 2 e (e . dB), and B'' drops out bit for bit
            # (2 e s and e (2 s) round the same product; where rc < 1 the
            # term is a zero, which leaves dB as it is unless dB is -0.0)
            s2 = _sum_rows(e * dB)
            s2 *= 2.0 * (rc == 1.0)
            np.subtract(dB, e * s2, out=inc_p)
        if mixed.size:
            # the few mixed pairs take the full rc/sc mixing with B''; it is
            # drawn for every path, so that each path keeps its stream
            dBpp = noise_normals(cfg.seed, k, CH_AUX, (n, d)).T.take(mixed, axis=1)
            dBpp *= sqdt
            rc_m, e_m, dB_m = rc[mixed], e.take(mixed, axis=1), dB.take(mixed, axis=1)
            sc_m = np.sqrt(1.0 - rc_m * rc_m)   # rc in [0, 1], and so is 1 - rc^2
            dB_rc = rc_m * dB_m + sc_m * dBpp
            dB_sc = sc_m * dB_m - rc_m * dBpp
            refl_m = dB_rc - 2.0 * e_m * _sum_rows(e_m * dB_rc)
            inc_p[:, mixed] = rc_m * refl_m + sc_m * dB_sc
        np.multiply(inc, sq2, out=inc)
        new = model.control_drift(state)
        new *= dt
        new += state
        new.T[d:] += inc
        state = new
        rc, mixed, e = weights(new.T)
        if k + 1 in recorded:
            rcs.append(rc)
        return new[:n], new[n:], None

    out = _integrate(cfg, step, state[:n], state[n:], record_every=record_every,
                     keep_states=keep_states)
    return _pair_trajectory(out, "kinetic", rc=np.array(rcs))


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
