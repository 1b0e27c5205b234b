"""Batch CLI: scenario configs in, verification reports out.

Subcommands
-----------
constants          evaluate all closed-form constants for a parameter set
verify             run a battery of Monte Carlo estimators against bounds
sweep              repeat one evaluation over a parameter grid
dump-trajectories  write coupled-pair paths as CSV

Exit codes: 0 all checks passed, 1 at least one bound violated (under
sweep, also a grid point the estimator rejected), 2 config error, 3 runtime
abort (partial report written).  Reports echo their config so any number
can be reproduced bit-exactly by re-running from the report.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import __version__
from .constants import (
    constants_report,
    harnack_factor,
    hypercontractivity_bound,
    hypercontractivity_t0,
)
from .estimators import (
    EstimatorDiverged,
    UnstableLogError,
    WeightOverflowError,
    coalescence_probability,
    defective_lsi_check,
    elliptic_fk_system,
    feynman_kac_h,
    harnack_check,
    hypercontractivity_probe,
    lyapunov_expectation,
    mckv_fixed_point,
    w1_contraction,
)
from .metric import QuadratureError, build_metric, metric_constants
from .models import (
    SCENARIOS,
    KineticModel,
    make_scenario,
    normalize_kinetic,
    probe_one_sided_condition,
)
from .simulate import (
    SimConfig,
    SimulationBlowUp,
    _horizon_steps,
    harnack_pair,
    kinetic_coupled_pair,
    pair_to_csv_rows,
    reflection_pair,
    synchronous_pair,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


class ConfigError(ValueError):
    pass


# Errors that end a run midway: verify and sweep record them per estimator,
# and anywhere else they exit 3.
_RUNTIME_ABORTS = (EstimatorDiverged, UnstableLogError, WeightOverflowError,
                   SimulationBlowUp, FloatingPointError, QuadratureError)

_TOP_KEYS = {
    "scenario", "model", "sim", "coupling", "estimators", "constants",
    "metric", "sweep", "out_dir", "pair", "n_paths",
}
_OBJECT_KEYS = ("sim", "model", "constants", "metric", "estimators", "sweep", "pair")
_DUMP_KEYS = ("coupling", "n_paths", "pair")     # the top-level keys of dump-trajectories


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in _OBJECT_KEYS:
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"{key!r} must be a JSON object")
    for name, params in cfg.get("estimators", {}).items():
        if not isinstance(params, dict):
            raise ConfigError(f"estimator {name!r}: parameters must be a JSON object")
    return cfg


# Initial points (x0, y0) of a coupled pair, given in a config as
# {"x0": [...], "y0": [...]} with one entry per state coordinate.
Pair = tuple[np.ndarray, np.ndarray]


def _check_block(fn, block: dict, where: str, dim: int | None = None) -> dict:
    """Check a config block against the parameters of ``fn`` that can be
    given by keyword (their names, annotations and defaults) and return the
    keyword arguments for ``fn``, defaults included.  Numbers given for a
    ``float`` become floats; a ``Pair`` needs ``dim`` entries per point."""
    schema = {
        name: p for name, p in inspect.signature(fn, eval_str=True).parameters.items()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    }
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [name for name, p in schema.items() if p.default is p.empty and name not in block]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    kwargs = {name: p.default for name, p in schema.items() if p.default is not p.empty}
    for key, value in block.items():
        kwargs[key] = _check_value(value, schema[key].annotation, f"{where}.{key}", dim)
    return kwargs


def _check_value(value, ann, where: str, dim: int | None):
    if type(None) in get_args(ann):             # X | None
        if value is None:
            return None
        ann = get_args(ann)[0]
    if ann == Pair:
        if not isinstance(value, dict) or set(value) != {"x0", "y0"}:
            raise ConfigError(f'{where}: expected {{"x0": [...], "y0": [...]}}, got {value!r}')
        points = [_check_value(value[k], list[float], f"{where}.{k}", dim) for k in ("x0", "y0")]
        if any(len(p) != dim for p in points):
            raise ConfigError(f"{where}: x0 and y0 need {dim} entries each")
        return tuple(np.asarray(p, dtype=float) for p in points)
    if get_origin(ann) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        (item,) = get_args(ann)
        return [_check_value(v, item, f"{where}[{i}]", dim) for i, v in enumerate(value)]
    # bool is an int subclass, but no config value is a bool
    if ann is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, ann) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected {ann.__name__}, got {value!r}")
    return value


def _check_kind(what: str, kind: str, model) -> None:
    """Raise unless ``model`` is of the scenario kind that ``what`` runs on
    (``elliptic``, ``kinetic``, ``competition``, or ``none`` for any)."""
    if kind == "none":
        return
    if model is None:
        raise ConfigError("config needs a 'scenario' entry")
    have = ("kinetic" if isinstance(model, KineticModel)
            else "competition" if isinstance(model, dict) else "elliptic")
    if have != kind:
        raise ConfigError(f"{what} runs on {kind} scenarios, not on {have} ones")


def _state_dim(model) -> int | None:
    """Coordinates of one state: d for an elliptic model, 2d for a kinetic one."""
    return 2 * model.d if isinstance(model, KineticModel) else getattr(model, "d", None)


def _build(fn, block: dict, where: str, make=None):
    """``make`` (by default ``fn``) called with the keyword arguments that
    ``_check_block`` makes of ``block`` for ``fn``; a ValueError it raises
    is a config error."""
    kwargs = _check_block(fn, block, where)
    try:
        return (make or fn)(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad {where} config: {exc}") from exc


def _sim_config(cfg: dict, seed_override: int | None) -> SimConfig:
    sim = {"dt": 1e-3, "t_final": 2.0, "seed": 0, **cfg.get("sim", {})}
    if seed_override is not None:
        sim["seed"] = seed_override
    if sim.get("n_smooth") is None:
        sim.pop("n_smooth", None)
    return _build(SimConfig, sim, "sim")


def _model_from(cfg: dict):
    """The model of the config's scenario, or None when it names none."""
    name = cfg.get("scenario")
    if name is None:
        if "model" in cfg:
            raise ConfigError("a 'model' block needs a 'scenario' entry")
        return None
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    # through this module's make_scenario, so that replacing it (to trace) takes effect
    return _build(SCENARIOS[name], cfg.get("model", {}), "model",
                  lambda **kwargs: make_scenario(name, kwargs))


def _finite(obj, pointer: str, replaced: dict):
    """obj with every non-finite float replaced by None; ``replaced`` maps
    the JSON Pointer (RFC 6901) of each replaced value to its repr."""
    if isinstance(obj, dict):
        return {k: _finite(v, f"{pointer}/{str(k).replace('~', '~0').replace('/', '~1')}",
                           replaced) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v, f"{pointer}/{i}", replaced) for i, v in enumerate(obj)]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        replaced[pointer] = repr(float(obj))
        return None
    return obj


def _strict(payload: dict) -> dict:
    """payload with every non-finite number (which JSON cannot hold) as
    null, and the top-level ``non_finite`` key, present only then, mapping
    the path of each to the value it had."""
    replaced = {}
    payload = _finite(payload, "", replaced)
    if replaced:
        payload["non_finite"] = replaced
    return payload


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    """Write payload as strict JSON (see ``_strict``)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(_strict(payload), indent=2, sort_keys=True, default=float,
                               allow_nan=False))
    return path


def _write_csv(out_dir: Path, name: str, header: list[str], rows) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _metric_block(
    *, k_matrix: list[list[float]], lip_inner: float = 0.0, lip_outer: float = 0.0,
    radius: float = 0.0, quad_tol: float = 1e-10, n_smooth: float | None = None,
):
    """The metric table of a ``metric`` block, which carries its constants;
    ``n_smooth`` None is the limiting construction."""
    params = metric_constants(np.asarray(k_matrix, dtype=float), lip_inner, lip_outer, radius)
    return build_metric(params, quad_tol=quad_tol,
                        n_smooth=math.inf if n_smooth is None else n_smooth)


def cmd_constants(cfg: dict, checked: dict, out_dir: Path) -> int:
    report: dict = {"config": cfg, "versions": _versions()}
    rep, table = checked["constants"], checked.get("metric")
    if rep is not None:
        report["constants"] = rep.to_json()
        grid = []
        k_w = rep.L * rep.R
        for t in (0.5, 1.0, 2.0):
            for dist in (0.5, 1.0):
                grid.append({
                    "t": t, "dist": dist, "alpha": 2.0,
                    "factor": harnack_factor(k_w, rep.sigma, 2.0, t, dist),
                })
        report["harnack_factors"] = grid
        t0, hyper = hypercontractivity_bound(
            rep.L, rep.rho, rep.R, rep.sigma, rep.d, 2.0, 3.0, 2.0 * rep.t0
        )
        report["hypercontractivity"] = {"alpha": 2.0, "beta": 3.0, "t0": t0,
                                        "bound_at_2t0": hyper}
    if table is not None:
        report["metric"] = {
            "params": table.params.to_json(),
            "kappa1": table.kappa1,
            "eps": table.eps,
            "kappa": table.kappa,
            "c1": table.c1,
            "c2": table.c2,
        }
    _write_json(out_dir, "constants_report.json", report)
    print(json.dumps(_strict({k: report[k] for k in report if k != "config"}), indent=2,
                     default=float, allow_nan=False))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimators: one runner each, model and sim first, the block's keys after
# ---------------------------------------------------------------------------


def _default_pair(dim: int) -> Pair:
    return np.eye(dim)[0], np.zeros(dim)


def _kinetic_metric(model: KineticModel, sim: SimConfig):
    """The unit-friction model that the kinetic coupling simulates, with the
    metric table built from that same model."""
    unit = normalize_kinetic(model)
    params = metric_constants(unit.k_matrix, unit.lip_inner, unit.lip_outer, unit.radius)
    return unit, build_metric(params, n_smooth=sim.n_smooth)


def _run_one_sided(model, sim, /, *, n_pairs: int = 4096) -> dict:
    rep = probe_one_sided_condition(model, n_pairs, seed=sim.seed)
    return {"max_ratio_outside": rep.max_ratio_outside,
            "max_ratio_inside": rep.max_ratio_inside, "flag": not rep.violated}


def _run_w1(kind: str, model, sim, /, *, n_paths: int = 2000,
            pair: Pair | None = None) -> dict:
    x0, y0 = pair or _default_pair(model.d)
    rep = w1_contraction(kind, model, x0, y0, sim, n_paths=n_paths)
    return {"fit": rep.fit.to_json(), "flag": None,
            "series": {"times": rep.times.tolist(), "mean_dist": rep.mean_dist.tolist()}}


_run_w1_synchronous = partial(_run_w1, "synchronous")
_run_w1_reflection = partial(_run_w1, "reflection")


def _run_w1_kinetic(model, sim, /, *, n_paths: int = 2000, pair: Pair | None = None,
                    slack: float = 0.10) -> dict:
    unit, table = _kinetic_metric(model, sim)
    x0, y0 = pair or _default_pair(2 * model.d)
    rep = w1_contraction("kinetic", unit, x0, y0, sim, n_paths=n_paths, table=table, slack=slack)
    return {"fit": rep.fit.to_json(), "flag": rep.envelope_ok, "rho0": rep.rho0}


def _run_coalescence(model, sim, /, *, n_paths: int = 4000,
                     pair: Pair | None = None) -> dict:
    x0, y0 = pair or _default_pair(model.d)
    rep = coalescence_probability(model, x0, y0, sim, n_paths=n_paths)
    return {"flag": rep.envelope_ok, "envelope_factor": rep.envelope_factor,
            "series": {"times": rep.times.tolist(), "survival": rep.survival.tolist()}}


def _run_lyapunov(model, sim, /, *, delta: float | None = None, n_replicas: int = 64,
                  samples_per_replica: int = 200) -> dict:
    if delta is None:
        delta = model.rho / 8.0
    est = lyapunov_expectation(model, delta, sim, n_replicas=n_replicas,
                               samples_per_replica=samples_per_replica)
    return {"estimate": est.to_json(), "flag": est.passed, "delta": delta}


def _run_harnack(model, sim, /, *, alpha: float = 2.0, t: float = 1.0, n_paths: int = 4000,
                 clip: float = math.exp(3.0), pair: Pair | None = None) -> dict:
    x0, y0 = pair or _default_pair(model.d)
    f = lambda s: np.minimum(np.exp(s[..., 0]), clip)
    chk = harnack_check(model, f, alpha, x0, y0, t, n_paths, sim)
    return {"check": chk.to_json(), "flag": chk.ok}


def _run_fk_const(model, sim, /, *, c: float = 0.5, t: float = 1.0,
                  n_paths: int = 256) -> dict:
    sys_ = elliptic_fk_system(lambda s: -s, lambda s: np.full(s.shape[:-1], c), model.d)
    est = feynman_kac_h(sys_, np.zeros(model.d), t, n_paths, sim)
    target = math.exp(c * _horizon_steps(t, sim.dt) * sim.dt)
    return {"estimate": est.to_json(), "target": target,
            "flag": bool(abs(est.value - target) <= 1e-9 + 3.0 * est.stderr)}


def _run_defective_lsi(model, sim, /, *, n_replicas: int = 32,
                       samples_per_replica: int = 200) -> dict:
    from .constants import defective_lsi_constants

    A, B = defective_lsi_constants(model.lip, model.rho, model.sigma, model.d, model.radius)
    f = lambda s: 1.0 + 0.1 * np.sin(s[..., 0])
    grad_f = lambda s: np.concatenate(
        [0.1 * np.cos(s[..., :1]), np.zeros_like(s[..., 1:])], axis=-1
    )
    chk = defective_lsi_check(model, f, grad_f, A, B, sim, n_replicas=n_replicas,
                              samples_per_replica=samples_per_replica)
    return {"check": chk.to_json(), "A": A, "B": B, "flag": chk.ok}


def _run_hypercontractivity(model, sim, /, *, c: float = 0.5, alpha: float = 2.0,
                            beta: float = 3.0, t: float | None = None, n_outer: int = 128,
                            n_inner: int = 1024) -> dict:
    t0 = hypercontractivity_t0(model.sigma, model.rho, alpha, beta)
    probe = hypercontractivity_probe(
        model, lambda s: np.exp(c * s[..., 0]), alpha, beta, 2.0 * t0 if t is None else t,
        n_outer=n_outer, n_inner=n_inner, cfg=sim,
    )
    return {"probe": probe.to_json(), "flag": probe.ok}


def _run_mckv(model, sim, /, *, n_particles: int = 256, n_iters: int = 4,
              c_prime: float = 5.0) -> dict:
    rep = mckv_fixed_point(model["kernel"], model["grad_v"], model["lam"],
                           n_particles=n_particles, n_iters=n_iters, cfg=sim,
                           c_prime=c_prime)
    return {"report": rep.to_json(), "flag": rep.probe_ok and rep.converged}


def _run_hyper_bound(model, sim, /, *, L: float, rho: float, R: float, sigma: float,
                     d: int, t: float, alpha: float = 2.0, beta: float = 3.0) -> dict:
    t0, bound = hypercontractivity_bound(L, rho, R, sigma, d, alpha, beta, t)
    return {"t0": t0, "bound": bound, "flag": None}


# Estimator name -> (scenario kind it runs on, runner).  A runner's keyword
# parameters are the schema of the estimator's config block.  Runners reach
# the estimator functions through this module's globals, so that replacing
# one there (to time or trace it) takes effect.
_ESTIMATORS = {
    "one_sided": ("elliptic", _run_one_sided),
    "w1_synchronous": ("elliptic", _run_w1_synchronous),
    "w1_reflection": ("elliptic", _run_w1_reflection),
    "w1_kinetic": ("kinetic", _run_w1_kinetic),
    "coalescence": ("elliptic", _run_coalescence),
    "lyapunov": ("elliptic", _run_lyapunov),
    "harnack": ("elliptic", _run_harnack),
    "fk_const": ("elliptic", _run_fk_const),
    "defective_lsi": ("elliptic", _run_defective_lsi),
    "hypercontractivity": ("elliptic", _run_hypercontractivity),
    "mckv": ("competition", _run_mckv),
    "hyper_bound": ("none", _run_hyper_bound),
}


def _estimator_kwargs(name: str, params: dict, model) -> dict:
    """Check one estimator block against the table; return the runner's
    keyword arguments."""
    if name not in _ESTIMATORS:
        raise ConfigError(f"unknown estimator {name!r}")
    kind, runner = _ESTIMATORS[name]
    _check_kind(f"estimator {name}", kind, model)
    return _check_block(runner, params, name, _state_dim(model))


def _exit_code(records: list[dict]) -> int:
    """Exit 3 if a record was aborted at runtime, else 1 if a checked flag
    is False, else 0."""
    if any(r.get("aborted") for r in records):
        return EXIT_ABORT
    return EXIT_VIOLATION if any(r.get("flag") is False for r in records) else EXIT_OK


def _run_jobs(jobs, model, sim: SimConfig, threads: int, rejects: tuple = ()) -> list[dict]:
    """The records of the (name, params, runner kwargs) ``jobs``, in order,
    run on ``threads`` worker threads; each has a tri-state flag (True/False
    = checked against a bound, None = informational).  A runtime abort is
    recorded with ``"aborted": true``, an exception in ``rejects`` without
    it, and any other ValueError (an argument the estimator rejects) is a
    config error."""

    def run(job):
        name, params, kwargs = job
        try:
            return {"estimator": name, "params": params,
                    **_ESTIMATORS[name][1](model, sim, **kwargs)}
        except _RUNTIME_ABORTS + rejects as exc:
            rec = {"estimator": name, "params": params, "flag": False,
                   "error": f"{type(exc).__name__}: {exc}"}
            if isinstance(exc, _RUNTIME_ABORTS):
                rec["aborted"] = True
            return rec
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run, jobs))


def cmd_verify(cfg: dict, checked: dict, out_dir: Path, threads: int) -> int:
    sim, model, constants, jobs = (checked[k] for k in ("sim", "model", "constants", "jobs"))
    t_start = time.perf_counter()
    records = _run_jobs(jobs, model, sim, threads)

    flags = {r["estimator"]: r.get("flag") for r in records}
    checked = [v for v in flags.values() if v is not None]
    report = {
        "config": cfg,
        "versions": _versions(),
        "records": records,
        "summary": {
            "flags": flags,
            "n_checked": len(checked),
            "n_failed": sum(1 for v in checked if not v),
        },
        "wall_clock_s": time.perf_counter() - t_start,
    }
    if constants is not None:
        report["constants"] = constants.to_json()
    _write_json(out_dir, "verify_report.json", report)
    for r in records:
        series = r.get("series")
        if series:
            cols = list(series)
            rows = zip(*(series[c] for c in cols))
            _write_csv(out_dir, f"{r['estimator']}_series.csv", cols, rows)
    words = {True: "pass", False: "FAIL", None: "info"}
    for r in records:
        print(f"{'ABORT' if r.get('aborted') else words[r.get('flag')]:5s}  {r['estimator']}")
    return _exit_code(records)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _sweep_points(cfg: dict, model, /, *, estimator: str, parameter: str,
                  values: list) -> list[tuple]:
    """The (name, params, runner kwargs) job of each grid point of a
    ``sweep`` block, each point checked as an estimator block of ``verify`` is."""
    if not values:
        raise ConfigError("sweep grid is empty")
    base = cfg.get("estimators", {}).get(estimator, {})
    points = []
    for value in values:
        params = {**base, parameter: value}
        points.append((estimator, params, _estimator_kwargs(estimator, params, model)))
    return points


def cmd_sweep(cfg: dict, checked: dict, out_dir: Path, threads: int) -> int:
    sim, model, sweep, points = (checked[k] for k in ("sim", "model", "sweep", "points"))
    name = sweep["estimator"]
    # a grid point the estimator rejects or aborts is recorded, and the sweep goes on
    records = _run_jobs(points, model, sim, threads, rejects=(ValueError,))
    for rec, value in zip(records, sweep["values"]):
        rec["sweep_value"] = value

    report = {"config": cfg, "versions": _versions(), "records": records}
    _write_json(out_dir, "sweep_report.json", report)
    rows = []
    for rec in records:
        rows.append([
            rec["sweep_value"],
            rec.get("flag"),
            rec.get("bound", rec.get("estimate", {}).get("value") if isinstance(rec.get("estimate"), dict) else None),
            rec.get("error", ""),
        ])
    _write_csv(out_dir, "sweep_summary.csv",
               [sweep["parameter"], "flag", "value", "error"], rows)
    print(f"sweep of {name} over {len(points)} values written to {out_dir}")
    return _exit_code(records)


# ---------------------------------------------------------------------------
# trajectory dump
# ---------------------------------------------------------------------------


def _trajectories(model, sim, /, *, coupling: str = "reflection", n_paths: int = 4,
                  pair: Pair | None = None):
    """Paths of a coupled pair, from the config's top-level ``coupling``,
    ``n_paths`` and ``pair``, recorded at about 500 times."""
    every = max(sim.n_steps // 500, 1)
    x0, y0 = pair or _default_pair(_state_dim(model))
    if coupling == "kinetic":
        unit, table = _kinetic_metric(model, sim)
        return kinetic_coupled_pair(unit, table, table.params, x0, y0, sim, n_paths=n_paths,
                                    record_every=every)
    if coupling == "harnack":
        return harnack_pair(model, x0, y0, sim, k_w=model.lip * model.radius,
                            n_paths=n_paths, record_every=every)
    fn = synchronous_pair if coupling == "synchronous" else reflection_pair
    return fn(model, x0, y0, sim, n_paths=n_paths, record_every=every)


def _dump_kwargs(cfg: dict, model) -> dict:
    """The keyword arguments of ``_trajectories`` from the config's
    top-level ``coupling``, ``n_paths`` and ``pair``."""
    if model is None:
        raise ConfigError("config needs a 'scenario' entry")
    block = {key: cfg[key] for key in _DUMP_KEYS if key in cfg}
    kwargs = _check_block(_trajectories, block, "dump-trajectories", _state_dim(model))
    if kwargs["n_paths"] < 1:
        raise ConfigError(f"dump-trajectories: need n_paths >= 1, got {kwargs['n_paths']}")
    coupling = kwargs["coupling"]
    if coupling not in ("synchronous", "reflection", "harnack", "kinetic"):
        raise ConfigError(f"unknown coupling {coupling!r}")
    _check_kind(f"coupling {coupling}", "kinetic" if coupling == "kinetic" else "elliptic", model)
    return kwargs


def cmd_dump(checked: dict, out_dir: Path) -> int:
    rows = pair_to_csv_rows(_trajectories(checked["model"], checked["sim"], **checked["dump"]))
    header = next(rows)
    path = _write_csv(out_dir, "trajectories.csv", header, rows)
    print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# config check
# ---------------------------------------------------------------------------


def _checked_config(command: str, cfg: dict, seed: int | None) -> dict:
    """Check every block of the config, whichever ``command`` reads it, so
    that a bad key or value anywhere is a config error before anything runs.

    Returns the checked form of the blocks: ``sim``, ``model``,
    ``constants`` (the report or None), ``metric`` (the table),
    ``jobs`` ((name, params, runner kwargs) of each estimator block),
    ``sweep`` with its grid's jobs ``points``, and ``dump`` (keyword arguments).
    Under ``sweep`` the swept estimator's block is checked with each grid
    point instead of on its own, since the grid may supply a required key.
    """
    if command == "constants" and "constants" not in cfg and "metric" not in cfg:
        raise ConfigError("constants command needs a 'constants' and/or 'metric' block")
    if command == "verify" and not cfg.get("estimators"):
        raise ConfigError("verify command needs a non-empty 'estimators' block")
    if command == "sweep" and not cfg.get("sweep"):
        raise ConfigError("sweep command needs a 'sweep' block")
    model = _model_from(cfg)
    checked = {"sim": _sim_config(cfg, seed), "model": model, "constants": None}
    for key, fn in (("constants", constants_report), ("metric", _metric_block)):
        if key in cfg:
            checked[key] = _build(fn, cfg[key], key)
    swept = None
    if "sweep" in cfg:
        checked["sweep"] = _check_block(_sweep_points, cfg["sweep"], "sweep")
        checked["points"] = _sweep_points(cfg, model, **checked["sweep"])
        if command == "sweep":
            swept = checked["sweep"]["estimator"]
    checked["jobs"] = [(name, params, _estimator_kwargs(name, params, model))
                       for name, params in cfg.get("estimators", {}).items() if name != swept]
    if command == "dump-trajectories" or any(key in cfg for key in _DUMP_KEYS):
        checked["dump"] = _dump_kwargs(cfg, model)
    return checked


def _versions() -> dict:
    return {"nesslsi": __version__, "numpy": np.__version__}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="nesslsi", description=__doc__)
    parser.add_argument("command",
                        choices=["constants", "verify", "sweep", "dump-trajectories"])
    parser.add_argument("--config", required=True, help="path to a JSON scenario config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the config and exit")
    args = parser.parse_args(argv)

    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, got {args.threads}")
        cfg = _load_config(args.config)
        out_dir = Path(cfg.get("out_dir", args.out))
        checked = _checked_config(args.command, cfg, args.seed)
        if args.dry_run:
            return EXIT_OK
        if args.command == "constants":
            return cmd_constants(cfg, checked, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, checked, out_dir, args.threads)
        if args.command == "sweep":
            return cmd_sweep(cfg, checked, out_dir, args.threads)
        return cmd_dump(checked, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _RUNTIME_ABORTS as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
