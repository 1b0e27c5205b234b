"""Batch CLI: scenario configs in, verification reports out.

Subcommands
-----------
constants          evaluate all closed-form constants for a parameter set
verify             run a battery of Monte Carlo estimators against bounds
sweep              repeat one evaluation over a parameter grid
dump-trajectories  write coupled-pair paths as CSV

Exit codes: 0 all checks passed, 1 at least one bound violated, 2 config
error, 3 runtime abort (partial report written).  Reports echo their config
so any number can be reproduced bit-exactly by re-running from the report.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .constants import ConstantsReport, constants_report, harnack_factor, hypercontractivity_bound
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
from .metric import build_metric, metric_constants
from .models import (
    KineticModel,
    make_scenario,
    normalize_kinetic,
    probe_one_sided_condition,
)
from .simulate import (
    SimConfig,
    SimulationBlowUp,
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


_TOP_KEYS = {
    "scenario", "model", "sim", "coupling", "estimators", "constants",
    "metric", "sweep", "out_dir", "pair", "n_paths",
}
_SIM_KEYS = {"dt", "t_final", "seed", "merge_tol", "n_smooth"}
_OBJECT_KEYS = ("sim", "model", "constants", "metric", "estimators", "sweep", "pair")


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
    if "sim" in cfg:
        bad = set(cfg["sim"]) - _SIM_KEYS
        if bad:
            raise ConfigError(f"unknown sim keys: {sorted(bad)}")
    return cfg


def _sim_config(cfg: dict, seed_override: int | None) -> SimConfig:
    sim = dict(cfg.get("sim", {}))
    sim.setdefault("dt", 1e-3)
    sim.setdefault("t_final", 2.0)
    sim.setdefault("seed", 0)
    if seed_override is not None:
        sim["seed"] = seed_override
    if sim.get("n_smooth") is None:
        sim.pop("n_smooth", None)
    try:
        return SimConfig(**sim)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sim config: {exc}") from exc


def _model_from(cfg: dict):
    name = cfg.get("scenario")
    if name is None:
        raise ConfigError("config needs a 'scenario' entry")
    try:
        return make_scenario(name, cfg.get("model", {}))
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=float))
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


def _constants_from(cfg: dict) -> ConstantsReport | None:
    """The constants report of the config's ``constants`` block, or None
    when it has none; unknown keys and bad values are config errors."""
    if "constants" not in cfg:
        return None
    block = dict(cfg["constants"])
    bad = set(block) - {"L", "rho", "R", "sigma", "d", "alpha_ext", "sup_inner"}
    if bad:
        raise ConfigError(f"unknown constants keys: {sorted(bad)}")
    try:
        return constants_report(
            L=float(block.get("L", 0.0)),
            rho=float(block["rho"]),
            R=float(block.get("R", 0.0)),
            sigma=float(block["sigma"]),
            d=int(block.get("d", 1)),
            alpha_ext=float(block.get("alpha_ext", 1.0)),
            sup_inner=block.get("sup_inner"),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad constants block: {exc}") from exc


def cmd_constants(cfg: dict, out_dir: Path, seed: int | None, dry_run: bool) -> int:
    report: dict = {"config": cfg, "versions": _versions()}
    if "constants" not in cfg and "metric" not in cfg:
        raise ConfigError("constants command needs a 'constants' and/or 'metric' block")
    rep = _constants_from(cfg)
    if dry_run:
        return EXIT_OK
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
    if "metric" in cfg:
        block = dict(cfg["metric"])
        allowed = {"k_matrix", "lip_inner", "lip_outer", "radius", "quad_tol", "n_smooth"}
        bad = set(block) - allowed
        if bad:
            raise ConfigError(f"unknown metric keys: {sorted(bad)}")
        try:
            params = metric_constants(
                np.asarray(block["k_matrix"], dtype=float),
                float(block.get("lip_inner", 0.0)),
                float(block.get("lip_outer", 0.0)),
                float(block.get("radius", 0.0)),
            )
            table = build_metric(
                params,
                quad_tol=float(block.get("quad_tol", 1e-10)),
                n_smooth=(math.inf if block.get("n_smooth") is None
                          else float(block["n_smooth"])),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad metric block: {exc}") from exc
        report["metric"] = {
            "params": params.to_json(),
            "kappa1": table.kappa1,
            "eps": table.eps,
            "kappa": table.kappa,
            "c1": table.c1,
            "c2": table.c2,
        }
    _write_json(out_dir, "constants_report.json", report)
    print(json.dumps({k: report[k] for k in report if k != "config"}, indent=2, default=float))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify battery
# ---------------------------------------------------------------------------


def _pair_points(cfg: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    pair = cfg.get("pair")
    if pair is None:
        x0 = np.zeros(dim)
        x0[0] = 1.0
        return x0, np.zeros(dim)
    return np.asarray(pair["x0"], dtype=float), np.asarray(pair["y0"], dtype=float)


def _kinetic_metric(model: KineticModel, sim: SimConfig):
    """The unit-friction model that the kinetic coupling simulates, with the
    metric constants and table built from that same model."""
    norm = normalize_kinetic(model)
    m = norm.model
    params = metric_constants(m.k_matrix, m.lip_inner, m.lip_outer, m.radius)
    return norm, params, build_metric(params, n_smooth=sim.n_smooth)


def _run_estimator(name: str, params: dict, model, sim: SimConfig, cfg: dict) -> dict:
    """Run one named estimator; returns a record with a tri-state flag
    (True/False = checked against a bound, None = informational)."""
    record: dict = {"estimator": name, "params": params}
    if isinstance(model, KineticModel) and name not in ("w1_kinetic",):
        raise ConfigError(f"estimator {name} requires an elliptic scenario")
    if name == "one_sided":
        rep = probe_one_sided_condition(
            model, int(params.get("n_pairs", 4096)), seed=sim.seed,
        )
        record.update(
            max_ratio_outside=rep.max_ratio_outside,
            max_ratio_inside=rep.max_ratio_inside,
            flag=not rep.violated,
        )
    elif name in ("w1_synchronous", "w1_reflection"):
        x0, y0 = _pair_points(params, model.d)
        rep = w1_contraction(
            name.split("_", 1)[1], model, x0, y0, sim,
            n_paths=int(params.get("n_paths", 2000)),
        )
        record.update(fit=rep.fit.to_json(), flag=None,
                      series={"times": rep.times.tolist(),
                              "mean_dist": rep.mean_dist.tolist()})
    elif name == "w1_kinetic":
        if not isinstance(model, KineticModel):
            raise ConfigError("w1_kinetic needs a kinetic scenario")
        norm, params_m, table = _kinetic_metric(model, sim)
        x0, y0 = _pair_points(params, 2 * model.d)
        rep = w1_contraction(
            "kinetic", norm, x0, y0, sim,
            n_paths=int(params.get("n_paths", 2000)),
            table=table, params=params_m,
            slack=float(params.get("slack", 0.10)),
        )
        record.update(fit=rep.fit.to_json(), flag=rep.envelope_ok, rho0=rep.rho0)
    elif name == "coalescence":
        x0, y0 = _pair_points(params, model.d)
        rep = coalescence_probability(
            model, x0, y0, sim, n_paths=int(params.get("n_paths", 4000))
        )
        record.update(
            flag=rep.envelope_ok,
            envelope_factor=rep.envelope_factor,
            series={"times": rep.times.tolist(), "survival": rep.survival.tolist()},
        )
    elif name == "lyapunov":
        delta = float(params.get("delta", model.rho / 8.0))
        est = lyapunov_expectation(
            model, delta, sim,
            n_replicas=int(params.get("n_replicas", 64)),
            samples_per_replica=int(params.get("samples_per_replica", 200)),
        )
        record.update(estimate=est.to_json(), flag=est.passed, delta=delta)
    elif name == "harnack":
        x0, y0 = _pair_points(params, model.d)
        cap = float(params.get("clip", math.exp(3.0)))
        f = lambda s: np.minimum(np.exp(s[..., 0]), cap)
        chk = harnack_check(
            model, f, float(params.get("alpha", 2.0)), x0, y0,
            float(params.get("t", 1.0)), int(params.get("n_paths", 4000)), sim,
        )
        record.update(check=chk.to_json(), flag=chk.ok)
    elif name == "fk_const":
        c = float(params.get("c", 0.5))
        T = float(params.get("t", 1.0))
        sys_ = elliptic_fk_system(
            lambda s: -s, lambda s: np.full(s.shape[:-1], c), model.d
        )
        est = feynman_kac_h(sys_, np.zeros(model.d), T, int(params.get("n_paths", 256)), sim)
        steps = int(math.ceil(T / sim.dt - 1e-12))
        target = math.exp(c * steps * sim.dt)
        record.update(
            estimate=est.to_json(), target=target,
            flag=bool(abs(est.value - target) <= 1e-9 + 3.0 * est.stderr),
        )
    elif name == "defective_lsi":
        from .constants import defective_lsi_constants

        A, B = defective_lsi_constants(
            model.lip, model.rho, model.sigma, model.d, model.radius
        )
        f = lambda s: 1.0 + 0.1 * np.sin(s[..., 0])
        grad_f = lambda s: np.concatenate(
            [0.1 * np.cos(s[..., :1]), np.zeros_like(s[..., 1:])], axis=-1
        )
        chk = defective_lsi_check(
            model, f, grad_f, A, B, sim,
            n_replicas=int(params.get("n_replicas", 32)),
            samples_per_replica=int(params.get("samples_per_replica", 200)),
        )
        record.update(check=chk.to_json(), A=A, B=B, flag=chk.ok)
    elif name == "hypercontractivity":
        c = float(params.get("c", 0.5))
        alpha = float(params.get("alpha", 2.0))
        beta = float(params.get("beta", 3.0))
        t0, _ = hypercontractivity_bound(
            model.lip, model.rho, model.radius, model.sigma, model.d, alpha, beta,
            t=1e9,
        )
        t = float(params.get("t", 2.0 * t0))
        probe = hypercontractivity_probe(
            model, lambda s: np.exp(c * s[..., 0]), alpha, beta, t,
            n_outer=int(params.get("n_outer", 128)),
            n_inner=int(params.get("n_inner", 1024)),
            cfg=sim,
        )
        record.update(probe=probe.to_json(), flag=probe.ok)
    elif name == "mckv":
        scen = make_scenario("competition", cfg.get("model", {}))
        rep = mckv_fixed_point(
            scen["kernel"], scen["grad_v"], scen["lam"],
            n_particles=int(params.get("n_particles", 256)),
            n_iters=int(params.get("n_iters", 4)),
            cfg=sim,
            c_prime=float(params.get("c_prime", 5.0)),
        )
        record.update(report=rep.to_json(), flag=rep.probe_ok and rep.converged)
    elif name == "hyper_bound":
        t0, bound = hypercontractivity_bound(
            float(params["L"]), float(params["rho"]), float(params["R"]),
            float(params["sigma"]), int(params["d"]),
            float(params.get("alpha", 2.0)), float(params.get("beta", 3.0)),
            float(params["t"]),
        )
        record.update(t0=t0, bound=bound, flag=None)
    else:
        raise ConfigError(f"unknown estimator {name!r}")
    return record


def cmd_verify(cfg: dict, out_dir: Path, seed: int | None, dry_run: bool,
               threads: int) -> int:
    sim = _sim_config(cfg, seed)
    constants = _constants_from(cfg)
    batch = cfg.get("estimators")
    if not batch:
        raise ConfigError("verify command needs a non-empty 'estimators' block")
    if dry_run:
        for name in batch:
            if name not in _ESTIMATOR_NAMES:
                raise ConfigError(f"unknown estimator {name!r}")
        return EXIT_OK
    model = _model_from(cfg) if cfg.get("scenario") != "competition" else None

    t_start = time.perf_counter()
    records = []
    aborted = False

    def run(item):
        name, params = item
        try:
            return _run_estimator(name, params, model, sim, cfg)
        except (EstimatorDiverged, UnstableLogError, WeightOverflowError,
                SimulationBlowUp, FloatingPointError) as exc:
            return {"estimator": name, "params": params, "flag": False,
                    "error": f"{type(exc).__name__}: {exc}", "aborted": True}
        except ConfigError:
            raise
        except ValueError as exc:
            # an argument the estimator rejects is an error in the config
            raise ConfigError(f"{name}: {exc}") from exc

    items = list(batch.items())
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run, items))
    else:
        records = [run(it) for it in items]
    aborted = any(r.get("aborted") for r in records)

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
    for name, flag in flags.items():
        status = {True: "pass", False: "FAIL", None: "info"}[flag]
        print(f"{status:5s}  {name}")
    if aborted:
        return EXIT_ABORT
    return EXIT_OK if all(v for v in checked) else EXIT_VIOLATION


_ESTIMATOR_NAMES = {
    "one_sided", "w1_synchronous", "w1_reflection", "w1_kinetic", "coalescence",
    "lyapunov", "harnack", "fk_const", "defective_lsi", "hypercontractivity",
    "mckv", "hyper_bound",
}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(cfg: dict, out_dir: Path, seed: int | None, dry_run: bool,
              threads: int) -> int:
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("sweep command needs a 'sweep' block")
    for key in ("estimator", "parameter", "values"):
        if key not in sweep:
            raise ConfigError(f"sweep block missing {key!r}")
    values = sweep["values"]
    if not values:
        raise ConfigError("sweep grid is empty")
    name = sweep["estimator"]
    if name not in _ESTIMATOR_NAMES:
        raise ConfigError(f"unknown estimator {name!r}")
    if dry_run:
        return EXIT_OK
    sim = _sim_config(cfg, seed)
    model = _model_from(cfg) if cfg.get("scenario", "competition") != "competition" else None
    base = dict(cfg.get("estimators", {}).get(name, {}))

    def run(value):
        params = dict(base)
        params[sweep["parameter"]] = value
        try:
            rec = _run_estimator(name, params, model, sim, cfg)
        except Exception as exc:  # noqa: BLE001 - sweep must keep going
            rec = {"estimator": name, "params": params, "flag": False,
                   "error": f"{type(exc).__name__}: {exc}"}
        rec["sweep_value"] = value
        return rec

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(run, values))
    else:
        records = [run(v) for v in values]

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
    print(f"sweep of {name} over {len(values)} values written to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# trajectory dump
# ---------------------------------------------------------------------------


def cmd_dump(cfg: dict, out_dir: Path, seed: int | None, dry_run: bool) -> int:
    kind = cfg.get("coupling", "reflection")
    if kind not in ("synchronous", "reflection", "harnack", "kinetic"):
        raise ConfigError(f"unknown coupling {kind!r}")
    if dry_run:
        return EXIT_OK
    sim = _sim_config(cfg, seed)
    model = _model_from(cfg)
    n_paths = int(cfg.get("n_paths", 4))
    if kind == "kinetic":
        if not isinstance(model, KineticModel):
            raise ConfigError("kinetic dump needs a kinetic scenario")
        norm, params, table = _kinetic_metric(model, sim)
        x0, y0 = _pair_points(cfg, 2 * model.d)
        traj = kinetic_coupled_pair(norm, table, params, x0, y0, sim, n_paths=n_paths,
                                    record_every=max(sim.n_steps // 500, 1))
    else:
        x0, y0 = _pair_points(cfg, model.d)
        fn = {"synchronous": synchronous_pair, "reflection": reflection_pair}.get(kind)
        if fn is not None:
            traj = fn(model, x0, y0, sim, n_paths=n_paths,
                      record_every=max(sim.n_steps // 500, 1))
        else:
            traj = harnack_pair(model, x0, y0, sim, k_w=model.lip * model.radius,
                                n_paths=n_paths,
                                record_every=max(sim.n_steps // 500, 1))
    rows = pair_to_csv_rows(traj)
    header = next(rows)
    path = _write_csv(out_dir, "trajectories.csv", header, rows)
    print(f"wrote {path}")
    return EXIT_OK


def _versions() -> dict:
    import scipy

    return {"nesslsi": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


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
        cfg = _load_config(args.config)
        out_dir = Path(cfg.get("out_dir", args.out))
        if args.command == "constants":
            return cmd_constants(cfg, out_dir, args.seed, args.dry_run)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.seed, args.dry_run, args.threads)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.seed, args.dry_run, args.threads)
        return cmd_dump(cfg, out_dir, args.seed, args.dry_run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EstimatorDiverged, UnstableLogError, WeightOverflowError,
            SimulationBlowUp) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
