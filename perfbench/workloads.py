"""Seeded inputs of the three workloads, and what each run is judged by.

The benchmark seed fixes every input: the simulation seed of each config is
derived from it, and so are the extra initial pairs of ``kinetic-sweep``.
The same seed writes byte-identical configs.  README.md gives the reason
for each workload and the budgets it scales down from.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("ou-battery", "kinetic-sweep", "fk-scan")

# The pair of acceptance criterion 08; the kinetic headline is measured on it.
CRITERION_08_PAIR = {"x0": [3.0, 0.0, 0.0, 0.0], "y0": [-2.0, 1.0, 0.5, -0.5]}

REPORTS = {
    "ou-battery": "verify_report.json",
    "kinetic-sweep": "sweep_report.json",
    "fk-scan": "fk_report.json",
}
THREADS = {"ou-battery": 1, "kinetic-sweep": 2, "fk-scan": 1}


def sim_seed(workload: str, seed: int) -> int:
    digest = hashlib.blake2b(f"{workload}:{seed}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def _ou_battery(seed: int, out_dir: str) -> dict:
    """README OU battery plus w1_synchronous at dt = 1e-2 (README: 1e-3), with
    half the paths and a quarter of the ergodic samples."""
    pair = {"x0": [0.5], "y0": [-0.5]}
    return {
        "scenario": "ou",
        "model": {"d": 1},
        "sim": {"dt": 0.01, "t_final": 2.0, "seed": sim_seed("ou-battery", seed)},
        "constants": {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": 1.0, "d": 1},
        "estimators": {
            "one_sided": {"n_pairs": 4096},
            "w1_reflection": {"n_paths": 10000, "pair": pair},
            "coalescence": {"n_paths": 10000, "pair": pair},
            "lyapunov": {"delta": 0.125, "n_replicas": 64, "samples_per_replica": 100},
            "harnack": {"alpha": 2.0, "t": 1.0, "n_paths": 10000},
            "fk_const": {"c": 0.5, "t": 1.0},
            "defective_lsi": {"n_replicas": 32, "samples_per_replica": 50},
            # A wide outer sample and c = 0.25 (light f^alpha tail) keep the
            # standard error, and so time_to_1pct_s, steady from seed to seed.
            "hypercontractivity": {"c": 0.25, "n_outer": 16384, "n_inner": 2},
            "w1_synchronous": {"n_paths": 10000, "pair": pair},
        },
        "out_dir": out_dir,
    }


def _kinetic_sweep(seed: int, out_dir: str) -> dict:
    """w1_kinetic on kinetic-quadratic (d = 2) over the criterion-08 pair and
    three seeded pairs, swept on two threads."""
    rng = random.Random(sim_seed("kinetic-pairs", seed))
    pairs = [CRITERION_08_PAIR] + [
        {"x0": [round(rng.uniform(-3.0, 3.0), 3) for _ in range(4)],
         "y0": [round(rng.uniform(-3.0, 3.0), 3) for _ in range(4)]}
        for _ in range(3)
    ]
    return {
        "scenario": "kinetic-quadratic",
        "model": {"d": 2, "gamma": 1.0, "radius": 1.0},
        "sim": {"dt": 0.01, "t_final": 5.0, "seed": sim_seed("kinetic-sweep", seed),
                "n_smooth": 1000},
        "estimators": {"w1_kinetic": {"n_paths": 2000, "slack": 0.10}},
        "sweep": {"estimator": "w1_kinetic", "parameter": "pair", "values": pairs},
        "out_dir": out_dir,
    }


def _fk_scan(seed: int) -> dict:
    """Criterion 10 at dt = 1e-2 (from 2e-3), with 10,000 fit paths and 6,000
    scan paths (from 20,000 each)."""
    return {
        "seed": sim_seed("fk-scan", seed),
        "bump_amp": 0.5,
        "dt": 0.01,
        "t_final": 3.0,
        "phi_grid": 100_001,
        "fit_pair": [1.5, -1.5],
        "fit_paths": 10000,
        "scan_paths": 6000,
        "points": [-2.0, -1.0, 0.0, 1.0, 2.0],
    }


def write_inputs(workload: str, seed: int, work: Path, run_id: str) -> Path:
    """Write the workload's config and process spec under ``work``; return the spec path."""
    out_dir = str(work / "out")
    spec = {"workload": workload, "run_id": run_id, "out_dir": out_dir,
            "threads": THREADS[workload], "report": str(work / "out" / REPORTS[workload])}
    if workload == "fk-scan":
        spec["fk"] = _fk_scan(seed)
    else:
        if workload == "ou-battery":
            cfg, command = _ou_battery(seed, out_dir), "verify"
        else:
            cfg, command = _kinetic_sweep(seed, out_dir), "sweep"
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
        spec["argv"] = [command, "--config", str(cfg_path),
                        "--threads", str(THREADS[workload])]
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2))
    return spec_path


def headline(workload: str, state: dict, report: dict, wall_s: float) -> tuple[float, float]:
    """(wall seconds, relative standard error) of the workload's headline answer.

    On ``kinetic-sweep`` the estimators share the pool and the report is
    written only when the whole sweep ends, so the time is the process wall
    time, and the error is that of the criterion-08 pair.
    """
    if workload == "ou-battery":
        rec = next(r for r in report["records"] if r["estimator"] == "hypercontractivity")
        ratio = rec["probe"]["ratio"]
        return state["headline_s"], ratio["stderr"] / ratio["value"]
    if workload == "kinetic-sweep":
        key = [CRITERION_08_PAIR["x0"], CRITERION_08_PAIR["y0"]]
        return wall_s, next(r["rel"] for r in state["rel_stderr"] if r["key"] == key)
    rec = next(r for r in report["records"] if r["estimator"] == "u_lipschitz_scan")
    return state["headline_s"], max(rec["scan"]["u_stderr"])
