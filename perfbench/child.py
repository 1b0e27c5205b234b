"""One workload process: ``python3 perfbench/child.py SPEC RESULT MODE``.

SPEC is the JSON spec that ``workloads.write_inputs`` wrote.  The process
runs the workload once through the public entry point (``nesslsi.cli.main``
or the library API for ``fk-scan``) and writes RESULT, a JSON file with the
exit code, the monotonic time of the first simulated path-step, the
headline estimator's wall time or standard error and, with MODE = 1, every
recorded span.

With MODE = 0 only two probes run, each a few clock reads per workload:
the first draw of noise (unwrapped again right after) and the headline
estimator call.  With MODE = 1 the tracer wraps every public function too.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import nesslsi  # noqa: E402
from nesslsi import cli, estimators, models, simulate  # noqa: E402

from spans import Tracer  # noqa: E402


def _first_step_probe(state: dict) -> None:
    """Record the time of the first noise draw, then restore the originals."""
    saved = {mod: mod.noise_normals for mod in (simulate, estimators)}
    lock = threading.Lock()      # pool threads can take their first step together

    def probe(*args, **kwargs):
        with lock:
            if "first_step_mono" not in state:
                state["first_step_mono"] = time.monotonic()
                for mod, fn in saved.items():
                    mod.noise_normals = fn
        return saved[simulate](*args, **kwargs)

    for mod in saved:
        mod.noise_normals = probe


def _time_call(module, name: str, state: dict) -> None:
    """Record the wall time of ``module.name`` in state['headline_s']."""
    fn = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        state["headline_s"] = time.perf_counter() - t0
        return out

    setattr(module, name, timed)


def _kinetic_stderr(state: dict) -> None:
    """Relative stderr of E|Z_T - Z'_T| at the horizon, per kinetic pair."""
    fn = estimators.kinetic_coupled_pair

    def probe(normalized, table, params, z0, z0_prime, *args, **kwargs):
        traj = fn(normalized, table, params, z0, z0_prime, *args, **kwargs)
        sep = np.linalg.norm(traj.z[-1] - traj.z_prime[-1], axis=-1)
        rel = float(sep.std(ddof=1) / math.sqrt(sep.size) / sep.mean())
        key = [np.asarray(z0, dtype=float).tolist(), np.asarray(z0_prime, dtype=float).tolist()]
        state.setdefault("rel_stderr", []).append({"key": key, "rel": rel})
        return traj

    estimators.kinetic_coupled_pair = probe


def fk_scan(cfg: dict, out_dir: Path, tracer: Tracer | None, state: dict) -> int:
    """Criterion-10 pipeline: dual fields of the bump model, a reflection
    fit for c_prime, then the u_T increment scan over the grid."""
    a = cfg["bump_amp"]
    bump = models._bump
    b0 = lambda x: -x
    b1 = lambda x: a * bump(x)
    model = models.EllipticModel(
        d=1, drift=lambda x: b0(x) + b1(x), sigma=math.sqrt(2.0), rho=0.1, lip=1.0,
        radius=2.0, b0=b0, b1=b1, grad_log_ref=lambda x: -x,
    )
    if tracer is not None:
        tracer.instrument(model)
    fields = models.derive_elliptic_fields(model)
    grid = np.linspace(-1.2, 1.2, cfg["phi_grid"])[:, None]
    m_phi = float(np.abs(fields.phi(grid)).max())
    sim = simulate.SimConfig(dt=cfg["dt"], t_final=cfg["t_final"], seed=cfg["seed"])
    bt_model = models.EllipticModel(d=1, drift=fields.b_tilde, sigma=math.sqrt(2.0),
                                    rho=0.1, lip=1.0, radius=2.0)
    x0, y0 = (np.array([v]) for v in cfg["fit_pair"])
    rep = estimators.w1_contraction("reflection", bt_model, x0, y0, sim,
                                    n_paths=cfg["fit_paths"])
    c_prime = rep.fit.c_hat / rep.fit.kappa_hat
    system = estimators.elliptic_fk_system(fields.b_tilde, fields.phi, 1)
    points = np.array(cfg["points"], dtype=float)[:, None]
    t0 = time.perf_counter()
    scan = estimators.u_lipschitz_scan(system, points, cfg["t_final"], cfg["scan_paths"], sim,
                                       m_phi=m_phi, l_phi=0.0, c_prime=c_prime)
    state["headline_s"] = time.perf_counter() - t0
    report = {
        "config": cfg,
        "m_phi": m_phi,
        "c_prime": c_prime,
        "records": [
            {"estimator": "w1_reflection", "fit": rep.fit.to_json(), "flag": None,
             "series": {"times": rep.times.tolist(), "mean_dist": rep.mean_dist.tolist()}},
            {"estimator": "u_lipschitz_scan", "scan": scan.to_json(), "flag": scan.ok},
        ],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "fk_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    spec_path, result_path, mode = Path(argv[0]), Path(argv[1]), argv[2]
    trace = mode == "1"
    spec = json.loads(spec_path.read_text())
    state: dict = {"nesslsi_file": nesslsi.__file__}
    tracer = None
    if trace:
        tracer = Tracer(spec["run_id"])
        tracer.install()
    _first_step_probe(state)
    if spec["workload"] == "ou-battery":
        _time_call(cli, "hypercontractivity_probe", state)
    elif spec["workload"] == "kinetic-sweep":
        _kinetic_stderr(state)

    if spec["workload"] == "fk-scan":
        run = lambda: fk_scan(spec["fk"], Path(spec["out_dir"]), tracer, state)
        if tracer is not None:
            run = tracer.wrap("bench.fk_scan", run)
        rc = run()
    else:
        rc = cli.main(spec["argv"])
    state["rc"] = rc
    if spec.get("record_env"):
        import scipy

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        state["versions"] = {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        }
    if tracer is not None:
        state["trace"] = tracer.dump()
    result_path.write_text(json.dumps(state))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
