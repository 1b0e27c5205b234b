import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nesslsi
from nesslsi.cli import main


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _constants_config(tmp_path, out):
    return _write(tmp_path, {
        "constants": {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": 1.0, "d": 1},
        "metric": {"k_matrix": [[1.0]], "lip_inner": 0.0, "lip_outer": 0.0, "radius": 1.0},
        "out_dir": str(out),
    })


def test_import_leaves_scipy_submodules_unloaded():
    """The package imports numpy only; importing it and its CLI, building a
    kinetic metric, evaluating rho_star and running the kinetic coupling
    must not load scipy.interpolate or scipy.optimize."""
    src = str(Path(nesslsi.__file__).resolve().parents[1])
    code = """
import sys
import numpy as np
import nesslsi, nesslsi.cli
from nesslsi import build_metric, make_scenario, metric_constants, rho_star
from nesslsi.models import normalize_kinetic
from nesslsi.simulate import SimConfig, kinetic_coupled_pair
loaded = lambda: [m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules]
print(loaded())
kin = make_scenario("kinetic-quadratic", {"d": 2})
params = metric_constants(kin.k_matrix, kin.lip_inner, kin.lip_outer, kin.radius)
table = build_metric(params, n_smooth=1000)
z0, zp0 = np.array([1.5, 0.0, 0.0, 0.0]), np.zeros(4)
rho_star(table, z0, zp0)
kinetic_coupled_pair(normalize_kinetic(kin), table, params, z0, zp0,
                     SimConfig(dt=0.01, t_final=0.1, seed=1), n_paths=4)
print(loaded())
"""
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["[]", "[]"]


def test_constants_command_reference_values(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["constants", "--config", _constants_config(tmp_path, out)])
    assert code == 0
    report = json.loads((out / "constants_report.json").read_text())
    assert report["constants"]["A"] == 12.0
    assert abs(report["constants"]["B"] - (6 * math.log(5.0) + 3.75)) < 1e-12
    assert report["constants"]["C"] == 4.0
    assert report["metric"]["params"]["kappa2"] == 0.125
    capsys.readouterr()


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    code = main(["constants", "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err
    bad.write_text("[1, 2]")
    assert main(["constants", "--config", str(bad), "--out", str(out)]) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, {"scenari": "ou"})
    assert main(["verify", "--config", cfg]) == 2
    # the constants block is checked before any estimator runs
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "constants": {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": 1.0, "d": 1, "rhoo": 3},
        "estimators": {"one_sided": {"n_pairs": 64}},
        "out_dir": str(tmp_path / "out"),
    }, name="constants_typo.json")
    assert main(["verify", "--config", cfg]) == 2
    assert not (tmp_path / "out").exists()
    # blocks that must be JSON objects, an estimator argument it rejects, and
    # sim values that SimConfig rejects (Infinity and NaN parse as JSON here)
    base = {"scenario": "ou", "estimators": {"one_sided": {"n_pairs": 64}},
            "out_dir": str(tmp_path / "out")}
    sim = {"dt": 0.01, "t_final": 0.5, "seed": 3}
    for i, patch in enumerate([
        {"sim": {**sim, "t_final": math.inf}},
        {"sim": {**sim, "dt": math.nan}},
        {"sim": {**sim, "merge_tol": math.nan}},
        {"sim": {**sim, "n_smooth": -5}},
        {"constants": 5},
        {"model": [1]},
        {"sim": 3},
        {"metric": "k"},
        {"pair": [0.0, 1.0]},
        {"estimators": ["one_sided"]},
        {"estimators": {"one_sided": 64}},
        {"sweep": [1, 2]},
        {"estimators": {"w1_synchronous": {"n_paths": 10}}},
        {"estimators": {"coalescence": {"n_paths": 10}}},
    ]):
        cfg = _write(tmp_path, {**base, **patch}, name=f"block{i}.json")
        assert main(["verify", "--config", cfg]) == 2, patch
        assert not (tmp_path / "out").exists(), patch
    err = capsys.readouterr().err
    assert "config error: w1_synchronous: need n_paths >= 1000" in err
    assert "config error: coalescence: need n_paths >= 1000" in err
    assert "config error: bad sim config: dt and t_final must be positive and finite" in err


def test_verify_dry_run_validates_only(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "estimators": {"one_sided": {}, "fk_const": {}},
        "out_dir": str(tmp_path / "none"),
    })
    assert main(["verify", "--config", cfg, "--dry-run"]) == 0
    assert not (tmp_path / "none").exists()
    cfg_bad = _write(tmp_path, {
        "scenario": "ou", "estimators": {"nope": {}},
    }, name="bad_est.json")
    assert main(["verify", "--config", cfg_bad, "--dry-run"]) == 2
    capsys.readouterr()


def test_verify_small_ou_battery_passes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "model": {"d": 1},
        "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 5},
        "estimators": {
            "one_sided": {"n_pairs": 512},
            "fk_const": {"c": 0.4, "t": 1.0, "n_paths": 64},
            "lyapunov": {"n_replicas": 16, "samples_per_replica": 80},
            "w1_synchronous": {"n_paths": 1000},
        },
        "out_dir": str(out),
    })
    code = main(["verify", "--config", cfg])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    flags = report["summary"]["flags"]
    assert flags["one_sided"] is True
    assert flags["fk_const"] is True
    assert flags["lyapunov"] is True
    assert flags["w1_synchronous"] is None     # informational
    assert (out / "w1_synchronous_series.csv").exists()
    capsys.readouterr()


def test_verify_reports_reproducible(tmp_path, capsys):
    def run(sub):
        out = tmp_path / sub
        cfg = _write(tmp_path, {
            "scenario": "ou",
            "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 9},
            "estimators": {"lyapunov": {"n_replicas": 8, "samples_per_replica": 40}},
            "out_dir": str(out),
        }, name=f"{sub}.json")
        assert main(["verify", "--config", cfg]) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        return rep["records"]

    assert run("a") == run("b")
    capsys.readouterr()


def test_verify_embeds_constants_report_when_requested(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 7},
        "constants": {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": 1.0, "d": 1},
        "estimators": {"one_sided": {"n_pairs": 256}},
        "out_dir": str(out),
    })
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["constants"]["A"] == 12.0
    capsys.readouterr()


def test_verify_kinetic_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "kinetic-quadratic",
        "model": {"d": 2, "gamma": 1.0, "radius": 1.0},
        "sim": {"dt": 2e-3, "t_final": 2.0, "seed": 8, "n_smooth": 1000},
        "estimators": {
            "w1_kinetic": {"n_paths": 2000,
                           "pair": {"x0": [2.0, 0.0, 0.0, 0.0],
                                    "y0": [-1.0, 0.5, 0.0, 0.0]}},
        },
        "out_dir": str(out),
    })
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["summary"]["flags"]["w1_kinetic"] is True
    capsys.readouterr()


def test_verify_kinetic_metric_is_that_of_the_normalized_model(tmp_path, capsys):
    """At gamma = 2 the coupling runs on the unit-friction model, so rho0 and
    the envelope must use that model's metric, not the gamma-model's."""
    from nesslsi import build_metric, make_scenario, metric_constants, rho_star
    from nesslsi.models import normalize_kinetic

    out = tmp_path / "out"
    x0, y0 = [2.0, 0.0, 0.0, 0.0], [-1.0, 0.5, 0.0, 0.0]
    cfg = _write(tmp_path, {
        "scenario": "kinetic-quadratic",
        "model": {"d": 2, "gamma": 2.0, "radius": 1.0},
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 8, "n_smooth": 1000},
        "estimators": {"w1_kinetic": {"n_paths": 1000, "pair": {"x0": x0, "y0": y0}}},
        "out_dir": str(out),
    })
    assert main(["verify", "--config", cfg]) in (0, 1)
    record = json.loads((out / "verify_report.json").read_text())["records"][0]
    m = normalize_kinetic(make_scenario("kinetic-quadratic", {"d": 2, "gamma": 2.0}))
    params = metric_constants(m.k_matrix, m.lip_inner, m.lip_outer, m.radius)
    table = build_metric(params, n_smooth=1000)
    expected = float(rho_star(table, np.array(x0), np.array(y0)))
    assert record["rho0"] == pytest.approx(expected, rel=1e-12)
    capsys.readouterr()


def test_verify_competition_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "competition",
        "model": {"p": 1, "lam": 0.05},
        "sim": {"dt": 2e-3, "t_final": 3.0, "seed": 9},
        "estimators": {"mckv": {"n_particles": 128, "n_iters": 3}},
        "out_dir": str(out),
    })
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["summary"]["flags"]["mckv"] is True
    capsys.readouterr()


def test_dump_trajectories_kinetic(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "kinetic-quadratic",
        "model": {"d": 1, "gamma": 1.0, "radius": 1.0},
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 10, "n_smooth": 100},
        "coupling": "kinetic",
        "pair": {"x0": [1.0, 0.0], "y0": [-1.0, 0.0]},
        "n_paths": 2,
        "out_dir": str(out),
    })
    assert main(["dump-trajectories", "--config", cfg]) == 0
    header = (out / "trajectories.csv").read_text().splitlines()[0]
    assert header.startswith("path_id,step,t,z0,z1,zp0,zp1,rc,merged")
    capsys.readouterr()


def test_verify_misdeclared_rho_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "model": {"d": 1, "declared_rho": 2.5},
        "estimators": {"one_sided": {"n_pairs": 512}},
        "out_dir": str(tmp_path / "out"),
    })
    assert main(["verify", "--config", cfg]) == 1
    capsys.readouterr()


def test_verify_runtime_abort_exits_3(tmp_path, capsys):
    weight_overflow = {
        "scenario": "ou",
        "sim": {"dt": 1e-2, "t_final": 2.0, "seed": 1},
        "estimators": {"fk_const": {"c": 500.0, "t": 2.0, "n_paths": 16}},
    }
    # only the second copy blows up: y0 = 30 overshoots the double well at dt = 0.05
    second_copy_blow_up = {
        "scenario": "double-well",
        "sim": {"dt": 0.05, "t_final": 2.0, "seed": 1},
        "estimators": {"w1_synchronous": {"n_paths": 1000,
                                          "pair": {"x0": [0.0], "y0": [30.0]}}},
    }
    for i, payload in enumerate((weight_overflow, second_copy_blow_up)):
        out = tmp_path / f"out{i}"
        cfg = _write(tmp_path, {**payload, "out_dir": str(out)}, name=f"abort{i}.json")
        assert main(["verify", "--config", cfg]) == 3
        report = json.loads((out / "verify_report.json").read_text())
        assert "error" in report["records"][0]
        name = next(iter(payload["estimators"]))
        assert capsys.readouterr().out.splitlines() == [f"ABORT  {name}"]


@pytest.mark.parametrize("name, params, dt", [
    ("one_sided", {"n_pairs": 64}, 1e-3),
    ("fk_const", {"c": 500.0, "t": 2.0, "n_paths": 16}, 1e-2),
])
def test_verify_and_sweep_build_the_same_record(tmp_path, capsys, name, params, dt):
    """A verify block and a one-point sweep grid with the same params give
    the same record, on a passing job and on one that aborts at runtime."""
    key = next(iter(params))
    base = {"scenario": "ou", "sim": {"dt": dt, "t_final": 2.0, "seed": 1},
            "estimators": {name: params}}
    sweep = {"estimator": name, "parameter": key, "values": [params[key]]}
    records, codes = {}, set()
    for command, extra in (("verify", {}), ("sweep", {"sweep": sweep})):
        out = tmp_path / command
        cfg = _write(tmp_path, {**base, **extra, "out_dir": str(out)}, name=f"{command}.json")
        codes.add(main([command, "--config", cfg]))
        (records[command],) = json.loads((out / f"{command}_report.json").read_text())["records"]
    capsys.readouterr()
    assert records["sweep"].pop("sweep_value") == params[key]
    assert records["verify"] == records["sweep"]
    assert codes == {3 if "aborted" in records["verify"] else 0}


@pytest.mark.filterwarnings("ignore:n_inner < 1000", "ignore::RuntimeWarning")
def test_verify_hyper_probe_overflow_is_a_runtime_abort(tmp_path, capsys):
    """A nan ratio from an overflowing f aborts the record (exit 3) instead
    of reporting FAIL (exit 1) with a nan in every number."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou", "sim": {"dt": 0.01, "t_final": 1.0, "seed": 3},
        "estimators": {"hypercontractivity": {"c": 300, "n_outer": 64, "n_inner": 4, "t": 7}},
        "out_dir": str(out),
    })
    assert main(["verify", "--config", cfg]) == 3
    report = json.loads((out / "verify_report.json").read_text())
    record = report["records"][0]
    assert record["aborted"] and "EstimatorDiverged" in record["error"]
    assert "non_finite" not in report
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore:n_inner < 1000")
def test_null_optional_estimator_key_is_the_omitted_key(tmp_path, capsys):
    """An explicit null for an optional estimator key gives the numbers of
    the omitted key: lyapunov's delta and the probe's t take their defaults."""
    small = {"lyapunov": {"n_replicas": 8, "samples_per_replica": 40},
             "hypercontractivity": {"n_outer": 16, "n_inner": 8}}
    nulls = {"lyapunov": {"delta": None}, "hypercontractivity": {"t": None}}
    records = []
    for i, extra in enumerate(({}, nulls)):
        out = tmp_path / f"out{i}"
        cfg = _write(tmp_path, {
            "scenario": "ou", "sim": {"dt": 0.01, "t_final": 1.0, "seed": 11},
            "estimators": {k: {**v, **extra.get(k, {})} for k, v in small.items()},
            "out_dir": str(out),
        }, name=f"null{i}.json")
        assert main(["verify", "--config", cfg]) == 0
        records.append(json.loads((out / "verify_report.json").read_text())["records"])
    omitted, null = records
    assert [r["params"] for r in null] == [{**small[k], **nulls[k]} for k in small]
    assert [{**r, "params": None} for r in omitted] == [{**r, "params": None} for r in null]
    capsys.readouterr()


def test_quadrature_error_is_a_runtime_abort(tmp_path, capsys, monkeypatch):
    """A metric quadrature that cannot converge exits 3 from ``constants``
    and aborts its record under ``verify``."""
    import nesslsi.cli as cli
    from nesslsi.metric import QuadratureError

    def fail(*args, **kwargs):
        raise QuadratureError("no convergence")

    monkeypatch.setattr(cli, "build_metric", fail)
    assert main(["constants", "--config", _constants_config(tmp_path, tmp_path / "c")]) == 3
    out = tmp_path / "v"
    cfg = _write(tmp_path, {
        "scenario": "kinetic-quadratic", "model": {"d": 1},
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 1},
        "estimators": {"w1_kinetic": {"n_paths": 1000}}, "out_dir": str(out),
    }, name="kinetic.json")
    assert main(["verify", "--config", cfg]) == 3
    record = json.loads((out / "verify_report.json").read_text())["records"][0]
    assert record["aborted"] and "QuadratureError" in record["error"]
    assert "runtime abort" in capsys.readouterr().err


def test_sweep_lyapunov_delta_grid(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 2},
        "estimators": {"lyapunov": {"n_replicas": 8, "samples_per_replica": 40}},
        "sweep": {"estimator": "lyapunov", "parameter": "delta",
                  "values": [1.0 / 16, 1.0 / 8, 1.0 / 5]},
        "out_dir": str(out),
    })
    assert main(["sweep", "--config", cfg]) == 0
    lines = (out / "sweep_summary.csv").read_text().strip().splitlines()
    assert len(lines) == 4   # header + one row per grid point
    capsys.readouterr()


def test_sweep_hyper_bound_blows_up_toward_t0(tmp_path, capsys):
    out = tmp_path / "out"
    base = {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": math.sqrt(2.0), "d": 1}
    cfg = _write(tmp_path, {
        "estimators": {"hyper_bound": base},
        "sweep": {"estimator": "hyper_bound", "parameter": "t",
                  "values": [12.0, 6.0, 4.0, 3.3, 3.03]},
        "out_dir": str(out),
    })
    assert main(["sweep", "--config", cfg]) == 0
    report = json.loads((out / "sweep_report.json").read_text())
    bounds = [r["bound"] for r in report["records"]]
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))  # grows as t -> t0
    capsys.readouterr()


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "sweep": {"estimator": "lyapunov", "parameter": "delta", "values": []},
    })
    assert main(["sweep", "--config", cfg]) == 2
    capsys.readouterr()


def test_sweep_records_child_failures_and_continues(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 3},
        "sweep": {"estimator": "lyapunov", "parameter": "delta",
                  "values": [0.125, 0.9]},   # 0.9 violates delta < rho/4
        "out_dir": str(out),
    })
    assert main(["sweep", "--config", cfg]) == 1
    report = json.loads((out / "sweep_report.json").read_text())
    assert "error" not in report["records"][0]
    assert "error" in report["records"][1]
    capsys.readouterr()


@pytest.mark.parametrize("code, payload", [
    pytest.param(0, {"scenario": "ou", "sweep": {"estimator": "one_sided", "parameter": "n_pairs",
                                                 "values": [64, 128]}}, id="passed"),
    pytest.param(1, {"scenario": "ou", "model": {"declared_rho": 8.0},
                     "sweep": {"estimator": "one_sided", "parameter": "n_pairs",
                               "values": [64, 128]}}, id="violated"),
    pytest.param(3, {"scenario": "ou", "sim": {"dt": 1e-2, "t_final": 2.0, "seed": 1},
                     "estimators": {"fk_const": {"t": 2.0, "n_paths": 16}},
                     "sweep": {"estimator": "fk_const", "parameter": "c",
                               "values": [0.5, 500.0]}}, id="aborted"),
])
def test_sweep_exit_code(tmp_path, capsys, code, payload):
    """A sweep exits as verify does: 3 if a grid point aborted at runtime,
    else 1 if a flag is False, else 0."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, {**payload, "out_dir": str(out)})
    assert main(["sweep", "--config", cfg]) == code
    records = json.loads((out / "sweep_report.json").read_text())["records"]
    assert [r.get("aborted", False) for r in records] == [False, code == 3]
    capsys.readouterr()


def test_dump_trajectories_csv(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou",
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 4},
        "coupling": "reflection",
        "pair": {"x0": [1.0], "y0": [-1.0]},
        "n_paths": 3,
        "out_dir": str(out),
    })
    assert main(["dump-trajectories", "--config", cfg]) == 0
    lines = (out / "trajectories.csv").read_text().strip().splitlines()
    assert lines[0].split(",") == ["path_id", "step", "t", "z0", "zp0", "rc", "merged"]
    assert len(lines) > 3
    capsys.readouterr()


def test_dump_trajectories_harnack_golden_hash(tmp_path, capsys):
    """The CSV of a small Harnack-coupled dump (k_w = L R = 3 on double-well)
    reproduces its pinned bytes."""
    import hashlib

    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "double-well",
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 25},
        "coupling": "harnack",
        "pair": {"x0": [1.0], "y0": [-1.0]},
        "n_paths": 3,
        "out_dir": str(out),
    })
    assert main(["dump-trajectories", "--config", cfg]) == 0
    digest = hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()
    assert digest == "8c6a648233bb4c5eaf8b193665b3c40fb757aba84b9d0944d844a400f5f60277"
    capsys.readouterr()


def test_dump_trajectories_kinetic_golden_hash(tmp_path, capsys):
    """The CSV of a small kinetic dump (both copies in one Fortran-ordered
    state, every step recorded) reproduces its pinned bytes."""
    import hashlib

    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "kinetic-quadratic",
        "model": {"d": 2, "gamma": 1.0, "radius": 1.0},
        "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 28, "n_smooth": 100},
        "coupling": "kinetic",
        "pair": {"x0": [0.3, -0.2, 0.1, 0.0], "y0": [-0.3, 0.2, 0.0, 0.1]},
        "n_paths": 5,
        "out_dir": str(out),
    })
    assert main(["dump-trajectories", "--config", cfg]) == 0
    digest = hashlib.sha256((out / "trajectories.csv").read_bytes()).hexdigest()
    assert digest == "ecae7b82ffb9f1727175b1578c9b3c1bb8e55ae198f28a9e1487dc4145cbad07"
    capsys.readouterr()


@pytest.mark.parametrize("n_paths", [0, -1])
def test_dump_trajectories_rejects_n_paths_below_1(tmp_path, capsys, n_paths):
    """A dump of no paths is a config error under --dry-run and in the run
    alike, before any CSV is written."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou", "model": {"d": 1}, "sim": {"dt": 0.1, "t_final": 0.3, "seed": 1},
        "coupling": "reflection", "n_paths": n_paths, "out_dir": str(out),
    })
    for flags in (["--dry-run"], []):
        assert main(["dump-trajectories", "--config", cfg, *flags]) == 2
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count(f"config error: dump-trajectories: need n_paths >= 1, got {n_paths}") == 2


# A count below the least one that defines the estimator's result, the
# message it gives, and the key a sweep over it varies.
_COUNT_MINIMUMS = [
    pytest.param("lyapunov", {"n_replicas": 1}, "need n_replicas >= 2", id="lyapunov-n_replicas"),
    pytest.param("lyapunov", {"samples_per_replica": 0}, "need samples_per_replica >= 1",
                 id="ergodic-samples_per_replica"),
    pytest.param("defective_lsi", {"n_replicas": 1}, "need n_replicas >= 2",
                 id="defective_lsi-n_replicas"),
    pytest.param("hypercontractivity", {"n_outer": 1}, "need n_outer >= 2 and n_inner >= 2",
                 id="hypercontractivity-n_outer"),
    pytest.param("hypercontractivity", {"n_inner": 1}, "need n_outer >= 2 and n_inner >= 2",
                 id="hypercontractivity-n_inner"),
    pytest.param("harnack", {"n_paths": 1}, "need n_paths >= 2", id="harnack-n_paths"),
    pytest.param("fk_const", {"n_paths": 0}, "need n_paths >= 1", id="fk_const-n_paths"),
    pytest.param("mckv", {"n_iters": 0}, "need n_iters >= 2", id="mckv-n_iters-0"),
    pytest.param("mckv", {"n_iters": 1}, "need n_iters >= 2", id="mckv-n_iters-1"),
]


@pytest.mark.parametrize("name, params, message", _COUNT_MINIMUMS)
def test_count_that_leaves_the_result_undefined_is_rejected_before_any_path(
        tmp_path, capsys, monkeypatch, name, params, message):
    """A count too small for a mean or a standard error is a config error
    under verify (exit 2, no report) and a rejected grid point under sweep;
    either way no path is simulated."""
    from nesslsi import estimators

    def must_not_run(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(estimators, "em_path", must_not_run)
    monkeypatch.setattr(estimators, "_integrate", must_not_run)
    out = tmp_path / "out"
    scenario = "competition" if name == "mckv" else "ou"
    base = {"scenario": scenario, "sim": {"dt": 0.01, "t_final": 1.0, "seed": 3}}
    cfg = _write(tmp_path, {**base, "estimators": {name: params}, "out_dir": str(out)})
    assert main(["verify", "--config", cfg]) == 2
    assert not out.exists()
    assert f"config error: {name}: {message}" in capsys.readouterr().err
    ((key, value),) = params.items()
    cfg = _write(tmp_path, {**base, "sweep": {"estimator": name, "parameter": key,
                                              "values": [value]}, "out_dir": str(out)},
                 name="sweep.json")
    assert main(["sweep", "--config", cfg]) == 1
    (record,) = json.loads((out / "sweep_report.json").read_text())["records"]
    assert record["error"] == f"ValueError: {message}" and record["flag"] is False
    capsys.readouterr()


@pytest.mark.parametrize("metric, code", [
    ({"k_matrix": [[1.0, 2.0], [0.0, 1.0]]}, 2),                 # K must be symmetric
    ({"k_matrix": [[2.0, 0.0], [0.0, 2.0]], "radius": 1.0}, 3),  # QuadratureError
])
def test_metric_block_that_cannot_be_built_exits_alike_under_dry_run(
        tmp_path, capsys, metric, code):
    """The metric table is built while the config is checked, so --dry-run
    exits with the code of the run, and neither writes a report."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, {"metric": metric, "out_dir": str(out)})
    assert main(["constants", "--config", cfg, "--dry-run"]) == code
    assert main(["constants", "--config", cfg]) == code
    assert not out.exists()
    err = capsys.readouterr().err
    prefix = "config error: bad metric config: " if code == 2 else "runtime abort: "
    assert err.count(prefix) == 2


_SHARED_RUN = {
    "scenario": "ou",
    "sim": {"dt": 1e-2, "t_final": 1.0, "seed": 23},
    "estimators": {"w1_reflection": {"n_paths": 1000, "pair": {"x0": [0.5], "y0": [-0.5]}},
                   "coalescence": {"n_paths": 1000, "pair": {"x0": [0.5], "y0": [-0.5]}}},
}


def _count_reflection_runs(monkeypatch, calls, effect=None):
    """Count the reflection runs of the estimators; ``effect`` runs first."""
    from nesslsi import estimators

    def counting(*args, _run=estimators.reflection_pair, **kwargs):
        calls.append(args[4])
        if effect is not None:
            effect()
        return _run(*args, **kwargs)

    monkeypatch.setattr(estimators, "reflection_pair", counting)


def _verify_records(tmp_path, sub, config, threads=1, code=0):
    out = tmp_path / sub
    cfg = _write(tmp_path, {**config, "out_dir": str(out)}, name=f"{sub}.json")
    assert main(["verify", "--config", cfg, "--threads", str(threads)]) == code
    return json.loads((out / "verify_report.json").read_text())["records"]


def test_verify_w1_reflection_and_coalescence_share_one_run(tmp_path, capsys, monkeypatch):
    """Equal w1_reflection and coalescence blocks run the reflection pair
    once, and write the records that runs of each alone write; on two
    threads, where the two requests may each run, the records are the same."""
    calls = []
    _count_reflection_runs(monkeypatch, calls)
    shared = _verify_records(tmp_path, "shared", _SHARED_RUN)
    assert calls == [1000]
    apart = [_verify_records(tmp_path, name, {**_SHARED_RUN, "estimators": {name: block}})[0]
             for name, block in _SHARED_RUN["estimators"].items()]
    assert shared == apart
    assert len(calls) == 3
    assert _verify_records(tmp_path, "threads2", _SHARED_RUN, threads=2) == shared
    capsys.readouterr()


def test_blow_up_in_a_shared_run_aborts_both_records(tmp_path, capsys, monkeypatch):
    """A blow-up in the shared run marks both records aborted (exit 3); the
    failure is not kept, so the second request runs again."""
    from nesslsi.simulate import SimulationBlowUp

    def blow_up():
        raise SimulationBlowUp(7, 0.07, 1)

    calls = []
    _count_reflection_runs(monkeypatch, calls, effect=blow_up)
    records = _verify_records(tmp_path, "out", _SHARED_RUN, code=3)
    assert [(r["estimator"], r["aborted"], r["error"]) for r in records] == [
        (name, True, "SimulationBlowUp: non-finite state at step 7 (t=0.07) in 1 path(s)")
        for name in ("w1_reflection", "coalescence")
    ]
    assert calls == [1000, 1000]
    capsys.readouterr()


def test_seed_override_changes_results(tmp_path, capsys):
    def run(seed, sub):
        out = tmp_path / sub
        cfg = _write(tmp_path, {
            "scenario": "ou",
            "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 0},
            "estimators": {"lyapunov": {"n_replicas": 8, "samples_per_replica": 40}},
            "out_dir": str(out),
        }, name=f"{sub}.json")
        args = ["verify", "--config", cfg]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main(args) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        return rep["records"][0]["estimate"]["value"]

    assert run(None, "s0") != run(12345, "s1")
    capsys.readouterr()


def test_threads_do_not_change_results(tmp_path, capsys):
    def run(threads, sub):
        out = tmp_path / sub
        cfg = _write(tmp_path, {
            "scenario": "ou",
            "sim": {"dt": 1e-3, "t_final": 1.0, "seed": 6},
            "estimators": {
                "lyapunov": {"n_replicas": 8, "samples_per_replica": 40},
                "one_sided": {"n_pairs": 256},
                "fk_const": {"c": 0.2, "t": 1.0, "n_paths": 32},
            },
            "out_dir": str(out),
        }, name=f"{sub}.json")
        assert main(["verify", "--config", cfg, "--threads", str(threads)]) == 0
        return json.loads((out / "verify_report.json").read_text())["records"]

    assert run(1, "t1") == run(4, "t4")
    capsys.readouterr()


def test_threads_do_not_change_kinetic_sweep(tmp_path, capsys):
    def run(threads, sub):
        out = tmp_path / sub
        cfg = _write(tmp_path, {
            "scenario": "kinetic-quadratic",
            "model": {"d": 2, "gamma": 1.0, "radius": 1.0},
            "sim": {"dt": 1e-2, "t_final": 1.0, "seed": 12, "n_smooth": 1000},
            "estimators": {"w1_kinetic": {"n_paths": 1000}},
            "sweep": {"estimator": "w1_kinetic", "parameter": "pair", "values": [
                {"x0": [2.0, 0.0, 0.0, 0.0], "y0": [-1.0, 0.5, 0.0, 0.0]},
                {"x0": [0.5, -1.0, 0.3, 0.0], "y0": [0.0, 0.2, -0.4, 1.0]},
                {"x0": [1.0, 1.0, 0.0, 0.0], "y0": [-2.0, -1.5, 0.5, 0.5]},
            ]},
            "out_dir": str(out),
        }, name=f"{sub}.json")
        assert main(["sweep", "--config", cfg, "--threads", str(threads)]) == 0
        return json.loads((out / "sweep_report.json").read_text())["records"]

    records = run(1, "t1")
    assert all("error" not in r for r in records)
    assert records == run(2, "t2")
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    out = tmp_path / "out"
    cfg = _write(tmp_path, {
        "scenario": "ou", "estimators": {"one_sided": {"n_pairs": 64}},
        "sweep": {"estimator": "one_sided", "parameter": "n_pairs", "values": [64, 128]},
        "out_dir": str(out),
    })
    assert main([command, "--config", cfg, "--threads", str(threads)]) == 2
    assert not out.exists()
    assert "config error: --threads must be at least 1" in capsys.readouterr().err


_OU_ONE_SIDED = {"scenario": "ou", "estimators": {"one_sided": {"n_pairs": 64}}}
_HYPER_BOUND = {"rho": 1.0, "R": 0.0, "sigma": 1.5, "d": 1, "t": 12.0}
_CONSTANTS = {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": 1.0, "d": 1}
_KINETIC_DUMP = {"scenario": "kinetic-quadratic", "model": {"d": 1},
                 "sim": {"dt": 1e-2, "t_final": 0.5, "seed": 1}, "coupling": "kinetic"}


@pytest.mark.parametrize("command, payload", [
    pytest.param("verify", {**_OU_ONE_SIDED, "model": {"rat": 5}}, id="model-key"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"one_sided": {"n_pairz": 10}}},
                 id="estimator-key"),
    pytest.param("verify", {"scenario": "ou",
                            "estimators": {"w1_synchronous": {"n_paths": None}}},
                 id="null-count"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"coalescence": {"pair": [1]}}},
                 id="pair-list"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"coalescence": {
        "n_paths": 1000, "pair": {"x0": [1.0, 0.0], "y0": [0.0, 0.0]}}}}, id="pair-dim"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"hyper_bound": _HYPER_BOUND}},
                 id="hyper-bound-missing-L"),
    pytest.param("verify", {"scenario": "competition", "estimators": {"one_sided": {}}},
                 id="one-sided-on-competition"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"mckv": {"n_particles": 64}}},
                 id="mckv-on-ou"),
    pytest.param("verify", {**_OU_ONE_SIDED, "sim": {"seed": "a"}}, id="sim-seed-str"),
    pytest.param("verify", {**_OU_ONE_SIDED, "sim": {"seed": -1}}, id="sim-seed-negative"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"one_sided": {"n_pairs": "8"}}},
                 id="count-str"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"coalescence": {"n_paths": True}}},
                 id="count-bool"),
    pytest.param("verify", {"scenario": "ou", "estimators": {"fk_const": {"c": True}}},
                 id="number-bool"),
    pytest.param("sweep", {"scenario": "ou", "sweep": {
        "estimator": "one_sided", "parameter": "n_pairz", "values": [64, 128]}},
                 id="sweep-parameter"),
    pytest.param("sweep", {"sweep": {"estimator": "lyapunov", "parameter": "delta",
                                     "values": [0.1]}}, id="sweep-no-scenario"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "coupling": "reflection"},
                 id="dump-coupling-kind"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "n_paths": "x"}, id="dump-n-paths"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "pair": {"x0": [1.0, 0.0]}},
                 id="dump-pair-keys"),
    pytest.param("constants", {"sim": {"dt": 0.1}}, id="constants-no-block"),
    pytest.param("verify", {"scenario": "ou"}, id="verify-no-estimators"),
    pytest.param("sweep", _OU_ONE_SIDED, id="sweep-no-sweep"),
    pytest.param("verify", {"model": {"d": 1}, "estimators": {"one_sided": {"n_pairs": 64}}},
                 id="model-no-scenario"),
    pytest.param("verify", {**_OU_ONE_SIDED, "scenario": "ornstein"}, id="unknown-scenario"),
    pytest.param("sweep", {"scenario": "ou", "sweep": {"estimator": "lyapunov",
                                                       "parameter": "delta", "values": 0.1}},
                 id="sweep-values-not-list"),
    pytest.param("constants", {"metric": {"k_matrix": 1.0}}, id="metric-k-matrix-not-list"),
    pytest.param("dump-trajectories", {"sim": {"dt": 1e-2, "t_final": 0.5, "seed": 1},
                                       "coupling": "synchronous"}, id="dump-no-scenario"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "coupling": "brownian"},
                 id="dump-coupling-unknown"),
    # a block the command does not read is checked all the same
    pytest.param("verify", {**_OU_ONE_SIDED, "metric": {"k_matrixx": 1}},
                 id="verify-metric-key"),
    pytest.param("sweep", {"scenario": "ou", "estimators": {"one_sided": {"n_pairz": 10}},
                           "sweep": {"estimator": "lyapunov", "parameter": "delta",
                                     "values": [0.1]}}, id="sweep-other-estimator-key"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "constants": {"rhoo": 1.0}},
                 id="dump-constants-key"),
    pytest.param("constants", {"metric": {"k_matrix": [[1.0]]}, "sim": {"dtt": 0.1}},
                 id="constants-sim-key"),
    # values out of a model's, a metric's or a constants block's range
    pytest.param("verify", {**_OU_ONE_SIDED, "model": {"sigma": -1}}, id="ou-sigma"),
    pytest.param("verify", {**_OU_ONE_SIDED, "model": {"rate": 0}}, id="ou-rate"),
    pytest.param("verify", {**_OU_ONE_SIDED, "model": {"declared_rho": 0}},
                 id="ou-declared-rho"),
    pytest.param("verify", {**_OU_ONE_SIDED, "scenario": "rotating", "model": {"v_width": 0}},
                 id="rotating-v-width"),
    pytest.param("dump-trajectories", {**_KINETIC_DUMP, "model": {"d": 1, "radius": -1}},
                 id="kinetic-radius"),
    pytest.param("constants", {"metric": {"k_matrix": [[1.0, 0.0]]}}, id="metric-k-not-square"),
    pytest.param("constants", {"metric": {"k_matrix": [[-1.0]]}}, id="metric-k-not-pd"),
    pytest.param("constants", {"metric": {"k_matrix": [[1.0]], "lip_outer": -0.01}},
                 id="metric-lip-outer"),
    pytest.param("constants", {"metric": {"k_matrix": [[1.0]], "quad_tol": 0}},
                 id="metric-quad-tol"),
    pytest.param("constants", {"metric": {"k_matrix": [[1.0]], "n_smooth": 0}},
                 id="metric-n-smooth"),
    pytest.param("constants", {"constants": {**_CONSTANTS, "rho": 0}}, id="constants-rho"),
    pytest.param("constants", {"constants": {**_CONSTANTS, "L": -1}}, id="constants-L"),
    pytest.param("constants", {"constants": {**_CONSTANTS, "R": 1}},
                 id="constants-R-without-sup-inner"),
])
def test_config_schema_errors_exit_2_before_running(tmp_path, capsys, command, payload):
    """Each block is checked against the signature of the function it feeds
    before anything runs, with or without --dry-run."""
    out = tmp_path / "out"
    cfg = _write(tmp_path, {**payload, "out_dir": str(out)})
    assert main([command, "--config", cfg]) == 2
    assert not out.exists()
    assert main([command, "--config", cfg, "--dry-run"]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_estimator_table_matches_runner_signatures():
    import inspect

    from nesslsi.cli import _ESTIMATORS

    def cell(p):
        return f"`{p.name}`" if p.default is p.empty else f"`{p.name}={p.default!r}`"

    expected = [
        f"| `{name}` | {kind} | "
        + ", ".join(cell(p) for p in inspect.signature(runner).parameters.values()
                    if p.kind is p.KEYWORD_ONLY)
        + " |"
        for name, (kind, runner) in _ESTIMATORS.items()
    ]
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| estimator | scenario kind | parameters |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    assert rows == expected


# Small verify and sweep configs whose report bytes are pinned.  The last
# grid point of ``sweep_rejected`` lies below t0 = 3, so the estimator
# rejects it and its record holds the error.
_GOLDEN_REPORTS = {
    "verify": {
        "scenario": "ou",
        "sim": {"dt": 1e-2, "t_final": 1.0, "seed": 21},
        "constants": {"rho": 1.0, "sigma": math.sqrt(2.0)},
        "estimators": {
            "one_sided": {"n_pairs": 256},
            "w1_synchronous": {"n_paths": 1000, "pair": {"x0": [1.5], "y0": [-0.5]}},
            "w1_reflection": {"n_paths": 1000},
            "fk_const": {"c": 0.3, "t": 1.0, "n_paths": 64},
            "hyper_bound": {"L": 0.0, "rho": 1.0, "R": 0.0, "sigma": math.sqrt(2.0), "d": 1,
                            "t": 4.0},
        },
    },
    # the runners that reach harnack_check, defective_lsi_check and
    # hypercontractivity_probe
    "verify_ergodic": {
        "scenario": "ou",
        "sim": {"dt": 1e-2, "t_final": 1.0, "seed": 24},
        "estimators": {
            "harnack": {"n_paths": 500, "pair": {"x0": [0.5], "y0": [-0.5]}},
            "defective_lsi": {"n_replicas": 4, "samples_per_replica": 20},
            "hypercontractivity": {"n_outer": 8, "n_inner": 1000},
        },
    },
    "sweep": {
        "scenario": "ou",
        "sim": {"dt": 1e-2, "t_final": 1.0, "seed": 22},
        "estimators": {"fk_const": {"n_paths": 64}},
        "sweep": {"estimator": "fk_const", "parameter": "c", "values": [0.2, 0.5]},
    },
    "sweep_rejected": {
        "estimators": {"hyper_bound": {"L": 0.5, "rho": 1.0, "R": 1.0,
                                       "sigma": math.sqrt(2.0), "d": 1}},
        "sweep": {"estimator": "hyper_bound", "parameter": "t", "values": [6.0, 2.5]},
    },
}

GOLDEN_REPORTS = {
    "verify": "89e55a7f2752382010b84ea9bda5ae9139b4858e902310281fc88f9c763322da",
    "verify_ergodic": "8f870db599cd0a64a8d5b65a1243009c898b96658c4d72cc7b784ad6f9224c6e",
    "sweep": "d5fa76aeec22e7b71580a4c091ed7f94126f96573e196c373658b9a4f71ac56c",
    "sweep_rejected": "449e65aa1246220d12b19357f0030dbffe36ac65c37988a563b310a28a02d33e",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_REPORTS))
def test_report_golden_hash(tmp_path, capsys, case):
    """The report of a small run reproduces its pinned bytes, apart from the
    wall clock, the library versions and the output directory."""
    import hashlib

    out = tmp_path / "out"
    command = "verify" if case.startswith("verify") else "sweep"
    cfg = _write(tmp_path, {**_GOLDEN_REPORTS[case], "out_dir": str(out)})
    main([command, "--config", cfg])
    report = json.loads((out / f"{command}_report.json").read_text())
    for key in ("wall_clock_s", "versions"):
        report.pop(key, None)
    del report["config"]["out_dir"]
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS[case]
    capsys.readouterr()


def test_constants_with_overflowing_harnack_factors_writes_a_report(tmp_path, capsys):
    """A Harnack factor whose exponent overflows exp is inf, as the
    hypercontractivity bound is: the report is written, strict JSON, with a
    null and a ``non_finite`` entry for each factor (k_w = L R = 250)."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    out = tmp_path / "out"
    cfg = _write(tmp_path, {"constants": {"L": 5, "rho": 0.01, "R": 50, "sigma": 0.01, "d": 1,
                                          "sup_inner": 10},
                            "out_dir": str(out)})
    assert main(["constants", "--config", cfg]) == 0
    report = json.loads((out / "constants_report.json").read_text(), parse_constant=reject)
    factors = {f"/harnack_factors/{i}/factor": "inf" for i in range(6)}
    assert factors.items() <= report["non_finite"].items()
    assert all(row["factor"] is None for row in report["harnack_factors"])
    capsys.readouterr()


# Configs whose reports hold numbers that JSON cannot: one_sided on ou has
# no pair inside R = 0 (max ratio -inf); the hypercontractivity bound
# saturates to inf at rho = 0.01, and so do A and C_LS.
_SATURATING = {"L": 1.0, "rho": 0.01, "R": 1.0, "sigma": 1.0, "d": 1}
_NON_FINITE_REPORTS = {
    "verify": (_GOLDEN_REPORTS["verify"], {"/records/0/max_ratio_inside": "-inf"}),
    "sweep": ({"estimators": {"hyper_bound": _SATURATING},
               "sweep": {"estimator": "hyper_bound", "parameter": "t", "values": [1e3, 1e4]}},
              {"/records/0/bound": "inf", "/records/1/bound": "inf"}),
    "constants": ({"constants": {**_SATURATING, "sup_inner": 1.0}},
                  {"/constants/A": "inf", "/constants/C_LS": "inf",
                   "/hypercontractivity/bound_at_2t0": "inf"}),
}


@pytest.mark.parametrize("command", sorted(_NON_FINITE_REPORTS))
def test_reports_are_strict_json(tmp_path, capsys, command):
    """A report, and the copy that ``constants`` prints, parses under a
    strict JSON reader: a non-finite number is written as null, and the
    top-level ``non_finite`` key maps its path to the value it had."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    config, replaced = _NON_FINITE_REPORTS[command]
    out = tmp_path / "out"
    main([command, "--config", _write(tmp_path, {**config, "out_dir": str(out)})])
    report = json.loads((out / f"{command}_report.json").read_text(), parse_constant=reject)
    assert report["non_finite"] == replaced
    for pointer in replaced:
        node = report
        for key in pointer.split("/")[1:]:
            node = node[int(key) if isinstance(node, list) else key]
        assert node is None
    printed = capsys.readouterr().out
    if command == "constants":
        # the copy on standard output is the report without its config
        report.pop("config")
        assert json.loads(printed, parse_constant=reject) == report
