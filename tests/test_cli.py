import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
    """Only the kinetic metric and mckv use scipy; importing the package and
    its CLI must not load scipy.interpolate or scipy.optimize."""
    src = str(Path(nesslsi.__file__).resolve().parents[1])
    code = ("import sys, nesslsi, nesslsi.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


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
    # blocks that must be JSON objects, and an estimator argument it rejects
    base = {"scenario": "ou", "estimators": {"one_sided": {"n_pairs": 64}},
            "out_dir": str(tmp_path / "out")}
    for i, patch in enumerate([
        {"constants": 5},
        {"model": [1]},
        {"sim": 3},
        {"metric": "k"},
        {"pair": [0.0, 1.0]},
        {"estimators": ["one_sided"]},
        {"estimators": {"one_sided": 64}},
        {"sweep": [1, 2]},
        {"estimators": {"w1_synchronous": {"n_paths": 10}}},
    ]):
        cfg = _write(tmp_path, {**base, **patch}, name=f"block{i}.json")
        assert main(["verify", "--config", cfg]) == 2, patch
        assert not (tmp_path / "out").exists(), patch
    err = capsys.readouterr().err
    assert "config error: w1_synchronous: need n_paths >= 1000" in err


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
    capsys.readouterr()


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
    assert main(["sweep", "--config", cfg]) == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert "error" not in report["records"][0]
    assert "error" in report["records"][1]
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
