"""nesslsi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``ou-battery``, ``kinetic-sweep``, ``fk-scan`` or ``all``.  Each
repeat runs the workload as a fresh process, built from ``src/`` of the
checkout this file sits in, until S seconds are used (at least three
repeats untraced).  With ``--trace 0`` the end-to-end metrics are measured
from outside the process and reported as medians over the repeats.  Each
untraced launch is bracketed by two blocks of a fixed reference computation
(``host_reference``); its times are scaled to a nominal host speed by the
mean of those two blocks (see README.md, "Host-speed scaling").  With
``--trace 1`` untraced and traced processes alternate; the per-layer metrics
come from the traced ones and ``trace.overhead_s`` is the difference of the
two median wall times.  Every repeat checks its report: the flags of its
checks, NaNs, and a hash of its numeric outputs that every repeat
of one seed, traced or not, must reproduce.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of the run
(environment, every repeat, the spans of the last traced process) are
written to ``.perfbench/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import aggregate, record_failed  # noqa: E402
from workloads import THREADS, WORKLOADS, headline, write_inputs  # noqa: E402

END_TO_END = {"wall_s": "s", "time_to_1pct_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0          # no repeat starts that would end the run later than this
EXCLUDED_KEYS = {"wall_clock_s", "versions", "out_dir"}
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REF_SECONDS = 0.5            # length of one host-speed reference block
REF_NOMINAL_S = 0.025        # reference chunk time that defines the nominal host speed
SCALED = ("wall_s", "time_to_1pct_s", "setup_s")   # every timing; not peak_rss_mb
_REF_GEN = np.random.Generator(np.random.Philox(0))


def host_reference(seconds: float = REF_SECONDS) -> float:
    """Mean seconds per chunk of a fixed computation repeated for ``seconds``.

    A chunk draws 8 x 131,072 standard normals from Philox, as the library's
    noise does.  On a shared host the speed of such work drifts by up to
    40 % over seconds to minutes, and the workloads drift with it.  Of the
    reference loops tried (pure Python, numpy arithmetic on small and on
    1 MB arrays, Philox normals), this one tracked the workloads' own
    repeat times best.
    """
    times = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        t0 = time.perf_counter()
        for _ in range(8):
            _REF_GEN.standard_normal(131072)
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def output_hash(report: dict) -> str:
    """sha256 of the report without wall clock, versions and paths."""
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items() if k not in EXCLUDED_KEYS}
        if isinstance(obj, list):
            return [clean(v) for v in obj]
        return obj
    text = json.dumps(clean(report), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def count_nan(obj) -> int:
    """NaNs in a report.  Infinities can be sentinels (the max of no samples)."""
    if isinstance(obj, float):
        return int(math.isnan(obj))
    if isinstance(obj, dict):
        return sum(count_nan(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(count_nan(v) for v in obj)
    return 0


def spawn(spec_path: Path, result_path: Path, mode: str, work: Path, tag: str):
    """Run child.py as a fresh process; return (launch time, wall, exit code, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    argv = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), mode]
    with open(work / f"stdout-{tag}.txt", "w") as out, open(work / f"stderr-{tag}.txt", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage


def run_once(workload: str, spec_path: Path, work: Path, index: int, trace: bool,
             record_env: bool) -> dict:
    """Run one workload process and check its report."""
    spec = json.loads(spec_path.read_text())
    spec["run_id"] = f"{spec['run_id']}-r{index}"
    spec["record_env"] = record_env
    rep_spec = work / f"spec-r{index}.json"
    rep_spec.write_text(json.dumps(spec))
    result_path = work / f"child-r{index}.json"
    report_path = Path(spec["report"])
    if report_path.exists():
        report_path.unlink()
    t0, wall, code, usage = spawn(rep_spec, result_path, "1" if trace else "0", work, f"r{index}")
    rep = {"index": index, "traced": trace, "exit_code": code, "wall_s": wall,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "cpu_s": usage.ru_utime + usage.ru_stime,
           "preempted": usage.ru_nivcsw, "ok": False}
    if code != 0 or not result_path.exists() or not report_path.exists():
        rep["error"] = f"workload process failed, see {work}/stderr-r{index}.txt"
        return rep
    state = json.loads(result_path.read_text())
    report = json.loads(report_path.read_text())
    records = report["records"]
    checked = [r for r in records if r.get("flag") is not None or "error" in r]
    head_s, rel = headline(workload, state, report, wall)
    rep.update(
        rc=state["rc"],
        setup_s=state["first_step_mono"] - t0,
        headline_s=head_s,
        rel_stderr=rel,
        time_to_1pct_s=head_s * (rel / 0.01) ** 2,
        hash=output_hash(report),
        nan=count_nan(report),
        attempted=len(checked),
        failed=sum(record_failed(r) for r in checked),
        flags={r["estimator"] + (f"[{i}]" if "sweep_value" in r else ""): r.get("flag")
               for i, r in enumerate(records)},
        versions=state.get("versions"),
        from_checkout=Path(state["nesslsi_file"]).resolve().is_relative_to(ROOT / "src"),
    )
    rep["ok"] = rep["rc"] in (0, 1) and rep["nan"] == 0 and rep["from_checkout"]
    if trace:
        rep["layers"] = aggregate(state["trace"]["spans"], records, THREADS[workload])
    else:
        result_path.unlink()     # keep only the traced processes' spans on disk
    return rep


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg(), "pinned": PINNED_ENV}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        env["cpu"] = next(l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name"))
    except (OSError, StopIteration):
        env["cpu"] = "unknown"
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = \
                (idx / "size").read_text().strip()
        except OSError:
            pass
    env["caches"] = caches
    env["git_sha"] = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False).stdout.strip()
        env["git_sha"] = sha or env["git_sha"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    spec_path = write_inputs(workload, seed, work, f"{workload}-s{seed}")
    reps: list[dict] = []
    refs: list[float] = []       # reference blocks: one before the first repeat, one after each
    t_start = time.monotonic()
    plan = [False, True] if trace else [False]
    if not trace:
        refs.append(host_reference())
    while True:
        for traced in plan:
            reps.append(run_once(workload, spec_path, work, len(reps), traced,
                                 record_env=not reps))
            if not trace:
                refs.append(host_reference())
                reps[-1]["ref_s"] = (refs[-2] + refs[-1]) / 2
        if not all(r["ok"] for r in reps):
            break
        elapsed = time.monotonic() - t_start
        cycle = sum(statistics.median(r["wall_s"] for r in reps if r["traced"] == t)
                    for t in plan)
        if not trace:
            cycle += REF_SECONDS * 1.2
        enough = trace or len(reps) >= MIN_REPEATS
        if (enough and elapsed + cycle > seconds) or elapsed + cycle > RUN_LIMIT_S:
            break

    hashes = {r.get("hash") for r in reps}
    correct = all(r["ok"] for r in reps) and len(hashes) == 1
    plain = [r for r in reps if not r["traced"] and r["ok"]]
    summary = {"workload": workload, "seed": seed, "trace": trace, "env": env,
               "versions": reps[0].get("versions"), "hashes": sorted(h for h in hashes if h),
               "repeats": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
               "reference_s": refs, "reference_nominal_s": REF_NOMINAL_S}
    metrics: dict[str, dict] = {}
    lines = []
    if correct and not trace:
        for name, unit in END_TO_END.items():
            scale = (lambda r: REF_NOMINAL_S / r["ref_s"]) if name in SCALED else (lambda r: 1.0)
            values = [r[name] * scale(r) for r in plain]
            q1, value, q3 = quartiles(values)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<16} {value:12.6g} {unit:<3} q1 {q1:.6g}  q3 {q3:.6g}  "
                         f"max {max(values):.6g}  n={len(values)}"
                         + (f"  (unscaled median {statistics.median(r[name] for r in plain):.6g})"
                            if name in SCALED else ""))
        lines.append(f"  {'host speed':<16} {REF_NOMINAL_S / statistics.median(refs):12.6g}     "
                     f"(nominal / measured reference chunk time, median of {len(refs)} blocks)")
        lines.append(f"  {'rel_stderr':<16} {plain[0]['rel_stderr']:12.6g}     "
                     f"(headline estimator, same for every repeat of a seed)")
    elif correct:
        traced = [r for r in reps if r["traced"]]
        layer_runs = [r["layers"]["metrics"] for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        layer_metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
        layer_metrics["trace.overhead_s"] = overhead
        for name, value in layer_metrics.items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
            lines.append(f"  {name:<52} {value:14.6g} {layer_unit(name)}")
        summary["layers_extra"] = traced[-1]["layers"]["extra"]
        for name, value in summary["layers_extra"].items():
            lines.append(f"  {name:<52} {value:14.6g} count (not in metrics)")
        lines.append(f"  traced wall_s {statistics.median(r['wall_s'] for r in traced):.4f} s, "
                     f"untraced wall_s {statistics.median(r['wall_s'] for r in plain):.4f} s")
    attempted = sum(r.get("attempted", 0) for r in reps)
    failed = sum(r.get("failed", 0) for r in reps)
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": failed if attempted else 1, "metrics": metrics}
    summary["result"] = result
    (work / "result.json").write_text(json.dumps(summary, indent=2, default=str))

    print(f"perfbench {workload} seed={seed} trace={int(trace)} repeats={len(reps)} "
          f"correct={correct}")
    print(f"  env: nproc={env['nproc']} cpu={env['cpu']} caches={env['caches']} "
          f"load={env['loadavg_start']} versions={summary['versions']} "
          f"git={env['git_sha']} src_sha256={env['src_sha256'][:16]}")
    print(f"  output hash: {', '.join(summary['hashes']) or 'none'}")
    print(f"  failed_frac: {failed}/{attempted} checks"
          f"{'' if failed == 0 else ' ' + str(reps[-1].get('flags'))}")
    for r in reps:
        if not r["ok"]:
            print(f"  repeat {r['index']} not ok: {r.get('error') or r.get('flags')}")
    print("\n".join(lines))
    return result


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last in ("s", "self_s", "config_s", "report_write_s", "overhead_s"):
        return "s"
    return {"us_per_call": "us", "ns_per_path_step": "ns", "ns_per_row": "ns",
            "path_steps_per_s": "1/s", "recorded_bytes": "B", "merged_step_frac": "frac",
            "pool_busy_frac": "frac", "rel_stderr": "frac"}.get(last, "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still stops and reaps its workload process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "nesslsi" / "__init__.py").is_file():
        print(f"error: no nesslsi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
