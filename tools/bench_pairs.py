"""Paired benchmark runs of two commits, written as ``BENCH_<N>.json``.

    python3 tools/bench_pairs.py --parent REV [--change REV] --number N \\
        [--traced METRIC ...] [--workdir DIR]

Both commits are exported with ``git archive`` into a scratch directory (a
plain copy of the committed files: nothing is added to the repository's
``.git``, and an interrupted run leaves nothing to prune).  For each
workload (all three) and seed (1 and 2), ``perfbench/run.py --trace 0`` of
the two copies runs for perfbench's documented 38 s in 10 pairs, the parent
first in odd rounds and the change first in even ones, so that a drift of
the host's speed falls on both sides alike.

The output, ``BENCH_<N>.json`` at the repository root, has per workload,
seed and side the number of runs, the output hashes, the failed and
attempted checks summed over the runs, and for each end-to-end metric the
median, the quartiles (``statistics.quantiles(runs, n=4)``) and the per-run
values of the run medians that perfbench reports.  ``<metric>_wins`` counts
the pairs in which the change's value is lower.  ``src_lines`` gives, per
side, the newlines in ``src/nesslsi/*.py`` of its export (the total that
``wc -l`` prints).  With ``--traced``, one
``--trace 1`` run per side, workload and seed adds the named per-layer
metrics.  The file is rewritten after every pair, so a cut run keeps what
it measured.

``verdicts`` gives, per workload and seed, ``outputs_identical``: whether
the two sides' lists of output hashes are equal.  Per workload and
end-to-end metric of ``BENCHMARK.json`` (whose ``better`` and ``bound`` it
reads), it gives:

* ``claim``: ``met`` when the change is better in at least nine in ten of
  all pairs, over both seeds (ties count for neither side), at each seed
  the gap between the medians exceeds the parent's interquartile range,
  and no seed has a larger share of failed checks on the change's side;
  otherwise ``not met``;
* ``regression``: ``regressed`` when at some seed the change's median is
  worse than the parent's by more than ``bound`` (relative), or its share
  of failed checks is larger; ``unresolved`` when neither holds but at some
  seed the runs of a side spread by more than ``bound`` (interquartile
  range over median) and not every run of the change is better than every
  run of the parent; ``ok`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKLOADS = ("ou-battery", "kinetic-sweep", "fk-scan")
SEEDS = (1, 2)
PAIRS = 10
SECONDS = 38


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The files of commit ``rev`` under ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    tar_path = dest.with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()


def src_lines(checkout: Path) -> int:
    """The newlines in ``src/nesslsi/*.py`` under ``checkout``."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "nesslsi").glob("*.py"))


def run_bench(checkout: Path, workload: str, seed: int, trace: bool) -> dict:
    """One ``perfbench/run.py`` run: its final JSON line plus the details
    (hashes, environment) of its ``result.json``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(int(trace))]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    final = json.loads(out.strip().splitlines()[-1])
    detail = json.loads((checkout / ".perfbench" / f"{workload}-s{seed}-t{int(trace)}"
                         / "result.json").read_text())
    return {"final": final, "hashes": detail["hashes"], "env": detail["env"],
            "versions": detail["versions"]}


def side_summary(runs: list[dict]) -> dict:
    """Runs, hashes, checks and per-metric statistics of one side."""
    out = {
        "runs": len(runs),
        "hashes": sorted({h for r in runs for h in r["hashes"]}),
        "failed": sum(r["final"]["failed"] for r in runs),
        "attempted": sum(r["final"]["attempted"] for r in runs),
        "correct": all(r["final"]["correct"] for r in runs),
    }
    names = [n for n in runs[0]["final"]["metrics"]
             if all(n in r["final"]["metrics"] for r in runs)]
    for name in names:
        values = [r["final"]["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "runs": [round(v, 5) for v in values]}
    return out


def wins(parent: list[dict], change: list[dict]) -> dict:
    """``<metric>_wins``: in how many pairs the change's value is lower."""
    out = {}
    for name in change[0]["final"]["metrics"]:
        pairs = [(p["final"]["metrics"].get(name), c["final"]["metrics"].get(name))
                 for p, c in zip(parent, change)]
        pairs = [(p["value"], c["value"]) for p, c in pairs if p and c]
        if pairs:
            out[f"{name}_wins"] = f"{sum(c < p for p, c in pairs)} of {len(pairs)}"
    return out


def verdicts(workloads: dict, metrics: list[dict]) -> dict:
    """The claim and regression verdicts of every workload and metric (see
    the module docstring) from the per-seed entries written so far."""
    out = {}
    for workload, seeds in workloads.items():
        out[workload] = {"outputs_identical": {
            seed: entry["parent"]["hashes"] == entry["change"]["hashes"]
            for seed, entry in seeds.items()}}
        failed = {side: [seeds[s][side]["failed"] / max(seeds[s][side]["attempted"], 1)
                         for s in seeds] for side in SIDES}
        checks_worse = any(c > p for p, c in zip(failed["parent"], failed["change"]))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            won = total = 0
            gaps_clear, worse, spread = True, {}, False
            for seed, entry in seeds.items():
                parent, change = entry["parent"].get(name), entry["change"].get(name)
                if parent is None or change is None:
                    continue
                pairs = list(zip(parent["runs"], change["runs"]))
                won += sum(sign * (p - c) > 0 for p, c in pairs)
                total += len(pairs)
                gap = sign * (parent["median"] - change["median"])
                gaps_clear &= gap > parent["q3"] - parent["q1"]
                worse[seed] = -gap / abs(parent["median"]) if parent["median"] else 0.0
                spread |= (any(side["q3"] - side["q1"] > bound * abs(side["median"])
                               for side in (parent, change))
                           and not all(sign * (p - c) > 0 for p in parent["runs"]
                                       for c in change["runs"]))
            if not total:
                continue
            if checks_worse or any(w > bound for w in worse.values()):
                regression = "regressed"
            else:
                regression = "unresolved" if spread else "ok"
            out[workload][name] = {
                "pairs_won": f"{won} of {total}",
                "claim": ("met" if won >= 0.9 * total and gaps_clear and not checks_worse
                          else "not met"),
                "relative_change": {seed: round(w, 4) for seed, w in worse.items()},
                "regression": regression,
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="the commit measured against")
    parser.add_argument("--change", default="HEAD", help="the commit measured (default HEAD)")
    parser.add_argument("--number", required=True, help="N of the written BENCH_<N>.json")
    parser.add_argument("--traced", nargs="*", default=[],
                        help="per-layer metrics to record from one traced run per side")
    parser.add_argument("--workdir", default=None, help="scratch directory (default: a temp dir)")
    args = parser.parse_args(argv)

    revs = {"parent": _git("rev-parse", args.parent), "change": _git("rev-parse", args.change)}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-", dir=args.workdir))
    out_path = ROOT / f"BENCH_{args.number}.json"
    command = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
    bench = {
        "command": f"{command} --trace 0",
        "pairing": ("parent and change run in pairs per workload and seed; the parent runs "
                    "first in odd rounds and the change in even rounds; "
                    f"{PAIRS} pairs per workload and seed"),
        "parent": revs["parent"],
        "change": revs["change"],
        "fields": ("per side: number of runs, output hashes, failed and attempted checks "
                   "summed over runs, and for each end-to-end metric the median, quartiles "
                   "(statistics.quantiles(runs, n=4)) and per-run values of the run medians "
                   "that perfbench reports; per workload and seed, <metric>_wins counts the "
                   "pairs in which the change's value is lower; verdicts (outputs_identical "
                   "per workload and seed, then claim and regression per metric) as in "
                   "tools/bench_pairs.py's docstring, relative_change being the change's "
                   "median minus the parent's over the parent's, signed so that worse is "
                   "positive"),
        "host": None,
        "workloads": {},
    }
    try:
        checkouts = {side: work / side for side in SIDES}
        for side in SIDES:
            export(revs[side], checkouts[side])
        bench["src_lines"] = {side: src_lines(checkouts[side]) for side in SIDES}
        for workload in WORKLOADS:
            for seed in SEEDS:
                runs = {side: [] for side in SIDES}
                for round_ in range(1, PAIRS + 1):
                    for side in SIDES if round_ % 2 else SIDES[::-1]:
                        run = run_bench(checkouts[side], workload, seed, False)
                        runs[side].append(run)
                        print(f"{workload} seed {seed} round {round_} {side}: wall_s "
                              f"{run['final']['metrics'].get('wall_s', {}).get('value')}",
                              file=sys.stderr, flush=True)
                    if bench["host"] is None:
                        env, first = runs["parent"][0]["env"], runs["parent"][0]
                        bench["host"] = {k: env.get(k) for k in ("nproc", "cpu", "caches",
                                                                  "pinned")}
                        bench["host"]["versions"] = first["versions"]
                    entry = {side: side_summary(runs[side]) for side in SIDES}
                    entry.update(wins(runs["parent"], runs["change"]))
                    bench["workloads"].setdefault(workload, {})[f"seed {seed}"] = entry
                    bench["verdicts"] = verdicts(bench["workloads"], metrics)
                    out_path.write_text(json.dumps(bench, indent=1) + "\n")
        if args.traced:
            bench["traced"] = {"command": f"{command} --trace 1",
                               "note": "one run per side, workload and seed; per-layer "
                                       "metrics of the traced processes (medians over its "
                                       "traced repeats)"}
            for workload in WORKLOADS:
                for seed in SEEDS:
                    entry = {}
                    for side in SIDES:
                        metrics = run_bench(checkouts[side], workload, seed,
                                            True)["final"]["metrics"]
                        entry[side] = {m: metrics.get(m, {}).get("value") for m in args.traced}
                    bench["traced"][f"{workload} seed {seed}"] = entry
                    out_path.write_text(json.dumps(bench, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
