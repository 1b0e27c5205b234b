"""Span recording around the public functions of each nesslsi module, and
the per-layer aggregation of the recorded spans.

Nothing here edits library code.  ``Tracer.install`` replaces every public
function of the six modules (``cli``, ``constants``, ``metric``, ``models``,
``simulate``, ``estimators``) by a recording wrapper in every namespace that
holds it, because callers look functions up there: ``estimators`` binds
``em_path`` at import, so ``nesslsi.estimators.em_path`` is wrapped as well
as ``nesslsi.simulate.em_path``.  Drift fields are closures on model objects,
so the models returned by ``make_scenario`` and the fields returned by
``derive_elliptic_fields`` get wrapped instance attributes.

A span is (id, parent id, name, start, end, thread, counts).  All spans of
one workload process share the run id written next to them.  Counts such as
path-steps, normals drawn, drift rows and recorded bytes are computed from
call arguments and results, never measured, so they repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time

LAYERS = ("cli", "constants", "metric", "models", "simulate", "estimators")

# CLI helpers that are private but mark the config and report-writing phases.
CLI_PHASES = {
    "_load_config": "cli.config",
    "_sim_config": "cli.config",
    "_model_from": "cli.config",
    "_write_json": "cli.report_write",
    "_write_csv": "cli.report_write",
}

# Public estimator function -> estimator name used in reports and metrics.
ESTIMATOR_LABELS = {
    "coalescence_probability": "coalescence",
    "lyapunov_expectation": "lyapunov",
    "harnack_check": "harnack",
    "defective_lsi_check": "defective_lsi",
    "hypercontractivity_probe": "hypercontractivity",
    "feynman_kac_h": "feynman_kac_h",
    "u_lipschitz_scan": "u_lipschitz_scan",
    "mckv_fixed_point": "mckv",
}
# CLI record names whose estimator function carries another label.
RECORD_LABELS = {"fk_const": "feynman_kac_h"}

COUPLINGS = ("em_path", "synchronous_pair", "reflection_pair", "kinetic_coupled_pair")
FIELDS = ("drift", "control_drift", "b_tilde", "phi")
ESTIMATORS = (
    "w1_synchronous", "w1_reflection", "w1_kinetic", "coalescence", "lyapunov",
    "harnack", "defective_lsi", "hypercontractivity", "feynman_kac_h", "u_lipschitz_scan",
)
WORK_COUNTS = ("path_steps", "normals", "rows", "recorded_bytes")
REL_STDERR_ESTIMATORS = ("lyapunov", "hypercontractivity", "feynman_kac_h", "u_lipschitz_scan")


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _noise_counts(args, kwargs, out):
    return {"normals": int(out.size)}


def _field_counts(args, kwargs, out):
    return {"rows": _rows(args[0] if args else next(iter(kwargs.values())))}


def _path_counts(bound, out):
    n_paths = int(bound.arguments.get("n_paths", 1))
    counts = {"path_steps": n_paths * bound.arguments["cfg"].n_steps}
    if hasattr(out, "states"):
        counts["recorded_bytes"] = int(out.states.nbytes)
    else:
        counts["recorded_bytes"] = sum(
            int(a.nbytes) for a in (out.z, out.z_prime, out.rc, out.sc) if a is not None
        )
    if getattr(out, "mode", "") == "reflection":
        dt, n_steps = bound.arguments["cfg"].dt, bound.arguments["cfg"].n_steps
        merged = 0
        for t in out.merge_time:
            if not math.isnan(t):
                merged += n_steps - int(round(t / dt))
        counts["merged_steps"] = merged
    return counts


def _fk_counts(bound, out):
    a = bound.arguments
    steps = int(math.ceil(a["T"] / a["cfg"].dt - 1e-12))
    return {"label": "feynman_kac_h", "path_steps": int(a["n_paths"]) * steps,
            "rel_stderr": _rel(out.stderr, out.value)}


def _rel(stderr: float, value: float) -> float:
    return abs(stderr / value) if value else math.inf


def _estimator_counts(name):
    def counts(bound, out):
        if name == "w1_contraction":
            return {"label": f"w1_{bound.arguments['kind']}"}
        c = {"label": ESTIMATOR_LABELS[name]}
        if name == "lyapunov_expectation":
            c["rel_stderr"] = _rel(out.stderr, out.value)
        elif name == "hypercontractivity_probe":
            c["rel_stderr"] = _rel(out.ratio.stderr, out.ratio.value)
        elif name == "u_lipschitz_scan":
            c["rel_stderr"] = float(max(out.u_stderr))
        return c
    return counts


def _bound_counts(fn, counter):
    sig = inspect.signature(fn)

    def counts(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return counter(bound, out)
    return counts


class Tracer:
    """Records spans in memory; ``dump`` returns them for writing at the end."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, name: str, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if tracer._root is None:
                tracer._root = sid
            stack.append(sid)
            out = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = counts(args, kwargs, out) if counts is not None and out is not None else None
                tracer.spans.append(
                    [sid, parent, name, t0, t1, threading.get_ident(), extra]
                )
        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        import nesslsi
        from nesslsi import cli, constants, estimators, metric, models, simulate

        modules = [nesslsi, cli, constants, metric, models, simulate, estimators]
        replaced = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_"):
                    if mod is cli and attr in CLI_PHASES:
                        replaced[fn] = self.wrap(CLI_PHASES[attr], fn)
                    continue
                replaced[fn] = self.wrap(f"{layer}.{attr}", fn, self._counter(layer, attr, fn))
        make_scenario = replaced[models.make_scenario]
        derive_fields = replaced[models.derive_elliptic_fields]
        replaced[models.make_scenario] = lambda *a, **k: self.instrument(make_scenario(*a, **k))
        replaced[models.derive_elliptic_fields] = lambda *a, **k: self.instrument(
            derive_fields(*a, **k)
        )
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in replaced:
                    setattr(mod, attr, replaced[val])

    def _counter(self, layer: str, attr: str, fn):
        if attr == "noise_normals":
            return _noise_counts
        if layer == "simulate" and attr in COUPLINGS + ("harnack_pair",):
            return _bound_counts(fn, _path_counts)
        if attr == "feynman_kac_h":
            return _bound_counts(fn, _fk_counts)
        if layer == "estimators" and (attr in ESTIMATOR_LABELS or attr == "w1_contraction"):
            return _bound_counts(fn, _estimator_counts(attr))
        return None

    def instrument(self, obj):
        """Wrap the drift fields held by a model or derived-fields object."""
        for field in FIELDS:
            fn = vars(obj).get(field) if hasattr(obj, "__dict__") else None
            if fn is None and field == "control_drift" and hasattr(type(obj), "control_drift"):
                fn = obj.control_drift
            if callable(fn):
                object.__setattr__(obj, field, self.wrap(f"models.{field}", fn, _field_counts))
        return obj

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["id", "parent", "name", "start", "end", "thread", "counts"],
                "spans": self.spans}


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def aggregate(spans: list[list], records: list[dict], threads: int) -> dict:
    """Per-layer metrics of one traced process from its spans and records.

    Self time subtracts only children on the span's own thread: a pool
    thread's estimator overlaps its waiting parent instead of nesting in it.
    Work counts are credited to every estimator span around them.
    """
    spans = sorted(spans, key=lambda s: s[0])       # ids grow with start time
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    labels: dict[int, tuple] = {}
    layers_above: dict[int, frozenset] = {}
    for sid, parent, name, t0, t1, thread, counts in spans:
        if parent in by_id and by_id[parent][5] == thread:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        own = (counts["label"],) if counts and "label" in counts else ()
        labels[sid] = labels.get(parent, ()) + own
        layers_above[sid] = frozenset()
        if parent in by_id:
            layers_above[sid] = layers_above[parent] | {by_id[parent][2].split(".")[0]}

    stats: dict[str, dict] = {}
    work: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_total = dict.fromkeys(LAYERS, 0.0)
    est_busy = root_s = 0.0
    for sid, parent, name, t0, t1, _thread, counts in spans:
        dur, counts = t1 - t0, counts or {}
        self_s = dur - child_time.get(sid, 0.0)
        key = f"estimators.{counts['label']}" if "label" in counts else name
        st = stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["s"] += dur
        st["self_s"] += self_s
        for k, v in counts.items():
            if k == "rel_stderr":
                st[k] = max(st.get(k, 0.0), v)
            elif k != "label":
                st[k] = st.get(k, 0) + v
        for label in set(labels[sid]):
            acc = work.setdefault(label, {})
            for k in WORK_COUNTS:
                if k in counts:
                    acc[k] = acc.get(k, 0) + counts[k]
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += self_s
            if layer not in layers_above[sid]:
                layer_total[layer] += dur
        if parent is None:
            root_s += dur
        if "label" in counts and len(labels[sid]) == 1:
            est_busy += dur

    def g(key, field, default=0):
        return stats.get(key, {}).get(field, default)

    m: dict[str, float] = {}
    noise = "simulate.noise_normals"
    m[f"{noise}.calls"] = g(noise, "calls")
    m[f"{noise}.s"] = g(noise, "s", 0.0)
    m[f"{noise}.us_per_call"] = _ratio(m[f"{noise}.s"] * 1e6, m[f"{noise}.calls"])
    m[f"{noise}.normals"] = g(noise, "normals")
    for c in COUPLINGS:
        key = f"simulate.{c}"
        m[f"{key}.s"] = g(key, "s", 0.0)
        m[f"{key}.self_s"] = g(key, "self_s", 0.0)
        m[f"{key}.path_steps"] = g(key, "path_steps")
        m[f"{key}.ns_per_path_step"] = _ratio(m[f"{key}.s"] * 1e9, m[f"{key}.path_steps"])
    m["simulate.reflection_pair.merged_step_frac"] = _ratio(
        g("simulate.reflection_pair", "merged_steps"), m["simulate.reflection_pair.path_steps"])
    for f in FIELDS:
        key = f"models.{f}"
        m[f"{key}.calls"] = g(key, "calls")
        m[f"{key}.rows"] = g(key, "rows")
        m[f"{key}.s"] = g(key, "s", 0.0)
        m[f"{key}.ns_per_row"] = _ratio(m[f"{key}.s"] * 1e9, m[f"{key}.rows"])
    for f in ("build_metric", "rho_star"):
        m[f"metric.{f}.calls"] = g(f"metric.{f}", "calls")
        m[f"metric.{f}.s"] = g(f"metric.{f}", "s", 0.0)
    m["constants.s"] = layer_total["constants"]
    m["cli.config_s"] = g("cli.config", "s", 0.0)
    m["cli.report_write_s"] = g("cli.report_write", "s", 0.0)
    m["cli.pool_busy_frac"] = _ratio(est_busy, threads * root_s)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    failed: dict[str, int] = {}
    for rec in records:
        label = RECORD_LABELS.get(rec["estimator"], rec["estimator"])
        failed[label] = failed.get(label, 0) + int(record_failed(rec))
    for e in ESTIMATORS:
        key = f"estimators.{e}"
        w = work.get(e, {})
        m[f"{key}.s"] = g(key, "s", 0.0)
        m[f"{key}.self_s"] = g(key, "self_s", 0.0)
        m[f"{key}.path_steps"] = w.get("path_steps", 0)
        m[f"{key}.path_steps_per_s"] = _ratio(m[f"{key}.path_steps"], m[f"{key}.s"])
        m[f"{key}.recorded_bytes"] = w.get("recorded_bytes", 0)
        m[f"{key}.failed"] = failed.get(e, 0)
        if e in REL_STDERR_ESTIMATORS:
            m[f"{key}.rel_stderr"] = g(key, "rel_stderr", 0.0)
    extra = {f"estimators.{e}.{k}": work.get(e, {}).get(k, 0)
             for e in ESTIMATORS for k in ("normals", "rows")}
    extra["spans"] = len(spans)
    return {"metrics": m, "extra": extra}


def record_failed(rec: dict) -> bool:
    """A check failed when its flag is False, it raised, or it aborted."""
    return rec.get("flag") is False or "error" in rec or bool(rec.get("aborted"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
