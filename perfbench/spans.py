"""Per-layer spans, recorded from outside the program.

:class:`Tracer` replaces, for the duration of a ``with`` block, the names
that ``adc_miner`` and ``adc_enum`` call with timing wrappers, and tags the
Spark work of the evidence scan and of ``vios`` with ``sc.setJobGroup`` so
that job, stage and task counts can be read back from ``statusTracker()``.
Nothing under ``src/`` is edited. A wrapped name that no longer exists is
reported as an absent span; the untraced run never installs a wrapper.

Spans of one ``adc_miner`` call share its call id. Two layers have no public
function of their own, so their spans run between neighbouring marks:

- ``predicate_space``: call start → end of ``build_predicate_space`` (this
  includes the ``df.limit(...).toPandas()`` the miner feeds it);
- ``sample``: end of ``predicate_space`` → start of the evidence scan (the
  miner's ``df.sample``, ``with_rid``, ``cache`` and ``count``).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time

#: (span, module, attribute path) — the names the pipeline looks up at call time
TARGETS = (
    ("predicate_space", "repro.core.miner", "build_predicate_space"),
    ("evidence_scan", "repro.core.miner", "build_evidence_spark"),
    ("vios", "repro.core.miner", "build_vios_spark"),
    ("matrix_build", "repro.core.enumerate", "ADCEnum.__init__"),
    ("enumerate", "repro.core.enumerate", "ADCEnum.run"),
    ("to_dcs", "repro.core.miner", "hitting_sets_to_dcs"),
)
#: modules whose ApproximationFunction subclasses get their ``passes`` timed
#: (and their ``score`` watched, to see which ``passes`` calls never score)
FUNCTION_MODULES = ("repro.core.functions", "repro.sampling.threshold")
#: spans laid end to end along one call; ``functions`` nests in ``enumerate``
STAGES = ("predicate_space", "sample", "evidence_scan", "vios",
          "matrix_build", "enumerate", "to_dcs")
SPARK_SPANS = ("evidence_scan", "vios")


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if orig is None else (owner, attr, orig)


class Tracer:
    """Installs the wrappers on ``__enter__`` and removes them on ``__exit__``.

    ``begin_call``/``end_call`` bracket one ``adc_miner`` call; the spans and
    Spark counts of the calls are kept in memory in ``self.calls``.
    """

    def __init__(self, sc):
        self.sc = sc
        self.absent: list[str] = []
        self.calls: list[dict] = []
        self._patches: list[tuple] = []
        self._cur: dict | None = None
        self._fn_depth = 0

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.absent = []
        for span, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(span)
                continue
            owner, attr, orig = found
            self._patch(owner, attr, orig, self._span_wrapper(span, orig))
        n_fn = 0
        base = _resolve("repro.core.functions", "ApproximationFunction")
        for module in FUNCTION_MODULES if base else ():
            try:
                mod = importlib.import_module(module)
            except ImportError:
                continue
            for obj in list(vars(mod).values()):
                if not (isinstance(obj, type) and issubclass(obj, base[2])
                        and obj.__module__ == module):
                    continue
                if "passes" in obj.__dict__:
                    orig = obj.__dict__["passes"]
                    self._patch(obj, "passes", orig, self._passes_wrapper(orig))
                    n_fn += 1
                if "score" in obj.__dict__:
                    orig = obj.__dict__["score"]
                    self._patch(obj, "score", orig, self._score_wrapper(orig))
        if n_fn == 0:
            self.absent.append("functions")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, span: str, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            cur = tracer._cur
            if cur is None:
                return orig(*args, **kwargs)
            group = f"{cur['id']}.{span}" if span in SPARK_SPANS else None
            if group is not None:
                tracer.sc.setJobGroup(group, span)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                cur["spans"].setdefault(span, []).append((t0, time.perf_counter()))
                if group is not None:
                    tracer.sc.setLocalProperty("spark.jobGroup.id", None)
                    tracer.sc.setLocalProperty("spark.job.description", None)
                    cur["groups"][span] = group

        return wrapper

    def _passes_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def passes(fself, ev, uncovered, eps):
            cur = tracer._cur
            if cur is None or tracer._fn_depth:  # super().passes nests
                return orig(fself, ev, uncovered, eps)
            tracer._fn_depth += 1
            cur["scored"] = False
            t0 = time.perf_counter()
            ok = None
            try:
                ok = orig(fself, ev, uncovered, eps)
                return ok
            finally:
                cur["fn_s"] += time.perf_counter() - t0
                tracer._fn_depth -= 1
                cur["fn_calls"] += 1
                # an f2/f3 check that fails without scoring was cut short by
                # the function's own prefilter (Prop. 5.3)
                if ok is False and not cur["scored"] and getattr(fself, "needs_vios", False):
                    cur["prefilter_rejects"] += 1

        return passes

    def _score_wrapper(self, orig):
        tracer = self

        @functools.wraps(orig)
        def score(fself, *args, **kwargs):
            if tracer._cur is not None:
                tracer._cur["scored"] = True
            return orig(fself, *args, **kwargs)

        return score

    # -- per call -------------------------------------------------------------

    def begin_call(self, call_id: str) -> None:
        self._cur = {"id": call_id, "spans": {}, "groups": {}, "fn_s": 0.0,
                     "fn_calls": 0, "prefilter_rejects": 0, "scored": False,
                     "t0": time.perf_counter()}

    def end_call(self) -> dict:
        cur, self._cur = self._cur, None
        cur["t1"] = time.perf_counter()
        cur["spark"] = {span: self._spark_counts(g) for span, g in cur["groups"].items()}
        self.calls.append(cur)
        return cur

    def _spark_counts(self, group: str) -> dict:
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        tasks = failed = 0
        for job in jobs:
            info = tracker.getJobInfo(job)
            for sid in info.stageIds if info else ():
                st = tracker.getStageInfo(sid)
                if st:
                    tasks += st.numCompletedTasks
                    failed += st.numFailedTasks
        return {"jobs": len(jobs), "tasks": tasks, "failed": failed}


def _dur(spans: dict, name: str) -> float:
    return sum(t1 - t0 for t0, t1 in spans.get(name, ()))


def call_metrics(call: dict, result, absent: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced call, from its spans and its result."""
    sp = call["spans"]
    wall = call["t1"] - call["t0"]
    ev, space, stats = result.evidence, result.space, result.enum_stats
    s = {name: _dur(sp, name) for name in STAGES}
    if "predicate_space" in sp:
        s["predicate_space"] = sp["predicate_space"][-1][1] - call["t0"]
    if "predicate_space" in sp and "evidence_scan" in sp:
        s["sample"] = sp["evidence_scan"][0][0] - sp["predicate_space"][-1][1]
    else:
        absent = sorted(set(absent) | {"sample"})
    for name in absent:
        s[name] = 0.0
    pairs = ev.total_pairs
    spark = call["spark"]
    scan, vios = spark.get("evidence_scan", {}), spark.get("vios", {})
    vios_entries = sum(len(d) for d in ev.vios.values()) if ev.vios else 0
    fn_calls, fn_s = call["fn_calls"], call["fn_s"]
    nodes = stats.nodes
    return {
        "predicate_space.s": s["predicate_space"],
        "predicate_space.predicates": len(space),
        "predicate_space.words": space.n_words,
        "sample.s": s["sample"],
        "sample.tuples": result.n_sampled,
        "evidence_scan.s": s["evidence_scan"],
        "evidence_scan.pairs": pairs,
        "evidence_scan.distinct_sets": ev.n_distinct,
        "evidence_scan.us_per_pair": 1e6 * s["evidence_scan"] / pairs if pairs else 0.0,
        "evidence_scan.spark_jobs": scan.get("jobs", 0),
        "evidence_scan.spark_tasks": scan.get("tasks", 0),
        "evidence_scan.failed_tasks": scan.get("failed", 0),
        "vios.s": s["vios"],
        "vios.entries": vios_entries,
        "vios.us_per_pair": 1e6 * s["vios"] / pairs if pairs and vios_entries else 0.0,
        "vios.spark_tasks": vios.get("tasks", 0),
        "vios.failed_tasks": vios.get("failed", 0),
        "matrix_build.s": s["matrix_build"],
        "matrix_build.cells": ev.n_distinct * len(space),
        "enumerate.s": s["enumerate"],
        "enumerate.nodes": nodes,
        "enumerate.us_per_node": 1e6 * s["enumerate"] / nodes if nodes else 0.0,
        "enumerate.outputs": stats.outputs,
        "enumerate.outputs_per_node": stats.outputs / nodes if nodes else 0.0,
        "enumerate.f_evals": stats.f_evals,
        "enumerate.truncated": int(stats.truncated),
        "functions.s": fn_s,
        "functions.calls": fn_calls,
        "functions.us_per_call": 1e6 * fn_s / fn_calls if fn_calls else 0.0,
        "functions.prefilter_rejects": call["prefilter_rejects"],
        "functions.share_of_enumerate": fn_s / s["enumerate"] if s["enumerate"] else 0.0,
        "to_dcs.s": s["to_dcs"],
        "to_dcs.dcs": len(result.dcs),
        "trace.coverage": sum(s[n] for n in STAGES) / wall,
        "trace.absent_spans": len(absent),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
