"""ADCMiner benchmark: times the real ``adc_miner`` pipeline on one workload.

Run from the repository root::

    python3 perfbench/run.py --workload enum --seed 1 --seconds 10 --trace 0

This process is the Spark driver; Spark runs in local mode on at most 4
cores, called from one thread (a closed loop: each call starts when the
previous one has returned). The relation is generated from ``--seed``; the
program receives only the resulting DataFrame.

``--trace 0`` (end-to-end): start the JVM and a Spark session and build the
input; stop the session and set up again in the same JVM, ``SETUP_ROUNDS``
times in all (``setup_s`` is the median of the set-ups after the first, so
it leaves out the one-off JVM launch, which is printed apart). In the last
session, time the first ``adc_miner`` call (``cold_mine_s``: JIT and
Catalyst code generation are still cold for the pipeline), make
``WARMUP_CALLS`` untimed calls, then repeat the call for ``--seconds``
(``mine_s``, the lower quartile of those warm calls: other tenants of the
host slow single calls down by up to a half, never speed them up). Then
read the driver's peak RSS and check every call against the oracle.

``--trace 1`` (per layer): one session; after ``1 + WARMUP_CALLS`` untimed
calls, alternate an untraced and a traced warm call for ``--seconds`` and
report the medians of the traced calls' spans and counts (see ``spans.py``)
plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Traced runs also
write their spans to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_ROUNDS = 4
#: calls after the first that are still warming up: the JVM goes on
#: compiling the pipeline's code, and call times fall by up to a third over
#: the first four calls
WARMUP_CALLS = 4
MIN_WARM_CALLS = 3
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 16

END_TO_END_UNITS = {
    "mine_s": "s", "cold_mine_s": "s", "setup_s": "s", "driver_peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "predicate_space.s": "s", "predicate_space.predicates": "count",
    "predicate_space.words": "count",
    "sample.s": "s", "sample.tuples": "count",
    "evidence_scan.s": "s", "evidence_scan.pairs": "count",
    "evidence_scan.distinct_sets": "count", "evidence_scan.us_per_pair": "us",
    "evidence_scan.spark_jobs": "count", "evidence_scan.spark_tasks": "count",
    "evidence_scan.failed_tasks": "count",
    "vios.s": "s", "vios.entries": "count", "vios.us_per_pair": "us",
    "vios.spark_tasks": "count", "vios.failed_tasks": "count",
    "matrix_build.s": "s", "matrix_build.cells": "count",
    "enumerate.s": "s", "enumerate.nodes": "count", "enumerate.us_per_node": "us",
    "enumerate.outputs": "count", "enumerate.outputs_per_node": "ratio",
    "enumerate.f_evals": "count", "enumerate.truncated": "flag",
    "enumerate.tree_changed": "flag",
    "functions.s": "s", "functions.calls": "count", "functions.us_per_call": "us",
    "functions.prefilter_rejects": "count", "functions.share_of_enumerate": "ratio",
    "to_dcs.s": "s", "to_dcs.dcs": "count",
    "trace.overhead": "ratio", "trace.coverage": "ratio", "trace.absent_spans": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


# -- Spark lifecycle ------------------------------------------------------------

def configure_env(tmp: Path) -> None:
    """Spark settings that must be in place before the JVM starts. Every
    file Spark or Python writes goes under ``tmp``."""
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", f"local[{CORES}]", "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", shlex.quote(java_opts),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell",
    ])
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM behind it, and wait until it has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    SparkContext._gateway = SparkContext._jvm = None
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM's gateway server exits on EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def setup(wl, seed: int, tiny: bool):
    """Spark session start + input generation + createDataFrame/cache/count."""
    t0 = time.perf_counter()
    spark = start_spark()
    pdf = wl.frame(seed, tiny)
    df = spark.createDataFrame(pdf).cache()
    df.count()
    return spark, pdf, df, time.perf_counter() - t0


def run_context(spark, args) -> dict:
    import numpy as np
    import pyspark

    sc = spark.sparkContext
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "spark": spark.version,
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "numpy": np.__version__, "master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


# -- calls ----------------------------------------------------------------------

def timed_call(spark, df, wl):
    """(seconds, MinerResult or None if the call raised)."""
    from repro.core.miner import adc_miner

    f = wl.function_obj()
    t0 = time.perf_counter()
    try:
        result = adc_miner(spark, df, f, wl.eps, **wl.miner_kwargs())
    except Exception:
        traceback.print_exc()
        result = None
    return time.perf_counter() - t0, result


def expected_answer(spark, pdf, df, wl, ref: dict | None):
    """(the oracle's answer, "stored" or "live"). A stored answer is used
    when ``reference.json`` has one for this very relation; it was checked
    against the live oracle when it was written."""
    import gate

    if ref is not None and ref["input"] == gate.frame_digest(pdf):
        return gate.Expected(ref["n_tuples"], ref["digest"], ref["dcs"]), "stored"
    mined = pdf
    if wl.sample_fraction is not None:
        # the rows adc_miner's df.sample picks
        mined = df.sample(withReplacement=False, fraction=wl.sample_fraction,
                          seed=wl.sample_seed).toPandas()
    return gate.oracle(pdf, mined, wl.oracle_function(), wl.eps), "live"


def judge(observed: list, expected) -> int:
    """Number of failed calls; prints why each one failed."""
    import gate

    failed = 0
    for i, obs in enumerate(observed):
        why = gate.failures(obs, expected)
        if why:
            failed += 1
            print(f"call {i} failed: {'; '.join(why)}", file=sys.stderr)
    return failed


def load_reference(workload: str, seed: int, tiny: bool) -> dict | None:
    if tiny or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run -------------------------------------------------------

def run_end_to_end(args, wl) -> dict:
    import gate

    setups, warm, observed = [], [], []
    ref = load_reference(args.workload, args.seed, args.tiny)
    spark = None
    try:
        while len(setups) < SETUP_ROUNDS:
            if spark is not None:
                spark.stop()  # the JVM stays up
            spark, pdf, df, dt = setup(wl, args.seed, args.tiny)
            setups.append(dt)
        cold, result = timed_call(spark, df, wl)
        observed.append(gate.observe(result))
        for _ in range(WARMUP_CALLS):
            observed.append(gate.observe(timed_call(spark, df, wl)[1]))
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(warm) < MIN_WARM_CALLS:
            dt, result = timed_call(spark, df, wl)
            warm.append(dt)
            observed.append(gate.observe(result))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        context = run_context(spark, args)
        expected, context["oracle"] = expected_answer(spark, pdf, df, wl, ref)
    finally:
        if spark is not None:
            stop_spark(spark)
    failed = judge(observed, expected)
    context["samples"] = {"mine_s": len(warm), "cold_mine_s": 1, "setup_s": len(setups) - 1}
    context["error_rate"] = failed / len(observed)
    context["note"] = ("driver_peak_rss_mb is the Python driver's ru_maxrss, read before "
                       "the oracle runs; the JVM heap is not counted")
    print(json.dumps({"context": context, "mine_s_calls": warm, "cold_mine_s": cold,
                      "setup_s_calls": setups}))
    metrics = {
        "mine_s": statistics.quantiles(warm, n=4, method="inclusive")[0],
        "cold_mine_s": cold,
        "setup_s": statistics.median(setups[1:]),
        "driver_peak_rss_mb": rss_mb,
    }
    return {"correct": failed == 0, "attempted": len(observed), "failed": failed,
            "metrics": {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}}


def run_traced(args, wl) -> dict:
    import gate
    import spans

    spark = None
    observed, untraced, traced, per_call = [], [], [], []
    ref = load_reference(args.workload, args.seed, args.tiny)
    try:
        spark, pdf, df, _ = setup(wl, args.seed, args.tiny)
        for _ in range(1 + WARMUP_CALLS):
            observed.append(gate.observe(timed_call(spark, df, wl)[1]))
        tracer = spans.Tracer(spark.sparkContext)
        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or len(traced) < MIN_WARM_CALLS:
            dt, result = timed_call(spark, df, wl)
            untraced.append(dt)
            observed.append(gate.observe(result))
            with tracer:
                tracer.begin_call(f"perfbench-{i}")
                dt, result = timed_call(spark, df, wl)
                call = tracer.end_call()
            traced.append(dt)
            observed.append(gate.observe(result))
            if result is not None:
                per_call.append(spans.call_metrics(call, result, tracer.absent))
            i += 1
        context = run_context(spark, args)
        expected, context["oracle"] = expected_answer(spark, pdf, df, wl, ref)
    finally:
        if spark is not None:
            stop_spark(spark)
    failed = judge(observed, expected)
    metrics = spans.median_metrics(per_call) if per_call else {}
    nodes_ref = context["enumerate.nodes_ref"] = ref["nodes"] if ref else None
    if metrics:
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1
        metrics["enumerate.tree_changed"] = int(nodes_ref is not None
                                                and metrics["enumerate.nodes"] != nodes_ref)
        if tracer.absent:
            print(f"absent spans: {', '.join(tracer.absent)}")
        if metrics["enumerate.tree_changed"]:
            print(f"enumeration tree changed: {metrics['enumerate.nodes']} nodes, "
                  f"reference {nodes_ref} (evidence order or pruning moved)")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "context": context, "untraced_s": untraced, "traced_s": traced,
        "calls": [{"id": c["id"], "t0": c["t0"], "t1": c["t1"], "spans": c["spans"],
                   "spark": c["spark"]} for c in tracer.calls],
        "per_call": per_call,
    }, indent=1))
    context["error_rate"] = failed / len(observed)
    print(json.dumps({"context": context,
                      "samples": {"traced": len(traced), "untraced": len(untraced)}}))
    return {"correct": failed == 0 and bool(metrics), "attempted": len(observed),
            "failed": failed,
            "metrics": {k: metric(v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "miner.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    configure_env(tmp)
    try:
        result = (run_traced if args.trace else run_end_to_end)(args, wl)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
