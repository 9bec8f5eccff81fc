"""Write ``perfbench/reference.json``: for each workload and seed, a hash of
the relation, the enumeration tree size of the Spark path and its DC digest,
each DC set first checked against the live oracle (``gate.oracle``).

    python3 perfbench/make_reference.py --seeds 0-31

``run.py`` flags a traced run whose node count differs from the reference
(``enumerate.tree_changed``), so that a change which reorders the evidence
sets shows as a tree change rather than as an enumeration speed change. For
a stored relation it gates every call against the stored digest instead of
running the oracle again; any other seed gets the live oracle.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    import gate
    from workloads import WORKLOADS

    tmp = run.OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run.configure_env(tmp)
    ref = {}
    spark = run.start_spark()
    try:
        for name, wl in WORKLOADS.items():
            for seed in range(lo, hi + 1):
                pdf = wl.frame(seed)
                df = spark.createDataFrame(pdf).cache()
                df.count()
                _, result = run.timed_call(spark, df, wl)
                obs = gate.observe(result)
                expected, _ = run.expected_answer(spark, pdf, df, wl, None)
                why = gate.failures(obs, expected)
                if why:
                    raise SystemExit(f"{name} seed {seed}: {'; '.join(why)}")
                ref.setdefault(name, {})[str(seed)] = {
                    "input": gate.frame_digest(pdf), "n_tuples": obs.n_tuples,
                    "nodes": result.enum_stats.nodes, "dcs": obs.n_dcs,
                    "distinct_sets": result.evidence.n_distinct, "digest": obs.digest,
                }
                df.unpersist()
                spark.catalog.clearCache()
                print(name, seed, ref[name][str(seed)], flush=True)
    finally:
        run.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
