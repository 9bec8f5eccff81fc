"""ADCMiner — the end-to-end pipeline of Figure 1.

``ADCMiner(R, D, f, ε)``:

1. ``GeneratePSpace``  — :func:`repro.core.predicates.build_predicate_space`
2. ``Sample``          — uniform tuple sample (``DataFrame.sample``)
3. ``ConstructEvidence`` — :func:`repro.core.evidence.build_evidence_spark`
   (with ``vios`` in the same pass when ``f`` needs it)
4. ``ADCEnum``         — :func:`repro.core.enumerate.adc_enum`

Per-stage wall-clock timings are recorded — the paper's runtime figures
(6, 7, 8, 12) all decompose along these stages.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..sampling.threshold import F1Prime
from .dc import DenialConstraint
from .enumerate import EnumStats, adc_enum, hitting_sets_to_dcs
from .evidence import (
    EvidenceSet,
    build_evidence_local,
    build_evidence_naive,
    build_evidence_spark,
    with_rid,
)
from .functions import ApproximationFunction
from .predicates import PredicateSpace, build_predicate_space
from .searchmc import search_mc


@dataclass
class MinerResult:
    dcs: list[DenialConstraint]
    hitting_sets: list[frozenset[int]]
    space: PredicateSpace
    evidence: EvidenceSet
    enum_stats: EnumStats
    timings: dict[str, float] = field(default_factory=dict)
    n_sampled: int = 0

    @property
    def dc_set(self) -> set[frozenset]:
        return {dc.predicates for dc in self.dcs}


def adc_miner(
    spark: SparkSession,
    df: DataFrame,
    f: ApproximationFunction,
    eps: float,
    *,
    sample_fraction: float | None = None,
    seed: int = 0,
    space: PredicateSpace | None = None,
    space_sample_rows: int = 2000,
    builder: str = "fast",
    enumerator: str = "adcenum",
    choose: str = "max",
    alpha: float | None = None,
    max_results: int | None = None,
    timeout_s: float | None = None,
) -> MinerResult:
    """Run the full ADCMiner pipeline on a Spark DataFrame.

    ``alpha`` (with the f1 family) switches acceptance on the sample to the
    corrected function f1' of §7.2 so that mined DCs hold on the full
    database w.r.t. ``eps`` with probability ≥ 1−alpha.
    ``builder``: ``fast`` (Catalyst bit-packed) or ``naive`` (AFASTDC-style
    UDF, f1 only: it builds no ``vios``). ``enumerator``: ``adcenum`` or
    ``searchmc`` (baseline, which takes no ``choose``). Any other value, and
    an option that would have no effect, raises ``ValueError``.
    """
    if builder not in ("fast", "naive"):
        raise ValueError(f"builder must be 'fast' or 'naive', not {builder!r}")
    if enumerator not in ("adcenum", "searchmc"):
        raise ValueError(f"enumerator must be 'adcenum' or 'searchmc', not {enumerator!r}")
    if alpha is not None and (f.name != "f1" or sample_fraction is None):
        raise ValueError("alpha applies only to f1 mined on a sample (sample_fraction)")
    if choose != "max" and enumerator == "searchmc":
        raise ValueError("choose applies only to enumerator='adcenum'")
    if builder == "naive" and f.needs_vios:
        raise ValueError(f"{f.name} needs vios, which only builder='fast' builds")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    if space is None:
        head = df.limit(space_sample_rows).toPandas()
        space = build_predicate_space(head)
    timings["predicate_space"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sampled = df if sample_fraction is None else df.sample(
        withReplacement=False, fraction=sample_fraction, seed=seed
    )
    sampled = with_rid(sampled).cache()
    n_sampled = sampled.count()
    timings["sampling"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if builder == "fast":
        ev = build_evidence_spark(spark, sampled, space, with_vios=f.needs_vios)
    else:
        ev = build_evidence_naive(spark, sampled, space)
    timings["evidence"] = time.perf_counter() - t0

    eff_f = f if alpha is None else F1Prime(alpha)

    t0 = time.perf_counter()
    kw = dict(max_results=max_results, timeout_s=timeout_s)
    if enumerator == "adcenum":
        hitting_sets, stats = adc_enum(ev, eff_f, eps, choose=choose, **kw)
    else:
        hitting_sets, stats = search_mc(ev, eff_f, eps, **kw)
    dcs = hitting_sets_to_dcs(ev, hitting_sets)
    timings["enumeration"] = time.perf_counter() - t0
    timings["total"] = sum(timings.values())

    return MinerResult(
        dcs=dcs,
        hitting_sets=hitting_sets,
        space=space,
        evidence=ev,
        enum_stats=stats,
        timings=timings,
        n_sampled=n_sampled,
    )


def adc_miner_local(
    pdf: pd.DataFrame,
    f: ApproximationFunction,
    eps: float,
    *,
    space: PredicateSpace | None = None,
    **enum_kw,
) -> MinerResult:
    """Driver-only variant over pandas (tests and micro-experiments)."""
    t0 = time.perf_counter()
    if space is None:
        space = build_predicate_space(pdf)
    t_space = time.perf_counter() - t0
    t0 = time.perf_counter()
    ev = build_evidence_local(pdf, space, with_vios=f.needs_vios)
    t_ev = time.perf_counter() - t0
    t0 = time.perf_counter()
    hitting_sets, stats = adc_enum(ev, f, eps, **enum_kw)
    dcs = hitting_sets_to_dcs(ev, hitting_sets)
    t_enum = time.perf_counter() - t0
    return MinerResult(
        dcs=dcs,
        hitting_sets=hitting_sets,
        space=space,
        evidence=ev,
        enum_stats=stats,
        timings={
            "predicate_space": t_space,
            "sampling": 0.0,
            "evidence": t_ev,
            "enumeration": t_enum,
            "total": t_space + t_ev + t_enum,
        },
        n_sampled=len(pdf),
    )
