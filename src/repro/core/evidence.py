"""Evidence set construction (paper §3, §4.2 component 3).

``Evi(D)`` is the bag ``{{Sat(t,t') : t,t' ∈ D, t ≠ t'}}`` over *ordered*
tuple pairs. We store each distinct predicate set once as an integer bitmask
over the predicate space, with its multiplicity — the representation both
ADCEnum and the approximation functions operate on.

Builders:

- :func:`build_evidence_spark` — the production path. A Catalyst self
  cross-join evaluates every predicate as a boolean column, packs the bits
  into int64 words with ``shiftleft``/``bitwiseOR`` and aggregates with
  ``groupBy(words).count()``. This plays the role of DCFinder's [37]
  bit-level evidence builder (see DESIGN.md §2).
- :func:`build_evidence_naive` — AFASTDC-style [11] baseline: the same
  cross-join but a per-pair Python UDF, i.e. tuple-at-a-time evaluation.
  Used only for the Figure-7 runtime comparison.
- :func:`build_evidence_local` — numpy reference implementation used by the
  test oracle and for driver-only micro-instances.

The ``vios`` structure of Figure 2 (per evidence set, per tuple violation
counts, needed by f2 and GreedyF3) is the per-tuple split of the same bag:
``with_vios=True`` makes either builder produce both in one pass over the
pairs, as DCFinder [37] does.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from .predicates import Op, Predicate, PredicateSpace

RID = "__rid"


@dataclass
class EvidenceSet:
    """Driver-side evidence set: distinct ``Sat`` masks with multiplicities.

    ``vios[i]`` (when loaded) maps tuple rid → number of ordered pairs with
    ``Sat = masks[i]`` that involve the tuple (as either side).
    """

    space: PredicateSpace
    masks: list[int]
    counts: np.ndarray  # int64, parallel to masks
    n_tuples: int
    vios: dict[int, dict[int, int]] | None = field(default=None, repr=False)

    @property
    def total_pairs(self) -> int:
        return self.n_tuples * (self.n_tuples - 1)

    @property
    def n_distinct(self) -> int:
        return len(self.masks)

    def check(self) -> None:
        """Structural invariants (used by tests)."""
        assert int(self.counts.sum()) == self.total_pairs, "bag size != n(n-1)"
        for i, p in enumerate(self.space.predicates):
            ci = self.space.complement_idx[i]
            if ci is None:
                continue
            for m in self.masks:
                assert (m >> i & 1) != (m >> ci & 1), (
                    f"mask must contain exactly one of {p} / {p.complement}"
                )


def with_rid(df: DataFrame) -> DataFrame:
    """Attach a stable 0..n-1 row id if absent.

    Uses a window row_number over the natural column order; stability only
    matters within one mining run (the id keys the ``vios`` structure).
    """
    if RID in df.columns:
        return df
    from pyspark.sql.window import Window

    w = Window.orderBy(*[F.col(c) for c in df.columns])
    return df.withColumn(RID, F.row_number().over(w) - F.lit(1))


def _pred_column(p: Predicate, left: str, right: str) -> Column:
    rhs_alias = left if p.single_tuple else right
    a, b = F.col(f"{left}.{p.lhs}"), F.col(f"{rhs_alias}.{p.rhs}")
    return {
        Op.EQ: a == b, Op.NE: a != b, Op.LT: a < b,
        Op.LE: a <= b, Op.GT: a > b, Op.GE: a >= b,
    }[p.op]


def _word_columns(space: PredicateSpace) -> list[Column]:
    """Pack the space's boolean predicate columns into int64 words."""
    words: list[Column] = []
    for w in range(space.n_words):
        bits = [
            F.shiftleft(_pred_column(p, "l", "r").cast("long"), k)
            for k, p in enumerate(space.predicates[w * 64 : (w + 1) * 64])
        ]
        words.append(reduce(Column.bitwiseOR, bits).alias(f"w{w}"))
    return words


def _mask_from_words(row_words: tuple[int, ...]) -> int:
    mask = 0
    for i, w in enumerate(row_words):
        mask |= (int(w) & 0xFFFFFFFFFFFFFFFF) << (64 * i)
    return mask


def _pairs(df: DataFrame) -> DataFrame:
    left, right = df.alias("l"), df.alias("r")
    return left.join(right, on=F.col(f"l.{RID}") != F.col(f"r.{RID}"), how="inner")


def build_evidence_spark(
    spark: SparkSession, df: DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """Distributed evidence construction via Catalyst (see module doc).

    With ``with_vios`` every pair's mask is attributed to both its tuples
    and the scan aggregates by (mask, tid) instead of by mask: the rows of
    one mask give its ``vios`` entry, and its count is half their sum.
    """
    df = with_rid(df).cache()
    n = df.count()
    word_names = [f"w{w}" for w in range(space.n_words)]
    cols, keys = _word_columns(space), list(word_names)
    if with_vios:
        cols.append(F.explode(F.array(F.col(f"l.{RID}"), F.col(f"r.{RID}"))).alias("tid"))
        keys.append("tid")
    rows = (
        _pairs(df)
        .select(*cols)
        .groupBy(*keys)
        .agg(F.count(F.lit(1)).alias("cnt"))
        .collect()
    )
    index: dict[int, int] = {}
    counts: list[int] = []
    vios: dict[int, dict[int, int]] = {}
    for r in rows:
        i = index.setdefault(_mask_from_words(tuple(r[w] for w in word_names)), len(index))
        if i == len(counts):
            counts.append(0)
        counts[i] += r["cnt"]
        if with_vios:
            vios.setdefault(i, {})[int(r["tid"])] = int(r["cnt"])
    ev = EvidenceSet(space, list(index), np.array(counts, dtype=np.int64), n)
    if with_vios:
        ev.counts //= 2  # each pair was counted once per tuple
        ev.vios = vios
    return ev


def build_evidence_naive(
    spark: SparkSession, df: DataFrame, space: PredicateSpace
) -> EvidenceSet:
    """AFASTDC-style builder: per-pair Python UDF computing ``Sat`` masks.

    Deliberately tuple-at-a-time (no columnar bit packing) to serve as the
    slow baseline of the Figure-7 comparison. Only the first 63-bit words
    trick differs: masks are returned as hex strings to avoid UDF bigint
    overflow for spaces wider than 63 predicates.
    """
    df = with_rid(df).cache()
    n = df.count()
    attrs = [c for c in df.columns if c != RID]
    preds = list(space.predicates)

    @F.udf(returnType=T.StringType())
    def sat_hex(lrow, rrow):
        t = dict(zip(attrs, lrow))
        s = dict(zip(attrs, rrow))
        m = 0
        for i, p in enumerate(preds):
            if p.eval_pair(t, s):
                m |= 1 << i
        return format(m, "x")

    lstruct = F.struct(*[F.col(f"l.{a}") for a in attrs])
    rstruct = F.struct(*[F.col(f"r.{a}") for a in attrs])
    agg = (
        _pairs(df)
        .select(sat_hex(lstruct, rstruct).alias("m"))
        .groupBy("m")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .collect()
    )
    masks = [int(r["m"], 16) for r in agg]
    counts = np.array([r["cnt"] for r in agg], dtype=np.int64)
    return EvidenceSet(space, masks, counts, n)


def build_evidence_local(
    pdf: pd.DataFrame, space: PredicateSpace, *, with_vios: bool = False
) -> EvidenceSet:
    """Numpy reference builder over a pandas frame (tests / micro-instances).

    Sets are numbered by their first pair in row-major order.
    """
    work = pdf.drop(columns=[RID], errors="ignore").reset_index(drop=True)
    n = len(work)
    cols_t = {c: work[c].to_numpy()[:, None] for c in work.columns}
    cols_s = {c: v.T for c, v in cols_t.items()}
    # bit-pack predicate truth over the full n×n pair grid into uint64 words
    words = np.zeros((n, n, space.n_words), dtype=np.uint64)
    for k, p in enumerate(space.predicates):
        sat = np.asarray(p.eval_block(cols_t, cols_s), dtype=bool)
        words[:, :, k // 64] |= sat.astype(np.uint64) << np.uint64(k % 64)
    left, right = np.nonzero(~np.eye(n, dtype=bool))
    uniq, first, inverse, counts = np.unique(
        words[left, right], axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    masks = [_mask_from_words(row) for row in uniq[order].tolist()]
    ev = EvidenceSet(space, masks, counts[order].astype(np.int64), n)
    if with_vios:
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        pair_set = rank[inverse]
        grid = np.bincount(
            np.concatenate([pair_set * n + left, pair_set * n + right]),
            minlength=len(masks) * n,
        ).reshape(len(masks), n)
        ev.vios = {k: {} for k in range(len(masks))}
        sets, tids = np.nonzero(grid)
        for k, t, c in zip(sets.tolist(), tids.tolist(), grid[sets, tids].tolist()):
            ev.vios[k][t] = c
    return ev
