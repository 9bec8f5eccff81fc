"""Output gate: every timed ``adc_miner`` call must give the right DCs.

A call passes when

- its evidence set passes ``EvidenceSet.check()`` (bag size n(n−1), exactly
  one of P / P̄ in every set);
- its enumeration was not truncated;
- it mined as many tuples as the oracle saw, and its DC set equals the
  oracle's, compared as the sorted ``str(dc)`` list (Python's ``hash`` of a
  DC changes with ``PYTHONHASHSEED``).

The oracle shares no stage with the pipeline it checks: ``build_evidence_local``
(numpy) instead of the Spark scan, the FASTDC-style ``search_mc`` instead of
``ADCEnum`` (the repository's tests hold the two to the same answer), and its
own mapping from hitting sets to DCs. A complete enumeration has exactly one
answer, so any correct optimisation passes.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: rows the miner reads to build its predicate space (``adc_miner`` default)
SPACE_SAMPLE_ROWS = 2000


@dataclass(frozen=True)
class Expected:
    n_tuples: int
    digest: str
    n_dcs: int


def dc_digest(dcs) -> str:
    return hashlib.sha256("\n".join(sorted(str(dc) for dc in dcs)).encode()).hexdigest()


def frame_digest(pdf) -> str:
    """Content hash of a pandas frame, to tell whether a stored answer is
    for the relation at hand."""
    import pandas as pd

    h = pd.util.hash_pandas_object(pdf, index=False).values.tobytes()
    return hashlib.sha256(b"|".join([",".join(pdf.columns).encode(), h])).hexdigest()


def oracle(full_pdf, mined_pdf, f, eps: float) -> Expected:
    """The answer for ``mined_pdf`` (the tuples the miner scans); the
    predicate space comes from the head of the full relation, as in
    ``adc_miner``."""
    from repro.core.dc import DenialConstraint
    from repro.core.evidence import build_evidence_local
    from repro.core.predicates import build_predicate_space
    from repro.core.searchmc import search_mc

    space = build_predicate_space(full_pdf.head(SPACE_SAMPLE_ROWS))
    ev = build_evidence_local(mined_pdf, space, with_vios=f.needs_vios)
    hitting_sets, stats = search_mc(ev, f, eps)
    if stats.truncated:
        raise RuntimeError("oracle enumeration was truncated")
    dcs = []
    for hs in hitting_sets:
        comp = [space.complement_idx[e] for e in hs]
        if hs and None not in comp:  # a DC states the complements
            dcs.append(DenialConstraint(frozenset(space.predicates[c] for c in comp)))
    return Expected(len(mined_pdf), dc_digest(dcs), len(dcs))


@dataclass(frozen=True)
class Observed:
    """What the gate keeps of one call: small, so a run can hold many."""

    n_tuples: int
    digest: str
    n_dcs: int
    problems: tuple[str, ...]


def observe(result) -> Observed | None:
    """Check the call-local invariants of one ``MinerResult`` (``None``, a
    call that raised, stays ``None``)."""
    if result is None:
        return None
    problems = []
    try:
        result.evidence.check()
    except AssertionError as e:
        problems.append(f"evidence check failed: {e}")
    if result.enum_stats.truncated:
        problems.append("enumeration truncated")
    return Observed(result.n_sampled, dc_digest(result.dcs), len(result.dcs), tuple(problems))


def failures(obs: Observed | None, expected: Expected) -> list[str]:
    """Why one call is wrong (empty when it is right). ``None`` is a call
    that raised."""
    if obs is None:
        return ["call raised"]
    out = list(obs.problems)
    if obs.n_tuples != expected.n_tuples:
        out.append(f"mined {obs.n_tuples} tuples, oracle {expected.n_tuples}")
    if obs.digest != expected.digest:
        out.append(f"DC set differs from oracle ({obs.n_dcs} vs {expected.n_dcs} DCs)")
    return out
