"""Table 5 — approximate vs valid DCs on dirty data.

For each dataset: add spread noise (§8.4), then for each golden DC report

- the minimal **ADC** obtained by shrinking the golden while it stays
  within the threshold (by monotonicity this set is in the complete
  ADCEnum output — see fig14's equivalence note), and
- a minimal **valid DC** extending the golden: greedily add the predicate
  covering the most remaining violations until none remain, then shrink.

This reproduces the paper's qualitative point: on dirty data the valid DC
degenerates into a longer, contrived constraint (extra predicates that
merely carve out the errors) while the ADC stays general.
"""
import sys

import pandas as pd

sys.path.insert(0, ".")
from jobs.common import job_main  # noqa: E402
from jobs.fig14_grecall import golden_uncovered  # noqa: E402
from repro.core.functions import F1, one_minus_f1  # noqa: E402


def shrink_adc(ev, space, bits, eps, removable=None):
    """Remove predicates while the DC stays an ADC → a minimal ADC.

    ``removable`` restricts which predicates may be dropped (the valid-DC
    extension keeps the golden's own predicates so the output visibly
    extends it, as in the paper's Table 5 examples).
    """
    bits = list(bits)
    changed = True
    while changed:
        changed = False
        for b in list(bits):
            if removable is not None and b not in removable:
                continue
            trial = [x for x in bits if x != b]
            if not trial:
                continue
            unc = [i for i, m in enumerate(ev.masks) if all(m >> x & 1 for x in trial)]
            if F1().passes(ev, unc, eps):
                bits = trial
                changed = True
                break
    return bits


def extend_valid(ev, space, bits):
    """Greedily add predicates until no violating pairs remain, then shrink.

    Mirrors how valid-DC mining covers errors: each added predicate must
    cut the violating-pair weight; returns None if no valid extension
    exists within the predicate space.
    """
    bits = list(bits)
    golden_bits = set(bits)
    used_groups = {space.predicates[b].group_key for b in bits}
    unc = [i for i, m in enumerate(ev.masks) if all(m >> b & 1 for b in bits)]
    while unc:
        best, best_unc = None, None
        for e in range(len(space)):
            if e in bits or space.predicates[e].group_key in used_groups:
                continue
            trial_unc = [i for i in unc if ev.masks[i] >> e & 1]
            if len(trial_unc) == len(unc):
                continue  # no progress
            if best_unc is None or one_minus_f1(ev, trial_unc) < one_minus_f1(ev, best_unc):
                best, best_unc = e, trial_unc
        if best is None:
            return None
        bits.append(best)
        used_groups.add(space.predicates[best].group_key)
        unc = best_unc
    return shrink_adc(ev, space, bits, 0.0, removable=set(bits) - golden_bits)


def _to_dc_str(space, bits):
    from repro.core.dc import DenialConstraint

    return str(DenialConstraint(frozenset(space.predicates[b] for b in bits)))


def run(spark, n: int = 300, seed: int = 0, eps: float = 0.005,
        datasets=("tax", "stock", "hospital", "food", "flight", "voter")) -> pd.DataFrame:
    from repro.core import build_evidence_spark, build_predicate_space, with_rid
    from repro.datasets import DATASETS, add_noise

    rows = []
    for name in datasets:
        spec = DATASETS[name](n, seed=seed)
        dirty = add_noise(spec.pdf, rate=0.002, mode="spread", seed=seed + 1)
        space = build_predicate_space(dirty)
        df = with_rid(spark.createDataFrame(dirty)).cache()
        ev = build_evidence_spark(spark, df, space)
        for g in spec.golden:
            unc = golden_uncovered(ev, space, g)
            if unc is None:  # a golden predicate fell out of the dirty space
                rows.append({"dataset": name, "golden": str(g),
                             "approximate_dc": "—", "valid_dc": "—"})
                continue
            bits = [space.id_of(p) for p in g.predicates]
            if F1().passes(ev, unc, eps):
                adc = _to_dc_str(space, shrink_adc(ev, space, bits, eps))
            else:
                adc = "—"
            ext = extend_valid(ev, space, bits)
            rows.append(
                {
                    "dataset": name,
                    "golden": str(g),
                    "approximate_dc": adc,
                    "valid_dc": _to_dc_str(space, ext) if ext is not None else "—",
                }
            )
        df.unpersist()
    return pd.DataFrame(rows)


if __name__ == "__main__":
    sys.exit(job_main(run, "Table 5: approximate vs valid DCs", n=300))
