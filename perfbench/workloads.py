"""The benchmark's workloads: which relation each one mines, and how.

Every workload builds its relation from the repository's own synthetic
generators (``repro.datasets``), so the same seed gives the same tuples:
either the generator runs with the workload seed, or (``data_seed`` set) it
runs once with that fixed seed and the workload seed permutes the rows.
README.md explains why each workload exists.
"""
from __future__ import annotations

from dataclasses import dataclass

#: the 8-attribute projection of ``tax`` (28 predicates, no cross-attribute
#: pairs pass the 30% overlap rule). All 15 attributes make complete
#: enumeration too slow for a timed loop.
TAX8 = (
    "state", "zip", "city", "area_code",
    "salary", "rate", "marital_status", "single_exemp",
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    rows: int
    attrs: tuple[str, ...] | None  # None keeps every attribute
    function: str  # "f1" or "f3"
    eps: float
    sample_fraction: float | None = None
    alpha: float | None = None
    #: the sampler's seed is part of the miner's configuration, not of the
    #: input: with it fixed, the sample size does not vary with the data seed
    sample_seed: int = 0
    #: rows used by ``--tiny`` (the benchmark's own tests)
    tiny_rows: int = 40
    #: when set, the generator always runs with this seed and the workload
    #: seed only shuffles the rows: row ids and partitions change, the mined
    #: DC set does not
    data_seed: int | None = None

    def frame(self, seed: int, tiny: bool = False):
        """The relation handed to the miner, as a pandas frame."""
        from repro.datasets import DATASETS

        rows = self.tiny_rows if tiny else self.rows
        gen_seed = seed if self.data_seed is None else self.data_seed
        pdf = DATASETS[self.dataset](rows, seed=gen_seed).pdf
        if self.attrs is not None:
            pdf = pdf[list(self.attrs)]
        if self.data_seed is not None:
            pdf = pdf.sample(frac=1.0, random_state=seed).reset_index(drop=True)
        return pdf

    def function_obj(self):
        from repro.core.functions import F1, F3Greedy

        return {"f1": F1, "f3": F3Greedy}[self.function]()

    def oracle_function(self):
        """The function the miner applies: f1' of §7.2 when mining a sample
        with ``alpha`` set, else the workload's own function."""
        if self.alpha is not None and self.sample_fraction is not None:
            from repro.sampling.threshold import F1Prime

            return F1Prime(self.alpha)
        return self.function_obj()

    def miner_kwargs(self) -> dict:
        return dict(sample_fraction=self.sample_fraction, seed=self.sample_seed,
                    alpha=self.alpha)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-sample", "tax", 6000, TAX8, "f1", 0.01,
                 sample_fraction=0.2, alpha=0.05, tiny_rows=300),
        Workload("enum", "airport", 200, None, "f1", 0.15, tiny_rows=40),
        Workload("vios-f3", "tax", 400, TAX8, "f3", 0.01, tiny_rows=60, data_seed=0),
    )
}
