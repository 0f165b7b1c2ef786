"""Seed-sensitivity analysis.

At this reproduction's scale (hundreds of test links), run-to-run
variance is non-trivial; a credible comparison needs it quantified.
This module refits a method across several seeds — reseeding both the
model and the split — and reports mean ± std for each metric, plus a
bootstrap CI for the last run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..align.evaluator import similarity_for_links
from ..align.metrics import bootstrap_confidence_interval
from ..align.similarity import rank_of_target
from ..kg.pair import KGPair
from ..nn.kernels import use_kernels
from .methods import make_method


@dataclass
class SeedSensitivityReport:
    """Per-seed metrics and their aggregate statistics."""

    method: str
    dataset: str
    seeds: List[int]
    hits_at_1: List[float]
    hits_at_10: List[float]
    mrr: List[float]
    last_run_ci: tuple  # (estimate, lower, upper) of Hits@1

    def summary(self) -> Dict[str, tuple]:
        """metric → (mean, std) over seeds."""
        return {
            "H@1": (float(np.mean(self.hits_at_1)),
                    float(np.std(self.hits_at_1))),
            "H@10": (float(np.mean(self.hits_at_10)),
                     float(np.std(self.hits_at_10))),
            "MRR": (float(np.mean(self.mrr)), float(np.std(self.mrr))),
        }

    def format(self) -> str:
        lines = [f"{self.method} on {self.dataset} over seeds {self.seeds}"]
        for metric, (mean, std) in self.summary().items():
            scale = 100.0 if metric.startswith("H@") else 1.0
            lines.append(
                f"  {metric:>4}: {scale * mean:6.1f} ± {scale * std:4.1f}"
            )
        estimate, lower, upper = self.last_run_ci
        lines.append(
            f"  bootstrap 95% CI of H@1 (last run): "
            f"[{100 * lower:.1f}, {100 * upper:.1f}]"
        )
        return "\n".join(lines)


def seed_sensitivity(method_name: str, pair: KGPair,
                     seeds: Sequence[int] = (0, 1, 2),
                     ) -> SeedSensitivityReport:
    """Refit ``method_name`` across seeds; splits are reseeded too.

    The model's own seed is changed where the method exposes one
    (``config.seed`` or ``model.config.seed``); the split seed always
    changes, so the variance covers both sources.
    """
    hits1: List[float] = []
    hits10: List[float] = []
    mrrs: List[float] = []
    last_ranks = None
    for seed in seeds:
        split = pair.split(seed=1000 + seed)  # fresh split per seed
        method = make_method(method_name)
        config = getattr(method, "config", None)
        if config is None and hasattr(method, "model"):
            config = method.model.config
        if config is not None and hasattr(config, "seed"):
            config.seed = int(seed)
        with use_kernels():  # the kernels run_experiment ships
            method.fit(pair, split)
            emb1, emb2 = method.embeddings(1), method.embeddings(2)
        similarity, targets = similarity_for_links(emb1, emb2, split.test)
        ranks = rank_of_target(similarity, targets)
        hits1.append(float((ranks <= 1).mean()))
        hits10.append(float((ranks <= 10).mean()))
        mrrs.append(float((1.0 / ranks).mean()))
        last_ranks = ranks
    ci = bootstrap_confidence_interval(last_ranks, "hits1", seed=0)
    return SeedSensitivityReport(
        method=method_name, dataset=pair.name, seeds=list(seeds),
        hits_at_1=hits1, hits_at_10=hits10, mrr=mrrs, last_run_ci=ci,
    )
