"""Long-tail analysis (paper Section V-B2).

Buckets test-set alignment accuracy by the source entity's relational
degree, contrasting SDEA against a structure-only baseline on a sparse
(SRPRS-like) dataset — the paper's claim is that structure-dependent
methods collapse on long-tail entities while SDEA's attribute semantics
carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..align.evaluator import evaluate_by_degree_bucket
from ..align.metrics import AlignmentMetrics
from ..kg.pair import AlignmentSplit, KGPair
from ..nn.kernels import use_kernels
from .methods import make_method

DEFAULT_BUCKETS = ((1, 3), (4, 10), (11, 10**9))


@dataclass
class LongtailReport:
    """Per-degree-bucket metrics for one method."""

    method: str
    dataset: str
    buckets: Dict[str, AlignmentMetrics]

    def hits_at_1(self) -> Dict[str, float]:
        return {label: m.hits_at_1 for label, m in self.buckets.items()}


def longtail_analysis(method_name: str, pair: KGPair,
                      split: AlignmentSplit | None = None,
                      buckets: Sequence[tuple] = DEFAULT_BUCKETS
                      ) -> LongtailReport:
    """Fit a method and evaluate it per degree bucket."""
    split = split or pair.split()
    method = make_method(method_name)
    with use_kernels():  # the kernels run_experiment ships
        method.fit(pair, split)
        emb1, emb2 = method.embeddings(1), method.embeddings(2)
    bucket_metrics = evaluate_by_degree_bucket(
        emb1, emb2, pair, split.test, buckets=buckets,
    )
    return LongtailReport(
        method=method_name, dataset=pair.name, buckets=bucket_metrics
    )


def format_longtail_table(reports: Sequence[LongtailReport]) -> str:
    """Render per-bucket H@1 rows for several methods."""
    if not reports:
        return "(no reports)"
    labels = list(reports[0].buckets)
    header = f"{'Method':<12}" + "".join(f" {label:>9}" for label in labels)
    lines = [header, "-" * len(header)]
    for report in reports:
        row = f"{report.method:<12}" + "".join(
            f" {100 * report.buckets[label].hits_at_1:>8.1f}%"
            for label in labels
        )
        lines.append(row)
    return "\n".join(lines)
