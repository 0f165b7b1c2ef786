"""Runtime-vs-size scaling measurement.

The paper evaluates on 15K- and 100K-entity datasets; a practical
reproduction should know how cost grows with entities.  This module fits
a method at several generated scales and reports wall-clock plus a
log-log slope estimate (slope ≈ 1 → linear, ≈ 2 → quadratic).

Used via the library (or ad hoc)::

    report = scaling_analysis("sdea-norel", factors=(1, 2, 4))
    print(report.format())
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..datasets.dbp15k import DBP15KScale, build_dbp15k
from ..nn.kernels import use_kernels
from .methods import make_method


@dataclass
class ScalingReport:
    """Entities vs wall-clock for one method."""

    method: str
    entities: List[int]
    seconds: List[float]

    def loglog_slope(self) -> float:
        """Least-squares slope of log(seconds) against log(entities)."""
        if len(self.entities) < 2:
            return float("nan")
        x = np.log(np.asarray(self.entities, dtype=float))
        y = np.log(np.maximum(np.asarray(self.seconds), 1e-9))
        slope, _ = np.polyfit(x, y, 1)
        return float(slope)

    def format(self) -> str:
        lines = [f"{self.method}: entities vs fit+eval seconds"]
        for n, s in zip(self.entities, self.seconds):
            lines.append(f"  {n:>6} entities/side   {s:8.1f}s")
        lines.append(f"  log-log slope ≈ {self.loglog_slope():.2f} "
                     f"(1=linear, 2=quadratic)")
        return "\n".join(lines)


def scaling_analysis(method_name: str,
                     factors: Sequence[int] = (1, 2, 4),
                     base: DBP15KScale | None = None) -> ScalingReport:
    """Fit ``method_name`` on DBP15K-like pairs of increasing size.

    Parameters
    ----------
    factors:
        Multipliers applied to the base scale; one fit per factor.
    base:
        Baseline scale (defaults to a small 1×: ~70 entities/side so the
        analysis itself stays cheap).
    """
    base = base or DBP15KScale(n_persons=40, n_places=15, n_clubs=8,
                               n_countries=4)
    entities: List[int] = []
    seconds: List[float] = []
    for factor in factors:
        scale = DBP15KScale(
            n_persons=base.n_persons * factor,
            n_places=base.n_places * factor,
            n_clubs=base.n_clubs * factor,
            n_countries=max(base.n_countries, base.n_countries * factor // 2),
        )
        pair = build_dbp15k("zh_en", scale=scale)
        split = pair.split()
        method = make_method(method_name)
        start = time.perf_counter()
        with use_kernels():  # time what run_experiment ships
            method.fit(pair, split)
            method.evaluate(split.test)
        seconds.append(time.perf_counter() - start)
        entities.append(pair.kg1.num_entities)
    return ScalingReport(method=method_name, entities=entities,
                         seconds=seconds)
