"""Workload table of the end-to-end benchmark.

A workload is ``datasets`` seeded datasets of one family plus the
methods run on each, back to back, one fresh child process per dataset.
Dataset ``i`` of a run with ``--seed S`` is generated with seed
``S * datasets + i``, so distinct seeds never share a dataset.  Several
datasets per run average out what one draw decides on its own: how many
epochs early stopping lets ``sdea`` run, and Hits@1.  Every pass gives
one ``setup_s`` sample; with at least three datasets, a run reports the
median of at least three.  The table is plain data so that the
orchestrator (``run.py``) can read it without importing numpy or
``repro``: thread pinning must happen before numpy loads, and only the
child processes load it.

Why each workload was chosen is its ``why`` in ``BENCHMARK.json``.
``scale`` is passed to the dataset's scale dataclass
(``SRPRSScale`` / ``DBP15KScale``: persons, places, clubs, countries).
``smoke_scale`` is the tiny variant used by ``run.py --smoke`` and the
benchmark's tests.  ``h1_floor`` is the lowest Hits@1 any op of the
workload may report before the op counts as failed; it sits well below
every value measured over seeds 1-10 (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    family: str              # "srprs" or "dbp15k"
    dataset: str             # SRPRS dataset / DBP15K language pair
    scale: Tuple[int, int, int, int]
    smoke_scale: Tuple[int, int, int, int]
    methods: Tuple[str, ...]
    datasets: int
    h1_floor: float

    def dataset_seed(self, seed: int, index: int) -> int:
        return seed * self.datasets + index


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sdea-srprs",
            family="srprs", dataset="dbp_yg",
            scale=(24, 9, 6, 2), smoke_scale=(12, 5, 3, 2),
            methods=("sdea",), datasets=5,
            h1_floor=0.25,
        ),
        Workload(
            name="struct-dbp15k",
            family="dbp15k", dataset="zh_en",
            scale=(240, 90, 54, 18), smoke_scale=(24, 9, 6, 3),
            methods=("jape-stru", "gcn-align"), datasets=6,
            h1_floor=0.08,
        ),
    )
}
