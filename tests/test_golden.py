"""Behaviour golden: seeded SDEA, BERT-INT, JAPE-Stru and GCN-Align fits,
bit for bit.

``tests/data/golden_alg2.json`` is written by
``benchmarks/make_golden.py``; every loss, validation Hits@1, final
metric and embedding hash must match it exactly. The numbers depend on
numpy's floating-point kernels, so another numpy version skips.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_make_golden():
    spec = importlib.util.spec_from_file_location(
        "make_golden", ROOT / "benchmarks" / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_pair():
    make_golden = _load_make_golden()
    committed = json.loads(make_golden.GOLDEN_PATH.read_text())
    if committed["numpy"] != np.__version__:
        pytest.skip(f"golden made with numpy {committed['numpy']}, "
                    f"running {np.__version__}")
    return committed, make_golden.make_golden()


@pytest.mark.parametrize("case", ["sdea", "bert-int", "jape-stru",
                                  "gcn-align"])
def test_fit_matches_golden_bit_for_bit(golden_pair, case):
    committed, fresh = golden_pair
    assert fresh[case] == committed[case]
