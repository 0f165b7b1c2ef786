"""Behaviour golden for Algorithm 2, the fits built on it, and the
structural baselines.

Runs four seeded fits, inside ``use_kernels()`` like every shipped run,
on the tiny synthetic pair used by the graph checker
(``tiny_check_pair()``):

* ``sdea`` — ``tiny_check_method("sdea")``: MLM, Algorithm 2 and
  Algorithm 3 at unit-test scale;
* ``bert-int`` — ``BertInt()`` with its default config, whose name
  encoder is fine-tuned by the same Algorithm 2 over several epochs;
* ``jape-stru`` and ``gcn-align`` — the structure-only baselines with
  their default configs: embedding gathers (``take``) and graph
  convolutions over a constant adjacency (``matmul``, ``getitem``).

For the first two it records ``float.hex`` of every per-epoch MLM,
attribute and relation loss and every validation Hits@1; for all four
the final test H@1/H@10/MRR/stable-H@1 and the sha256 of both sides'
final embeddings; plus the numpy version the file was made with.
``tests/test_golden.py`` recomputes the same document and asserts it
equals the committed ``tests/data/golden_alg2.json`` bit for bit, so a
refactor of the trainer proves it changed nothing.

An intended behaviour change rewrites the golden and says why in
CHANGES.md.

Usage::

    python benchmarks/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.graphcheck import (  # noqa: E402
    tiny_check_method,
    tiny_check_pair,
)
from repro.baselines import bert_int  # noqa: E402
from repro.nn.kernels import use_kernels  # noqa: E402

GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_alg2.json"


def _hex(values):
    return [float(v).hex() for v in values]


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _outcome(method, split) -> dict:
    result = method.evaluate(split.test, with_stable_matching=True)
    metrics = result.metrics
    return {
        "hits1": float(metrics.hits_at_1).hex(),
        "hits10": float(metrics.hits_at_10).hex(),
        "mrr": float(metrics.mrr).hex(),
        "stable_hits1": float(result.stable_hits_at_1).hex(),
        "emb1_sha256": _sha256(method.embeddings(1)),
        "emb2_sha256": _sha256(method.embeddings(2)),
    }


def sdea_case() -> dict:
    pair = tiny_check_pair()
    split = pair.split()
    method = tiny_check_method("sdea")
    fit = method.model.fit(pair, split)
    return {
        "mlm_losses": _hex(fit.mlm_losses),
        "attr_losses": _hex(fit.attribute_log.losses),
        "attr_valid_hits1": _hex(fit.attribute_log.valid_hits1),
        "rel_losses": _hex(fit.relation_log.losses),
        "rel_valid_hits1": _hex(fit.relation_log.valid_hits1),
        **_outcome(method, split),
    }


def bert_int_case() -> dict:
    """BERT-INT keeps neither its MLM losses nor its Algorithm 2 log,
    so both are read off the two calls its ``fit`` makes."""
    pair = tiny_check_pair()
    split = pair.split()
    seen = {}
    prepare, pretrain = (bert_int.prepare_text_encoder,
                         bert_int.pretrain_attribute_module)

    def spy_prepare(*args, **kwargs):
        seen["prepared"] = prepare(*args, **kwargs)
        return seen["prepared"]

    def spy_pretrain(*args, **kwargs):
        result = pretrain(*args, **kwargs)
        seen["log"] = result[2]
        return result

    bert_int.prepare_text_encoder = spy_prepare
    bert_int.pretrain_attribute_module = spy_pretrain
    try:
        method = bert_int.BertInt()
        method.fit(pair, split)
    finally:
        bert_int.prepare_text_encoder = prepare
        bert_int.pretrain_attribute_module = pretrain
    return {
        "mlm_losses": _hex(seen["prepared"].mlm_losses),
        "attr_losses": _hex(seen["log"].losses),
        "attr_valid_hits1": _hex(seen["log"].valid_hits1),
        **_outcome(method, split),
    }


def structural_case(name: str) -> dict:
    """A structure-only baseline keeps no loss log; its final metrics
    and embeddings pin every gradient step it took."""
    pair = tiny_check_pair()
    split = pair.split()
    method = tiny_check_method(name)
    method.fit(pair, split)
    return _outcome(method, split)


def make_golden() -> dict:
    """The golden document for the code as it is now.

    Every fit runs inside ``use_kernels()``, the kernel configuration
    ``run_experiment`` and the benchmark ship, so the golden pins what
    a run computes rather than the composed reference path.
    """
    with use_kernels():
        return {
            "numpy": np.__version__,
            "sdea": sdea_case(),
            "bert-int": bert_int_case(),
            "jape-stru": structural_case("jape-stru"),
            "gcn-align": structural_case("gcn-align"),
        }


def main() -> int:
    GOLDEN_PATH.write_text(json.dumps(make_golden(), indent=1,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
