"""Tests of the end-to-end benchmark itself.

    PYTHONPATH=src python -m pytest bench_e2e/tests -q
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from child import build_inputs  # noqa: E402
from run import check_op, summary  # noqa: E402
from tracer import LayerTracer, Span, record_phases, rollup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# -- catalogue ---------------------------------------------------------- #
def test_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
             + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# -- statistics --------------------------------------------------------- #
def test_summary_on_fixed_samples():
    s = summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (5.5, 2.75, 8.25, 10)
    assert s["spread"] == pytest.approx(1.0)
    s = summary([4.0, 1.0, 2.0])
    assert (s["median"], s["q1"], s["q3"]) == (2.0, 1.0, 4.0)
    assert s["spread"] == pytest.approx(1.5)
    s = summary([3.5])
    assert (s["median"], s["q1"], s["q3"], s["spread"]) == (3.5, 3.5, 3.5, 0)
    with pytest.raises(ValueError):
        summary([])


# -- inputs ------------------------------------------------------------- #
def _fingerprint(pair, split):
    return [(kg.entity_uris(), kg.rel_triples, kg.attr_triples)
            for kg in (pair.kg1, pair.kg2)] + [pair.links, split]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_fixes_the_inputs(name):
    workload = WORKLOADS[name]
    first = _fingerprint(*build_inputs(workload, 5, smoke=True))
    assert first == _fingerprint(*build_inputs(workload, 5, smoke=True))
    assert first != _fingerprint(*build_inputs(workload, 6, smoke=True))


# -- output checks ------------------------------------------------------ #
def test_check_op_flags_bad_outputs():
    good = {"method": "m", "error": None, "hits1": 0.5, "hits10": 0.9,
            "mrr": 0.6, "stable_hits1": 0.5, "losses": [1.0, 0.5]}
    assert check_op(good, floor=0.4) == []
    assert check_op(dict(good, error="ValueError()"), None)
    assert check_op(dict(good, mrr=float("nan")), None)
    assert check_op(dict(good, stable_hits1=None), None)
    assert check_op(dict(good, hits1=1.5), None)
    assert check_op(dict(good, hits10=0.4), None)
    assert check_op(dict(good, losses=[1.0, float("inf")]), None)
    assert check_op(dict(good, eval_mismatches=0), None) == []
    assert check_op(dict(good, eval_mismatches=2), None)
    assert check_op(good, floor=0.6)
    # sdea writes a loss gauge: a run record without one fails the op.
    assert check_op(dict(good, method="sdea"), None) == []
    assert check_op(dict(good, method="sdea", losses=[]), None)
    assert check_op(dict(good, method="gcn-align", losses=[]), None) == []


# -- tracer ------------------------------------------------------------- #
def test_rollup_self_time_and_remainder():
    spans = [Span("core.encode", 0.0, 10.0),
             Span("text.bert_forward", 2.0, 5.0, parent=0,
                  attrs={"positions": 8, "pad": 2}),
             Span("nn.backward", 3.0, 4.0, parent=1),
             Span("align.evaluate", 11.0, 12.0)]
    spans[0].attrs["redundant"] = 0
    out = rollup(spans, run_seconds=15.0)
    assert out["core.self_s"] == pytest.approx(7.0)
    assert out["text.self_s"] == pytest.approx(2.0)
    assert out["nn.self_s"] == pytest.approx(1.0)
    assert out["align.self_s"] == pytest.approx(1.0)
    assert out["trace.unattributed_s"] == pytest.approx(4.0)
    assert out["text.bert_forward_s"] == pytest.approx(3.0)
    assert out["text.pad_share"] == pytest.approx(0.25)


def test_record_phases_reads_the_span_tree():
    tree = {"name": "<root>", "children": [{"name": "run", "children": [
        {"name": "fit", "wall_seconds": 9.0, "children": [
            {"name": "mlm/epoch", "calls": 2, "wall_seconds": 2.0},
            {"name": "attr_pretrain/epoch", "calls": 3, "wall_seconds": 5.0,
             "children": [{"name": "encode", "wall_seconds": 1.0},
                          {"name": "batch", "wall_seconds": 2.5},
                          {"name": "validate", "wall_seconds": 1.25}]}]},
        {"name": "evaluate", "wall_seconds": 0.5}]}]}
    out = record_phases(tree)
    assert out["core.attr_epochs"] == 3
    assert out["core.attr_batch_s"] == 2.5
    assert out["core.attr_validate_s"] == 1.25
    assert out["phase.mlm_s"] == 2.0
    assert out["phase.attr_pretrain_s"] == 5.0
    assert out["phase.evaluate_s"] == 0.5


@pytest.fixture(scope="module")
def tiny_encoder():
    """An untrained attribute module and two sequence encoders."""
    from repro.core.attribute_module import prepare_text_encoder
    from repro.core.config import SDEAConfig
    from repro.core.trainer import encode_all  # noqa: F401  (import path)
    config = SDEAConfig(bert_dim=16, bert_heads=2, bert_ff_dim=32,
                        embed_dim=8, max_seq_len=12, vocab_size=120,
                        mlm_epochs=0)
    texts1 = ["alpha beta gamma", "beta delta", "gamma epsilon zeta eta"]
    texts2 = ["alpha beta", "delta gamma theta iota kappa", "zeta"]
    return prepare_text_encoder(texts1, texts2, config,
                                np.random.default_rng(0))


def test_encode_redundancy_on_a_hand_built_call_sequence(tiny_encoder):
    import repro.core.trainer as trainer
    module = tiny_encoder.module
    enc1, enc2 = tiny_encoder.encoder1, tiny_encoder.encoder2
    with LayerTracer() as tracer:
        tracer.begin_op()
        trainer.encode_all(module, enc1)     # new
        trainer.encode_all(module, enc2)     # new
        trainer.encode_all(module, enc1)     # repeat
        trainer.encode_all(module, enc2)     # repeat
        param = next(iter(module.parameters()))
        saved = param.data.copy()
        param.data += 1.0
        try:
            trainer.encode_all(module, enc1)  # new weights
            trainer.encode_all(module, enc1)  # repeat
        finally:
            param.data[...] = saved
        tracer.begin_op()
        trainer.encode_all(module, enc1)     # new: another op
    out = rollup(tracer.spans, run_seconds=1.0)
    assert out["core.encode_calls"] == 7
    assert out["core.encode_redundant_share"] == pytest.approx(3 / 7)
    assert trainer.encode_all.__module__ == "repro.core.attribute_module"
    assert not hasattr(trainer.encode_all, "__wrapped__")


def test_pad_share_on_a_tiny_pair(tiny_encoder):
    import repro.core.trainer as trainer
    enc1 = tiny_encoder.encoder1
    with LayerTracer() as tracer:
        trainer.encode_all(tiny_encoder.module, enc1)
    out = rollup(tracer.spans, run_seconds=1.0)
    assert out["text.bert_forward_calls"] == 1
    assert out["text.bert_positions"] == enc1.ids.size
    expected = 1.0 - enc1.mask.sum() / enc1.mask.size
    assert 0 < expected < 1
    assert out["text.pad_share"] == pytest.approx(expected)


# -- the command -------------------------------------------------------- #
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--smoke", "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    workload = WORKLOADS[name]
    assert result["attempted"] == (workload.datasets + 1) * len(workload.methods)
    assert sorted(result["metrics"]) == sorted(PER_LAYER)
    for name_ in ("run_s", "fit_s", "setup_s", "hits1"):
        assert name_ in proc.stdout
    assert time.monotonic() - start < 60
    assert not list((ROOT / ".bench_e2e").glob(f"{name}-*"))


def test_repetitions_stop_before_the_deadline():
    """A --seconds past the deadline ends the loop early, with no kill."""
    workload = WORKLOADS["struct-dbp15k"]
    args = argparse.Namespace(seed=3, smoke=True, seconds=1000.0, trace=1)
    start = time.monotonic()
    report = run.run_workload(workload, args, deadline_s=25.0)
    assert time.monotonic() - start < 25.0
    assert report["failed"] == 0, report["problems"]
    assert len(report["reps"]) >= 2 and report["traced"] is not None
    assert report["attempted"] == (
        (len(report["reps"]) * workload.datasets + 1) * len(workload.methods))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "sdea-srprs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
