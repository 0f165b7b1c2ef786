"""In-memory span tracer for the benchmark's traced pass.

:class:`LayerTracer` installs wrappers around the public calls of each
layer of ``repro``, at the attribute the caller resolves (for example
``repro.core.trainer.encode_all``, since the trainer imported the name),
records one span per call -- name, start, end, parent -- in a list, and
puts every attribute back on exit.  Nothing under ``src/`` changes.

:func:`rollup` turns the span list into the per-layer metrics named
under ``per_layer`` in ``BENCHMARK.json``.  A span's layer is the prefix
of its name before the first dot.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

# (module, attribute path, span name).  Every module where a caller
# resolves the name gets its own entry.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.text.tokenizer", "WordPieceTokenizer.train", "text.tokenizer_train"),
    ("repro.core.attribute_module", "corpus_stats", "text.lsa"),
    ("repro.core.attribute_module", "pretrain_mlm", "text.mlm"),
    ("repro.text.bert", "MiniBert.forward", "text.bert_forward"),
    ("repro.core.trainer", "encode_all", "core.encode"),
    ("repro.core.trainer", "gen_candidates", "core.candidates"),
    ("repro.core.model", "train_relation_model", "core.rel_train"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.core.trainer", "clip_grad_norm", "nn.optim"),
    ("repro.text.pretrain", "clip_grad_norm", "nn.optim"),
    ("repro.core.trainer", "evaluate_embeddings", "align.evaluate"),
    ("repro.core.model", "evaluate_embeddings", "align.evaluate"),
    ("repro.baselines.base", "evaluate_embeddings", "align.evaluate"),
    ("repro.align.evaluator", "stable_matching", "align.stable_matching"),
    ("repro.experiments.runner", "write_record", "obs.record_write"),
)

LAYERS = ("text", "core", "nn", "align", "obs")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1           # index into the span list, -1 = top level
    op: int = 0                # index of the op (method run) it belongs to
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str((array.dtype, array.shape)).encode())
        h.update(array.view(np.uint8).reshape(-1).data)
    return h.hexdigest()


class LayerTracer:
    """Record spans around the calls in :data:`TARGETS` while active."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op = 0
        self._stack: List[int] = []
        self._seen_encodes: set = set()
        self._saved: List[Tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------ #
    def begin_op(self) -> None:
        """Start a new op: encode redundancy is judged within one op."""
        if self.spans or self._seen_encodes:
            self.op += 1
        self._seen_encodes = set()

    def span(self, name: str, fn: Callable, *args, attrs=None, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent=parent, op=self.op,
                      attrs=dict(attrs or {}))
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _attrs_for(self, name: str, args, kwargs) -> Dict[str, float]:
        if name == "text.bert_forward":
            ids = np.asarray(args[1] if len(args) > 1 else kwargs["ids"])
            mask = args[2] if len(args) > 2 else kwargs.get("mask")
            pad = 0 if mask is None else int(np.size(mask)
                                              - np.count_nonzero(mask))
            return {"positions": int(ids.size), "pad": pad}
        if name == "core.encode":
            module = args[0] if args else kwargs["module"]
            encoder = args[1] if len(args) > 1 else kwargs["encoder"]
            batch = args[2] if len(args) > 2 else kwargs.get("batch_size")
            key = (_digest(p.data for p in module.parameters()),
                   _digest((encoder.ids, encoder.mask)), batch)
            redundant = key in self._seen_encodes
            self._seen_encodes.add(key)
            return {"redundant": int(redundant)}
        return {}

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = self._attrs_for(name, args, kwargs)
            index = len(self.spans)
            result = self.span(name, fn, *args, attrs=attrs, **kwargs)
            if name == "core.rel_train":   # returns (model, TrainLog)
                self.spans[index].attrs["epochs"] = len(result[1].losses)
            return result
        return wrapper

    # -- installation -------------------------------------------------- #
    def __enter__(self) -> "LayerTracer":
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(name, static.__func__))
            else:
                wrapped = self._wrap(name, static)
            self._saved.append((owner, attr, static))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_seconds(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    return [span.seconds - child for span, child in zip(spans, child_time)]


def rollup(spans: List[Span], run_seconds: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``run_seconds`` is the wall time of the pass's ``run_experiment``
    calls; what the top-level spans do not cover is reported as
    ``trace.unattributed_s``.
    """
    out: Dict[str, float] = {}
    for name in dict.fromkeys(name for _, _, name in TARGETS):
        out[name + "_s"] = sum(s.seconds for s in spans if s.name == name)
    for name in ("text.bert_forward", "core.encode", "core.candidates",
                 "nn.backward", "align.evaluate"):
        out[name + "_calls"] = sum(1 for s in spans if s.name == name)

    forwards = [s for s in spans if s.name == "text.bert_forward"]
    positions = sum(s.attrs["positions"] for s in forwards)
    out["text.bert_positions"] = positions
    out["text.pad_share"] = (sum(s.attrs["pad"] for s in forwards)
                             / positions if positions else 0.0)
    in_mlm = {i for i, s in enumerate(spans) if s.name == "text.mlm"}
    out["text.mlm_batches"] = sum(
        1 for s in forwards if _has_ancestor(spans, s, in_mlm))
    encodes = [s for s in spans if s.name == "core.encode"]
    out["core.encode_redundant_share"] = (
        sum(s.attrs["redundant"] for s in encodes) / len(encodes)
        if encodes else 0.0)
    out["core.rel_epochs"] = sum(s.attrs.get("epochs", 0) for s in spans
                                 if s.name == "core.rel_train")

    selfs = self_seconds(spans)
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(
            t for s, t in zip(spans, selfs) if s.name.split(".")[0] == layer)
    covered = sum(s.seconds for s in spans if s.parent < 0)
    out["trace.unattributed_s"] = run_seconds - covered
    return out


def _has_ancestor(spans: List[Span], span: Span, indices: set) -> bool:
    parent = span.parent
    while parent >= 0:
        if parent in indices:
            return True
        parent = spans[parent].parent
    return False


def record_phases(span_tree: Dict[str, object]) -> Dict[str, float]:
    """Phase split from a run record's span tree (``RunRecord.spans``).

    The tree aggregates calls by path, so ``calls`` of
    ``attr_pretrain/epoch`` is the number of Algorithm 2 epochs.
    """
    out = {"core.attr_batch_s": 0.0, "core.attr_validate_s": 0.0,
           "core.attr_epochs": 0, "phase.mlm_s": 0.0,
           "phase.attr_pretrain_s": 0.0, "phase.rel_train_s": 0.0,
           "phase.evaluate_s": 0.0}

    def walk(node: Dict[str, object]) -> None:
        name = node.get("name")
        wall = float(node.get("wall_seconds", 0.0))
        children = node.get("children", [])
        if name == "mlm/epoch":
            out["phase.mlm_s"] += wall
        elif name == "attr_pretrain/epoch":
            out["phase.attr_pretrain_s"] += wall
            out["core.attr_epochs"] += int(node.get("calls", 0))
            for child in children:
                if child.get("name") == "batch":
                    out["core.attr_batch_s"] += float(child["wall_seconds"])
                elif child.get("name") == "validate":
                    out["core.attr_validate_s"] += float(
                        child["wall_seconds"])
        elif name in ("rel_train/epoch", "rel_train/candidates"):
            out["phase.rel_train_s"] += wall
        elif name == "evaluate":
            out["phase.evaluate_s"] += wall
        for child in children:
            walk(child)

    walk(span_tree)
    return out
