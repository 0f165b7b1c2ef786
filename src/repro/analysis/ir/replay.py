"""Verified replay of a captured training step.

The executor re-runs a :class:`~repro.analysis.ir.capture.StepCapture`
from its source snapshots and asserts **bit-for-bit** agreement with
what the eager engine produced at capture time:

* forward: every in-window op output is recomputed from the IR (op
  semantics + attributes recovered from the op's backward-closure free
  variables) and compared against the recorded array via ``tobytes()``;
* backward: the engine's exact topological walk is re-simulated over
  IR uids — same DFS order, same ``grads[key] = grads[key] + c``
  accumulation, same leaf ``_accumulate`` semantics — and every leaf's
  final gradient is compared against the snapshot taken at capture.

Ops whose forward cannot be reconstructed (fused kernels, unknown ops)
fall back to the recorded output and are counted in ``opaque_ops``;
their backward still replays exactly because the captured closures are
the originals.  Closures read ``parent.data`` live, so source tensors
(parameters the optimizer has since stepped) get their captured
snapshots swapped in for the duration of the backward replay and
restored afterwards.

The forward frees each value at its last use and tracks the resulting
peak, giving an *executed* counterpart to the liveness plan of pass
G001 (:mod:`repro.analysis.ir.passes`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ...nn.tensor import DEFAULT_DTYPE, receives_grad
from .capture import StepCapture
from .graph import IRGraph, IRNode

__all__ = ["ReplayResult", "replay", "engine_topo_order", "closure_freevars"]


@dataclass
class ReplayResult:
    """Outcome of one verified replay."""

    ok: bool = True
    forward_checked: int = 0
    forward_matched: int = 0
    grads_checked: int = 0
    grads_matched: int = 0
    opaque_ops: List[str] = field(default_factory=list)
    dispatch_matched: bool = True
    mismatches: List[str] = field(default_factory=list)
    replay_peak_bytes: int = 0
    seconds: float = 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "forward": f"{self.forward_matched}/{self.forward_checked}",
            "grads": f"{self.grads_matched}/{self.grads_checked}",
            "opaque_ops": len(self.opaque_ops),
            "dispatch_matched": self.dispatch_matched,
            "replay_peak_bytes": self.replay_peak_bytes,
            "seconds": round(self.seconds, 6),
        }


def closure_freevars(fn: Callable) -> Dict[str, object]:
    """Free variables of a backward closure, by name.

    The engine never passes op attributes (axes, indices, masks) to
    ``_make_child``; they live only in the closure.  This is the one
    place the IR recovers them.
    """
    code = getattr(fn, "__code__", None)
    cells = getattr(fn, "__closure__", None)
    if code is None or cells is None:
        return {}
    return {name: cell.cell_contents
            for name, cell in zip(code.co_freevars, cells)}


def engine_topo_order(graph: IRGraph) -> List[int]:
    """The exact node order ``Tensor.backward`` would visit.

    Replicates the engine's DFS (same stack discipline, parents pushed
    in forward order) over uids so the replayed float-accumulation
    order is identical to eager.
    """
    if graph.root is None:
        return []
    topo: List[int] = []
    visited = set()
    stack = [(graph.root, False)]
    while stack:
        uid, processed = stack.pop()
        if processed:
            topo.append(uid)
            continue
        if uid in visited:
            continue
        visited.add(uid)
        stack.append((uid, True))
        for parent in graph.node(uid).parents:
            if parent not in visited:
                stack.append((parent, False))
    return topo


# ---------------------------------------------------------------------- #
# Forward op semantics (mirror of repro.nn.tensor, attribute-recovered)
# ---------------------------------------------------------------------- #
def _sigmoid_stable(a: np.ndarray) -> np.ndarray:
    # Byte-identical to Tensor.sigmoid: exp only sees non-positive args.
    positive = a >= 0
    exp_neg = np.exp(-np.abs(a))
    return np.where(positive, 1.0 / (1.0 + exp_neg),
                    exp_neg / (1.0 + exp_neg))


def _replay_clip_min(p0: np.ndarray, fv: Dict, recorded: np.ndarray):
    # `minimum` is not a free variable (only `mask` is); recover it from
    # any clipped position of the recorded output.
    mask = fv["mask"]
    clipped = ~mask
    if clipped.any():
        minimum = recorded[clipped].flat[0]
        return np.maximum(p0, minimum)
    return p0.copy()   # nothing clipped: max(a, m) == a elementwise


def _replay_forward(node: IRNode, p: List[np.ndarray], fv: Dict,
                    recorded: np.ndarray) -> Optional[np.ndarray]:
    """Recompute one op from parent values; None = not reconstructable."""
    op = node.op
    if op == "add":
        return p[0] + p[1]
    if op == "sub":
        return p[0] - p[1]
    if op == "mul":
        return p[0] * p[1]
    if op == "div":
        return p[0] / p[1]
    if op == "neg":
        return -p[0]
    if op == "pow":
        return p[0] ** fv["exponent"]
    if op == "matmul":
        return p[0] @ p[1]
    if op == "transpose":
        # forward axes == argsort of the stored inverse permutation
        return np.transpose(p[0], np.argsort(fv["inverse"]))
    if op == "swapaxes":
        return np.swapaxes(p[0], fv["axis1"], fv["axis2"])
    if op == "reshape":
        return p[0].reshape(node.shape)
    if op == "sum":
        return p[0].sum(axis=fv["axis"], keepdims=fv["keepdims"])
    if op == "mean":
        return p[0].mean(axis=fv["axis"], keepdims=fv["keepdims"])
    if op == "max":
        return p[0].max(axis=fv["axis"], keepdims=fv["keepdims"])
    if op == "exp":
        return np.exp(p[0])
    if op == "log":
        return np.log(p[0])
    if op == "sqrt":
        return np.sqrt(p[0])
    if op == "tanh":
        return np.tanh(p[0])
    if op == "sigmoid":
        return _sigmoid_stable(p[0])
    if op == "relu":
        return p[0] * (p[0] > 0)
    if op == "abs":
        return np.abs(p[0])
    if op == "clip_min":
        return _replay_clip_min(p[0], fv, recorded)
    if op == "getitem":
        return p[0][fv["index"]]
    if op == "take":
        return np.take(p[0], fv["indices"], axis=fv["axis"])
    if op == "concatenate":
        return np.concatenate(p, axis=fv["axis"])
    if op == "stack":
        return np.stack(p, axis=fv["axis"])
    if op == "where":
        return np.where(fv["condition"], p[0], p[1])
    return None


def _bitwise_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------- #
# The executor
# ---------------------------------------------------------------------- #
def replay(capture: StepCapture, max_mismatches: int = 10) -> ReplayResult:
    """Re-execute the captured step and verify it bit-for-bit."""
    graph = capture.graph
    if graph.overflowed:
        raise ValueError(
            "capture overflowed its op budget; the window is incomplete "
            "and cannot be replayed"
        )
    if graph.root is None:
        raise ValueError("capture has no backward root")
    result = ReplayResult()
    start = time.perf_counter()

    # ----- forward: recompute in dependency order, free at last use ----
    consumers = graph.consumers()
    remaining = {uid: len(consumers[uid]) for uid in consumers}
    values: Dict[int, np.ndarray] = {}
    live_bytes = 0
    freevars = {uid: closure_freevars(fn)
                for uid, fn in capture.backwards.items()}

    def note_mismatch(label: str) -> None:
        result.ok = False
        if len(result.mismatches) < max_mismatches:
            result.mismatches.append(label)

    for uid in graph.topo_order():
        node = graph.node(uid)
        if node.kind != "op":
            values[uid] = capture.source_data[uid]
            continue
        recorded = capture.tensors[uid].data
        parents = [values[p] for p in node.parents]
        out = _replay_forward(node, parents, freevars.get(uid, {}), recorded)
        if out is None:
            result.opaque_ops.append(node.op)
            out = recorded
        else:
            result.forward_checked += 1
            if _bitwise_equal(np.asarray(out), recorded):
                result.forward_matched += 1
            else:
                note_mismatch(f"forward {node.label()} [{node.module}]")
        values[uid] = np.asarray(out)
        live_bytes += values[uid].nbytes
        result.replay_peak_bytes = max(result.replay_peak_bytes, live_bytes)
        for parent in node.parents:
            remaining[parent] -= 1
            if remaining[parent] == 0 and graph.node(parent).kind == "op":
                live_bytes -= values[parent].nbytes
                del values[parent]

    # ----- backward: simulate the engine's walk with the captured
    # closures, over snapshot data (parameters may have been stepped) --
    saved_data: Dict[int, np.ndarray] = {}
    for node in graph.source_nodes():
        t = capture.tensors[node.uid]
        saved_data[node.uid] = t.data
        t.data = capture.source_data[node.uid]
    replayed_dispatch: List[int] = []
    leaf_final: Dict[int, np.ndarray] = {}
    try:
        grads: Dict[int, np.ndarray] = {graph.root: capture.seed_grad}
        for uid in reversed(engine_topo_order(graph)):
            node_grad = grads.pop(uid, None)
            if node_grad is None:
                continue
            node = graph.node(uid)
            if node.requires_grad and not node.has_backward:
                before = capture.grads_before.get(uid)
                if before is None:
                    leaf_final[uid] = np.array(
                        node_grad, dtype=DEFAULT_DTYPE, copy=True)
                else:
                    acc = before.copy()
                    acc += node_grad
                    leaf_final[uid] = acc
            if node.has_backward:
                replayed_dispatch.append(uid)
                contributions = capture.backwards[uid](node_grad)
                for parent_uid, contribution in zip(node.parents,
                                                    contributions):
                    if contribution is None or not receives_grad(
                            capture.tensors[parent_uid]):
                        continue
                    if parent_uid in grads:
                        grads[parent_uid] = grads[parent_uid] + contribution
                    else:
                        grads[parent_uid] = contribution
    finally:
        for uid, data in saved_data.items():
            capture.tensors[uid].data = data

    if replayed_dispatch != graph.dispatch_order:
        result.dispatch_matched = False
        note_mismatch(
            f"dispatch order: replayed {len(replayed_dispatch)} ops, "
            f"recorded {len(graph.dispatch_order)}"
        )

    # ----- verify final leaf gradients against the capture snapshot ---
    for uid, expected in sorted(capture.grads_after.items()):
        result.grads_checked += 1
        got = leaf_final.get(uid, capture.grads_before.get(uid))
        if _bitwise_equal(got, expected):
            result.grads_matched += 1
        else:
            note_mismatch(f"grad {graph.node(uid).label()}")

    result.seconds = time.perf_counter() - start
    return result
