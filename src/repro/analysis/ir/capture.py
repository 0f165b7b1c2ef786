"""Capture one fwd+bwd training step into an explicit IR graph.

:class:`IRCapture` is an engine observer (:mod:`repro.nn.observers`):
op creation gives the forward op stream, node dispatch the backward
schedule, and the start and end of ``backward()`` delimit the step;
module enter/exit feed the shared module-path tracker from
:mod:`repro.obs.attribution`.  It records a *window* of grad-tracked
ops ending at a ``backward()`` call.

Step selection: the window that starts at install spans arbitrary
setup work (pre-training phases, data prep), so the harness captures
the first backward only as a **fallback**, resets the window, and
prefers the next backward — whose window is exactly one training step
(zero_grad → forward → backward).  ``StepCapture.clean`` records which
case happened.

Everything replay needs is snapshotted at capture time: source-tensor
data (parameters mutate in place under the optimizer), pre/post
backward ``.grad`` values of every gradient leaf, the seed gradient,
and the exact dispatch order.  Op attributes (axes, indices, masks)
are *not* passed to ``_make_child``; the replay executor recovers them
from each op's backward-closure free variables
(:mod:`repro.analysis.ir.replay`).

Tensors created before the window that the captured step still reads
(cross-phase intermediates) are registered on demand — as ``leaf`` /
``const`` sources, or ``external`` op nodes when the engine's backward
walks through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ...nn.observers import EngineObserver, add_observer, remove_observer
from ...nn.tensor import Tensor, receives_grad
from ...obs.attribution import ModulePathTracker, op_name_from_backward
from .graph import IRGraph, IRNode

__all__ = ["StepCapture", "IRCapture", "capture_step", "capture_method"]


@dataclass
class StepCapture:
    """One captured training step: graph + arrays + closures."""

    graph: IRGraph
    tensors: Dict[int, Tensor]                  # uid -> live tensor (strong)
    backwards: Dict[int, Callable]              # uid -> backward closure
    source_data: Dict[int, np.ndarray]          # uid -> leaf/const snapshot
    grads_before: Dict[int, Optional[np.ndarray]]
    grads_after: Dict[int, Optional[np.ndarray]]
    seed_grad: np.ndarray
    clean: bool                                 # window = exactly one step
    step_index: int                             # which backward call (0-based)
    method: str = ""

    def grad_leaves(self) -> List[IRNode]:
        """Gradient-accumulating sources (trainable leaves)."""
        return [node for node in self.graph.nodes
                if node.requires_grad and not node.has_backward]


class IRCapture(EngineObserver):
    """Context manager that records one fwd+bwd step while code runs.

    Usage::

        with IRCapture() as harness:
            method.fit(pair, split)
        capture = harness.capture     # None if backward never ran
    """

    def __init__(self, max_ops: int = 200_000, max_attempts: int = 3):
        self.max_ops = int(max_ops)
        self.max_attempts = int(max_attempts)
        self.captures: List[StepCapture] = []
        self._done = False
        self._overflowed = False
        self._window_clean = False
        self._backward_count = 0
        self._paths = ModulePathTracker()
        self._reset_window()
        self._capturing_dispatch = False
        self._root_uid: Optional[int] = None
        self._seed: Optional[np.ndarray] = None
        self._dispatch: List[int] = []
        self._grads_before: Dict[int, Optional[np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Result access
    # ------------------------------------------------------------------ #
    @property
    def capture(self) -> Optional[StepCapture]:
        """The preferred capture: the last clean one, else the last."""
        for cap in reversed(self.captures):
            if cap.clean:
                return cap
        return self.captures[-1] if self.captures else None

    # ------------------------------------------------------------------ #
    # Install / uninstall
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "IRCapture":
        add_observer(self)
        return self

    def __exit__(self, *exc) -> None:
        remove_observer(self)

    # ------------------------------------------------------------------ #
    # Engine events
    # ------------------------------------------------------------------ #
    def module_enter(self, module) -> None:
        self._paths.push(module)

    def module_exit(self, module) -> None:
        self._paths.pop()

    def op_created(self, out, data, parents, backward) -> None:
        if not self._done and out._backward is not None:
            self._record_op(out, parents, data)

    def dispatch_begin(self, node, grad) -> None:
        if self._capturing_dispatch:
            uid = self._ids.get(id(node))
            if uid is None:
                uid = self._register_source(node)
            self._dispatch.append(uid)

    # ------------------------------------------------------------------ #
    # Window recording
    # ------------------------------------------------------------------ #
    def _reset_window(self) -> None:
        self._uid = 0
        self._ids: Dict[int, int] = {}          # id(tensor) -> uid
        self._tensors: Dict[int, Tensor] = {}   # strong refs keep ids valid
        self._backwards: Dict[int, Callable] = {}
        self._nodes: List[IRNode] = []
        self._overflowed = False
        self._window_clean = self._backward_count > 0

    def _next_uid(self) -> int:
        uid = self._uid
        self._uid += 1
        return uid

    def _record_op(self, out: Tensor, parents, raw_data) -> None:
        if len(self._nodes) >= self.max_ops:
            self._overflowed = True
            return
        parent_uids = tuple(self._ids.get(id(p), -1) for p in parents)
        if any(uid < 0 for uid in parent_uids):
            parent_uids = tuple(
                uid if uid >= 0 else self._register_source(parent)
                for uid, parent in zip(parent_uids, parents)
            )
        uid = self._next_uid()
        node = IRNode(
            uid=uid,
            op=op_name_from_backward(out._backward),
            kind="op",
            shape=out.shape,
            dtype=str(out.dtype),
            raw_dtype=str(getattr(raw_data, "dtype", out.dtype)),
            parents=parent_uids,
            module=self._paths.path(),
            requires_grad=out.requires_grad,
            has_backward=True,
            receives_grad=receives_grad(out),
        )
        self._ids[id(out)] = uid
        self._tensors[uid] = out
        self._backwards[uid] = out._backward
        self._nodes.append(node)

    def _register_source(self, t: Tensor) -> int:
        """Register a tensor created outside the window (lazily).

        Sources with their own backward are ``external`` op nodes whose
        ancestry is registered recursively — the engine's backward will
        walk through them, so dispatch replay needs the full chain.
        """
        existing = self._ids.get(id(t))
        if existing is not None:
            return existing
        if t._backward is not None:
            parent_uids = tuple(self._register_source(p) for p in t._parents)
            uid = self._next_uid()
            node = IRNode(
                uid=uid, op=op_name_from_backward(t._backward),
                kind="external", shape=t.shape, dtype=str(t.dtype),
                raw_dtype=str(t.dtype), parents=parent_uids, module="",
                requires_grad=t.requires_grad, has_backward=True,
                receives_grad=receives_grad(t),
            )
            self._backwards[uid] = t._backward
        else:
            uid = self._next_uid()
            kind = "leaf" if t.requires_grad else "const"
            node = IRNode(
                uid=uid, op=kind, kind=kind, shape=t.shape,
                dtype=str(t.dtype), raw_dtype=str(t.dtype), parents=(),
                module="", requires_grad=t.requires_grad, has_backward=False,
                receives_grad=receives_grad(t),
            )
            if self._capturing_dispatch and t.requires_grad:
                # Discovered mid-backward: its .grad has not been
                # accumulated yet (leaves accumulate only after every
                # consumer dispatched), so this snapshot is "before".
                self._grads_before[uid] = \
                    None if t.grad is None else t.grad.copy()
        self._ids[id(t)] = uid
        self._tensors[uid] = t
        self._nodes.append(node)
        return uid

    # ------------------------------------------------------------------ #
    # Step delimitation / finalisation
    # ------------------------------------------------------------------ #
    def backward_begin(self, root: Tensor, grad) -> None:
        self._capturing_dispatch = False
        if self._done:
            return
        # A root built before the window (or a bare leaf) still marks a
        # step boundary at backward_end, but is not captured.
        self._root_uid = self._ids.get(id(root))
        if self._root_uid is None:
            return
        self._seed = np.array(grad, dtype=np.float64, copy=True)
        self._grads_before = {}
        for node in self._nodes:
            if node.requires_grad and not node.has_backward:
                t = self._tensors[node.uid]
                self._grads_before[node.uid] = \
                    None if t.grad is None else t.grad.copy()
        self._dispatch = []
        self._capturing_dispatch = not self._overflowed

    def backward_end(self, root: Tensor) -> None:
        self._capturing_dispatch = False
        if self._done:
            return
        if self._root_uid is not None:
            capture = self._finalize()
            self.captures.append(capture)
            if capture.clean or len(self.captures) >= self.max_attempts:
                self._done = True
        self._backward_count += 1
        self._reset_window()

    def _finalize(self) -> StepCapture:
        grads_after: Dict[int, Optional[np.ndarray]] = {}
        source_data: Dict[int, np.ndarray] = {}
        for node in self._nodes:
            t = self._tensors[node.uid]
            if node.kind != "op":
                # Sources can be mutated later (optimizer steps write
                # parameters in place); snapshot for bit-exact replay.
                source_data[node.uid] = t.data.copy()
            if node.requires_grad and not node.has_backward:
                grads_after[node.uid] = \
                    None if t.grad is None else t.grad.copy()
        graph = IRGraph(nodes=list(self._nodes), root=self._root_uid,
                        dispatch_order=list(self._dispatch),
                        overflowed=self._overflowed)
        return StepCapture(
            graph=graph,
            tensors=dict(self._tensors),
            backwards=dict(self._backwards),
            source_data=source_data,
            grads_before=dict(self._grads_before),
            grads_after=grads_after,
            seed_grad=self._seed,
            clean=self._window_clean,
            step_index=self._backward_count,
        )


# ---------------------------------------------------------------------- #
# Convenience entry points
# ---------------------------------------------------------------------- #
def capture_step(fn: Callable[[], object], label: str = "") -> StepCapture:
    """Run ``fn`` under capture and return the captured step.

    ``fn`` must build a loss and call ``backward()`` at least once.
    """
    with IRCapture() as harness:
        fn()
    capture = harness.capture
    if capture is None:
        raise RuntimeError(
            f"{label or 'callable'} never called backward() on a recorded "
            "graph; nothing to capture"
        )
    capture.method = label
    return capture


def capture_method(method_name: str, pair=None, split=None) -> StepCapture:
    """Capture one training step of a registered method.

    Runs the method at unit-test scale on the tiny synthetic pair (the
    same workload ``repro check-model`` and ``repro profile`` use) and
    returns the captured step.  Non-gradient (closed-form) methods
    raise ``RuntimeError``.
    """
    from ..graphcheck import tiny_check_method, tiny_check_pair

    pair = pair if pair is not None else tiny_check_pair()
    split = split or pair.split()
    method = tiny_check_method(method_name)
    with IRCapture() as harness:
        method.fit(pair, split)
    capture = harness.capture
    if capture is None:
        raise RuntimeError(
            f"method {method_name!r} never called backward() during fit "
            "(closed-form / non-gradient method); nothing to capture"
        )
    capture.method = method_name
    return capture
