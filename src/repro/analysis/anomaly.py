"""Opt-in NaN/Inf anomaly detection with op provenance.

The numpy autograd engine happily propagates a NaN born deep inside a
BiGRU backward pass all the way into the optimizer — the run "works",
the metrics are garbage.  :class:`detect_anomaly` is the substitute for
``torch.autograd.set_detect_anomaly(True)``: while active, every op
created in :mod:`repro.nn.tensor` records *where it came from* (op name
plus a snippet of the creating stack), every forward output and every
backward gradient contribution is checked for NaN/Inf, and the first
anomaly raises :class:`AnomalyError` naming the originating op::

    with detect_anomaly():
        loss = model(batch)
        loss.backward()

    # AnomalyError: NaN/Inf in gradient produced by backward of op 'log'
    # op created at (most recent call last):
    #   File "model.py", line 42, in forward
    #     attn = scores.log()

Wired into training via ``SDEAConfig.detect_anomaly`` and the CLI's
``repro run --detect-anomaly``.  The mode is an engine observer
(:mod:`repro.nn.observers`), so it composes with the profiler, the
graph checker and IR capture in any enter order.  It costs one
``np.isfinite`` sweep per op and is therefore opt-in.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nn import observers as _observers
from ..nn import tensor as _tensor_module
from ..nn.tensor import receives_grad
from ..obs.attribution import op_name_from_backward

__all__ = ["AnomalyError", "OpProvenance", "detect_anomaly",
           "is_anomaly_enabled"]

#: Frames from these exact files are engine internals, not user code.
#: (Exact paths, not suffixes — a user's `test_anomaly.py` must survive.)
_INTERNAL_FILES = frozenset({_tensor_module.__file__, _observers.__file__,
                             __file__})


class AnomalyError(RuntimeError):
    """Raised when a NaN/Inf value or gradient is detected.

    Attributes
    ----------
    provenance:
        The :class:`OpProvenance` of the originating op, when known.
    phase:
        ``"forward"`` or ``"backward"``.
    """

    def __init__(self, message: str,
                 provenance: Optional["OpProvenance"] = None,
                 phase: str = "forward"):
        super().__init__(message)
        self.provenance = provenance
        self.phase = phase


@dataclass(frozen=True)
class OpProvenance:
    """Where an op output was created: op name + creating-stack snippet."""

    op: str
    stack: str

    def format(self) -> str:
        if not self.stack:
            return f"op '{self.op}' (creation stack unavailable)"
        return (f"op '{self.op}' created at "
                f"(most recent call last):\n{self.stack}")


def _stack_snippet(limit: int = 4) -> str:
    """The last ``limit`` non-engine frames, formatted like a traceback.

    Walks outward from the caller and stops after ``limit`` frames, so
    the cost does not grow with the depth of the whole stack.
    """
    picked = []
    frame = sys._getframe(1)
    while frame is not None and len(picked) < limit:
        if frame.f_code.co_filename not in _INTERNAL_FILES:
            picked.append((frame, frame.f_lineno))
        frame = frame.f_back
    summary = traceback.StackSummary.extract(reversed(picked))
    return "".join(summary.format()).rstrip("\n")


def _finite(array: np.ndarray) -> bool:
    return array.dtype.kind not in "fc" or bool(np.all(np.isfinite(array)))


def _describe(array: np.ndarray) -> str:
    nan = int(np.isnan(array).sum())
    inf = int(np.isinf(array).sum())
    return f"{nan} NaN / {inf} Inf over shape {array.shape}"


def _raise_nonfinite(what: str, provenance: Optional[OpProvenance],
                     detail: str) -> None:
    where = provenance.format() if provenance else "an untracked op"
    raise AnomalyError(f"NaN/Inf in {what} of {where}\n({detail})",
                       provenance=provenance, phase="backward")


def is_anomaly_enabled() -> bool:
    """True while at least one :class:`detect_anomaly` context is active."""
    return any(isinstance(observer, detect_anomaly)
               for observer in _observers.registered())


class detect_anomaly(_observers.EngineObserver):
    """Context manager enabling anomaly detection (reentrant).

    Checks every op output as it is created, and every node's incoming
    gradient and gradient contributions as the engine dispatches it —
    before the contributions reach the parents, so the raising op is
    exactly the one whose backward produced the bad values.
    """

    def __enter__(self) -> "detect_anomaly":
        _observers.add_observer(self)
        return self

    def __exit__(self, *exc) -> None:
        _observers.remove_observer(self)

    def op_created(self, out, data, parents, backward) -> None:
        provenance = OpProvenance(op=op_name_from_backward(backward),
                                  stack=_stack_snippet())
        out._ctx = provenance
        if not _finite(out.data):
            raise AnomalyError(
                f"NaN/Inf in forward output of {provenance.format()}\n"
                f"({_describe(out.data)})",
                provenance=provenance, phase="forward",
            )

    def dispatch_begin(self, node, grad) -> None:
        if not _finite(np.asarray(grad)):
            _raise_nonfinite("incoming gradient", node._ctx,
                             _describe(np.asarray(grad)))

    def dispatch_end(self, node, grad, contributions) -> None:
        for index, (parent, contribution) in enumerate(
                zip(node._parents, contributions)):
            if contribution is None or not receives_grad(parent):
                continue
            if not _finite(np.asarray(contribution)):
                _raise_nonfinite(
                    "gradient produced by backward", node._ctx,
                    f"contribution to parent {index} of shape "
                    f"{parent.shape}: {_describe(np.asarray(contribution))}")
