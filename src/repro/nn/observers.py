"""Process-global observer list for the autograd engine.

Tools that watch the engine — the op profiler, anomaly mode, the graph
checker and the training-step IR capture — register an
:class:`EngineObserver` here instead of patching ``Tensor`` or
``Module`` methods.  The engine reports to every registered observer at
fixed points:

==================  =====================================================
event               fired by
==================  =====================================================
``module_enter``    ``Module.__call__``, before ``forward``
``module_exit``     ``Module.__call__``, after ``forward`` (also on raise)
``op_created``      ``Tensor._make_child``, after the output exists
``backward_begin``  ``Tensor.backward``, before the first node dispatches
``dispatch_begin``  ``Tensor.backward``, before one node's backward fn
``dispatch_end``    ``Tensor.backward``, after it, before its gradient
                    contributions are routed to the parents
``backward_end``    ``Tensor.backward``, after a backward that completed
==================  =====================================================

Observers only watch: gradient routing stays in the engine, so no
observer depends on which others are registered or in what order.  An
observer may raise (anomaly mode does) to abort the computation.  Engine
work that an observer itself causes — the graph checker's probe
``backward()`` inside ``backward_begin`` — is not reported to anyone,
so one tool's internals never show up in another tool's results.

With no observer registered the engine pays one truthiness check per op
and per module call, and one per ``backward()``.  Mutation goes through
``_LOCK`` (manifest slot ``nn.observers``); the engine iterates a
snapshot, so reads stay lock-free.
"""

from __future__ import annotations

import threading
from typing import List, Tuple

__all__ = ["EngineObserver", "add_observer", "remove_observer",
           "registered"]


class EngineObserver:
    """Receives engine events; subclasses override the ones they need."""

    def module_enter(self, module) -> None:
        pass

    def module_exit(self, module) -> None:
        pass

    def op_created(self, out, data, parents, backward) -> None:
        """``data`` is the op's raw result, before the engine's dtype cast."""

    def backward_begin(self, root, grad) -> None:
        pass

    def dispatch_begin(self, node, grad) -> None:
        pass

    def dispatch_end(self, node, grad, contributions) -> None:
        pass

    def backward_end(self, root) -> None:
        pass


_LOCK = threading.Lock()
_registry: List[EngineObserver] = []
# Per-thread flag set while an observer callback runs: engine work done
# inside a callback is the observer's own, not the observed program's.
_local = threading.local()


def add_observer(observer: EngineObserver) -> EngineObserver:
    """Register ``observer`` for every engine event in the process."""
    with _LOCK:
        _registry.append(observer)
    return observer


def remove_observer(observer: EngineObserver) -> None:
    """Unregister one registration of ``observer``; idempotent."""
    with _LOCK:
        try:
            _registry.remove(observer)
        except ValueError:
            pass


def registered() -> Tuple[EngineObserver, ...]:
    """The registered observers, in registration order."""
    return tuple(_registry)


def snapshot() -> Tuple[EngineObserver, ...]:
    """Observers to notify from this thread now (none inside a callback)."""
    if not _registry or getattr(_local, "busy", False):
        return ()
    return tuple(_registry)


def emit(observers: Tuple[EngineObserver, ...], event: str, *args) -> None:
    """Call ``event`` on each of ``observers`` (a :func:`snapshot`)."""
    _local.busy = True
    try:
        for observer in observers:
            getattr(observer, event)(*args)
    finally:
        _local.busy = False


def notify(event: str, *args) -> None:
    """:func:`emit` ``event`` to a :func:`snapshot` of the observers."""
    if not getattr(_local, "busy", False):
        emit(tuple(_registry), event, *args)
