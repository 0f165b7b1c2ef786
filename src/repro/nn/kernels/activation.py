"""The one switch for the fused autograd kernels.

Inside a :func:`use_kernels` block the call sites
(:mod:`repro.nn.functional`, :class:`repro.nn.rnn.GRU`,
:class:`repro.nn.layers.LayerNorm`) run the fused kernels; outside it
they run the composed reference ops the kernels are tested against.
:func:`repro.experiments.runner.run_experiment` enters it, so every
run, CLI command and benchmark computes with the same kernels, while
the analysis harnesses that call ``fit`` directly (IR capture,
graphcheck, shape probes) stay on the composed graph.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from .alloc import tune_allocator

__all__ = ["use_kernels", "kernels_active"]

# Thread-local (manifest slot ``nn.kernels.activation``): a fused fit on
# one thread must not flip the engine under a reference fit on another.
_state = threading.local()


def kernels_active() -> bool:
    """Whether the fused kernels run on this thread."""
    return getattr(_state, "active", False)


@contextmanager
def use_kernels() -> Iterator[None]:
    """Run the fused kernels on this thread for the block.

    Contexts nest; leaving one restores the state it found.  The fused
    path ships with its allocator configuration (glibc mmap/trim
    thresholds, applied once per process).
    """
    previous = kernels_active()
    tune_allocator()
    _state.active = True
    try:
        yield
    finally:
        _state.active = previous
