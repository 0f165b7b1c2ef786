"""Fused autograd kernels (see ``docs/performance.md``).

Each kernel collapses a composed autograd subgraph into a **single
node** with a hand-written backward, eliminating the Python per-op
dispatch that dominates the hot paths (the BiGRU recurrence ran at 0.63
GFLOP/s composed vs ~30 for a plain matmul on the same host)::

    from repro.nn import kernels

    with kernels.use_kernels():
        loss = model(batch); loss.backward()

Every fused forward replicates the reference numpy arithmetic op for op,
and every backward replays the composed graph's float operations in the
engine's dispatch order, so each call's outputs and gradients are bit
for bit those of the composed path (``tests/test_kernels.py``).
"""

from .activation import kernels_active, use_kernels
from .alloc import tune_allocator
from .gru import fused_gru_sequence
from .layernorm import fused_layer_norm
from .softmax import fused_cross_entropy, fused_log_softmax, fused_softmax

__all__ = [
    "use_kernels", "kernels_active", "tune_allocator",
    "fused_gru_sequence",
    "fused_softmax", "fused_log_softmax", "fused_cross_entropy",
    "fused_layer_norm",
]
