"""Fused-kernel layer: the switch, bitwise parity, gradcheck, e2e SDEA.

Inside ``use_kernels()`` every fused op must reproduce the composed
autograd graph it replaces:

* **bitwise parity** — outputs *and* gradients of each call bit-for-bit
  identical to the composed graph (``np.array_equal``, no tolerance),
  on fixed cases and on hypothesis-drawn inputs;
* **finite differences** — the fused backward agrees with a central
  difference of the forward, anchoring it to the math rather than to
  the composed graph;
* **what ships** — ``run_experiment`` runs the kernels on whichever
  thread calls it, sharded suite workers included.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.graphcheck import tiny_check_method, tiny_check_pair
from repro.core import SDEA, SDEAConfig
from repro.experiments import runner
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.kernels import fused_gru_sequence, kernels_active, use_kernels
from repro.nn.layers import LayerNorm
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.observers import EngineObserver, add_observer, remove_observer
from repro.nn.rnn import GRU, BiGRU, GRUCell
from repro.nn.tensor import DEFAULT_DTYPE, Tensor
from repro.obs.attribution import op_name_from_backward

FUSED_OPS = (
    "fused_cross_entropy", "fused_gru_sequence", "fused_layer_norm",
    "fused_log_softmax", "fused_softmax",
)


class OpThreads(EngineObserver):
    """Records ``(op name, thread id)`` for every op the engine builds."""

    def __init__(self):
        self.seen = set()
        self._lock = threading.Lock()

    def op_created(self, out, data, parents, backward):
        with self._lock:
            self.seen.add((op_name_from_backward(backward),
                           threading.get_ident()))

    def ops(self):
        return {name for name, _ in self.seen}


# --------------------------------------------------------------------- #
# The switch
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_registered_names(self):
        assert tuple(sorted(n for n in kernels.__all__
                            if n.startswith("fused_"))) == FUSED_OPS

    def test_nothing_active_by_default(self):
        assert not kernels_active()

    def test_activate_all(self, rng):
        """One switch routes every call site to its fused kernel."""
        ln, gru = LayerNorm(4), GRU(4, 3, rng)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        observer = add_observer(OpThreads())
        try:
            with use_kernels():
                assert kernels_active()
                F.softmax(x)
                F.log_softmax(x)
                F.cross_entropy(logits, np.arange(5) % 4)
                ln(x)
                gru(x)
        finally:
            remove_observer(observer)
        assert set(FUSED_OPS) <= observer.ops()
        assert not {"exp", "sigmoid", "sqrt"} & observer.ops()
        assert not kernels_active()

    def test_nesting_restores_previous(self):
        with use_kernels():
            with use_kernels():
                assert kernels_active()
            assert kernels_active()
            with pytest.raises(RuntimeError):
                with use_kernels():
                    raise RuntimeError("boom")
            assert kernels_active()
        assert not kernels_active()

    def test_unknown_kernel_rejected(self):
        """There is no per-kernel selection: the switch takes no names."""
        with pytest.raises(TypeError):
            use_kernels("softmax")

    def test_unknown_mode_rejected(self):
        """There is one backward per kernel: no mode, no off switch."""
        with pytest.raises(TypeError):
            use_kernels(mode="exact")
        with pytest.raises(TypeError):
            use_kernels(enabled=False)


# --------------------------------------------------------------------- #
# Shared comparison harness
# --------------------------------------------------------------------- #
def _run(fn, params):
    """Forward + backward with a deterministic non-trivial seed."""
    for p in params:
        p.grad = None
    out = fn()
    seed = np.cos(
        np.arange(out.data.size, dtype=np.float64)
    ).reshape(out.data.shape)
    out.backward(seed)
    return out.data.copy(), [
        None if p.grad is None else p.grad.copy() for p in params
    ]


def assert_bitwise(fn, params, reference=None):
    """The fused run of ``fn`` equals the composed graph bit-for-bit.

    ``reference`` (default: ``fn`` itself, outside ``use_kernels()``)
    builds the composed graph.
    """
    ref_out, ref_grads = _run(reference or fn, params)
    with use_kernels():
        fused_out, fused_grads = _run(fn, params)
    assert np.array_equal(ref_out, fused_out), "forward not bitwise"
    for i, (a, b) in enumerate(zip(ref_grads, fused_grads)):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b), f"grad[{i}] not bitwise"


def _mask(kind, batch, steps):
    """Validity masks: all valid, ragged tails, interior holes."""
    if kind == "none":
        return None
    mask = np.ones((batch, steps), dtype=bool)
    if kind == "tail":
        mask[0, steps // 2 + 1:] = False
        mask[-1, 1:] = False
    elif kind == "holes":
        mask[:, 1::2] = False
        mask[0, 0] = False
    return mask


# --------------------------------------------------------------------- #
# Bitwise parity, kernel by kernel
# --------------------------------------------------------------------- #
class TestExactModeBitwise:
    def test_softmax_2d(self, rng):
        x = Tensor(rng.normal(size=(16, 11)), requires_grad=True)
        assert_bitwise(lambda: F.softmax(x, axis=-1), [x])

    def test_softmax_4d_inner_axis(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 5, 7)), requires_grad=True)
        assert_bitwise(lambda: F.softmax(x, axis=1), [x])

    def test_log_softmax(self, rng):
        x = Tensor(rng.normal(size=(9, 13)), requires_grad=True)
        assert_bitwise(lambda: F.log_softmax(x, axis=-1), [x])

    @pytest.mark.parametrize("ignore", [None, -1])
    def test_cross_entropy(self, rng, ignore):
        logits = Tensor(rng.normal(size=(12, 7)), requires_grad=True)
        targets = rng.integers(0, 7, size=12)
        if ignore is not None:
            targets[::3] = ignore
        assert_bitwise(
            lambda: F.cross_entropy(logits, targets, ignore_index=ignore),
            [logits])

    def test_layer_norm(self, rng):
        ln = LayerNorm(10)
        x = Tensor(rng.normal(size=(4, 5, 10)), requires_grad=True)
        assert_bitwise(lambda: ln(x), [x, ln.gamma, ln.beta])

    def test_gru_cell(self, rng):
        """One fused step is the composed GRUCell, bit for bit."""
        cell = GRUCell(7, 5, rng)
        x = Tensor(rng.normal(size=(4, 1, 7)), requires_grad=True)
        h0 = Tensor(np.zeros((4, 5)))

        def fused():
            return fused_gru_sequence(x, None, *cell.packed_gates())

        def composed():
            return cell(x[:, 0, :], h0).reshape(4, 1, 5)

        assert_bitwise(fused, [x] + list(cell.parameters()),
                       reference=composed)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_sequence_masked(self, rng, reverse):
        gru = GRU(7, 5, rng, reverse=reverse)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[0, 4:] = False
        mask[2, 2:] = False
        params = [x] + list(gru.parameters())
        assert_bitwise(lambda: gru(x, mask), params)

    def test_bigru_end_to_end(self, rng):
        bigru = BiGRU(7, 5, rng)
        x = Tensor(rng.normal(size=(3, 6, 7)), requires_grad=True)
        mask = np.ones((3, 6), dtype=bool)
        mask[1, 3:] = False
        params = [x] + list(bigru.parameters())
        assert_bitwise(lambda: bigru(x, mask), params)

    @pytest.mark.parametrize("dims", [(32, 24), (32, 32)])
    @pytest.mark.parametrize("batch", [1, 2, 9])
    @pytest.mark.parametrize("steps", [1, 3, 12])
    @pytest.mark.parametrize("mask_kind", ["none", "tail", "holes"])
    @pytest.mark.parametrize("trainable_x", [True, False])
    def test_bigru_batch_sizes(self, dims, batch, steps, mask_kind,
                               trainable_x):
        """Batch 1 included: a single row takes BLAS's matrix-vector
        path in the composed per-step products."""
        rng = np.random.default_rng(batch * 100 + steps)
        bigru = BiGRU(*dims, rng)
        x = Tensor(rng.normal(size=(batch, steps, dims[0])),
                   requires_grad=trainable_x)
        mask = _mask(mask_kind, batch, steps)
        params = list(bigru.parameters()) + ([x] if trainable_x else [])
        assert_bitwise(lambda: bigru(x, mask), params)

    def test_attention_all_kernels(self, rng):
        mha = MultiHeadSelfAttention(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 5, 16)), requires_grad=True)
        params = [x] + list(mha.parameters())
        assert_bitwise(lambda: mha(x), params)


# --------------------------------------------------------------------- #
# Bitwise parity on hypothesis-drawn inputs
# --------------------------------------------------------------------- #
def _finite(shape, scale=2.0):
    return arrays(
        np.float64, shape,
        elements=st.floats(-scale, scale, allow_nan=False,
                           allow_infinity=False, width=64),
    )


class TestHypothesisBitwise:
    @settings(max_examples=25, deadline=None)
    @given(data=_finite((6, 9)))
    def test_softmax(self, data):
        x = Tensor(data, requires_grad=True)
        assert_bitwise(lambda: F.softmax(x, axis=-1), [x])

    @settings(max_examples=25, deadline=None)
    @given(data=_finite((5, 8)))
    def test_log_softmax(self, data):
        x = Tensor(data, requires_grad=True)
        assert_bitwise(lambda: F.log_softmax(x, axis=-1), [x])

    @settings(max_examples=25, deadline=None)
    @given(data=_finite((4, 3, 10)))
    def test_layer_norm(self, data):
        ln = LayerNorm(10)
        x = Tensor(data, requires_grad=True)
        assert_bitwise(lambda: ln(x), [x, ln.gamma, ln.beta])

    @settings(max_examples=15, deadline=None)
    @given(data=_finite((3, 5, 4)), seed=st.integers(0, 2**32 - 1))
    def test_gru_sequence(self, data, seed):
        gru = GRU(4, 6, np.random.default_rng(seed))
        x = Tensor(data, requires_grad=True)
        params = [x] + list(gru.parameters())
        assert_bitwise(lambda: gru(x), params)

    @settings(max_examples=15, deadline=None)
    @given(data=_finite((4, 5)), seed=st.integers(0, 2**32 - 1))
    def test_cross_entropy(self, data, seed):
        logits = Tensor(data, requires_grad=True)
        targets = np.random.default_rng(seed).integers(0, 5, size=4)
        assert_bitwise(lambda: F.cross_entropy(logits, targets), [logits])


class TestFiniteDifferences:
    """Anchor the fused backward to the math, not just to the engine."""

    def test_gru_cell_input_gradient(self, rng):
        """One GRU step through the fused sequence kernel."""
        cell = GRUCell(3, 4, rng)
        x0 = rng.normal(size=(2, 1, 3))
        w, u, b = (Tensor(p.data) for p in cell.packed_gates())

        def forward_sum(x_data):
            with use_kernels():
                out = fused_gru_sequence(Tensor(x_data), None, w, u, b)
            return out.data.sum()

        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels():
            out = fused_gru_sequence(x, None, w, u, b)
        out.backward(np.ones_like(out.data))
        eps = 1e-6
        for index in [(0, 0, 0), (0, 0, 2), (1, 0, 1)]:
            bumped = x0.copy()
            bumped[index] += eps
            plus = forward_sum(bumped)
            bumped[index] -= 2 * eps
            minus = forward_sum(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert x.grad[index] == pytest.approx(numeric, abs=1e-5)

    def test_softmax_gradient(self, rng):
        x0 = rng.normal(size=(3, 5))

        def forward_weighted(x_data):
            with use_kernels():
                out = F.softmax(Tensor(x_data), axis=-1)
            return (out.data * weight).sum()

        weight = rng.normal(size=(3, 5))
        x = Tensor(x0.copy(), requires_grad=True)
        with use_kernels():
            F.softmax(x, axis=-1).backward(weight)
        eps = 1e-6
        for index in [(0, 0), (1, 3), (2, 4)]:
            bumped = x0.copy()
            bumped[index] += eps
            plus = forward_weighted(bumped)
            bumped[index] -= 2 * eps
            minus = forward_weighted(bumped)
            numeric = (plus - minus) / (2 * eps)
            assert x.grad[index] == pytest.approx(numeric, abs=1e-5)


# --------------------------------------------------------------------- #
# DEFAULT_DTYPE consistency (satellite: GRU biases and initial state)
# --------------------------------------------------------------------- #
class TestRnnDtype:
    def test_cell_parameters_default_dtype(self, rng):
        cell = GRUCell(4, 6, rng)
        for p in cell.parameters():
            assert p.data.dtype == DEFAULT_DTYPE

    def test_initial_hidden_state_default_dtype(self, rng):
        gru = GRU(4, 6, rng)
        out = gru(Tensor(np.ones((2, 3, 4), dtype=np.float32)))
        assert out.data.dtype == DEFAULT_DTYPE

    def test_fused_output_dtype(self, rng):
        gru = BiGRU(4, 6, rng)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        with use_kernels():
            out = gru(x)
        assert out.data.dtype == DEFAULT_DTYPE


# --------------------------------------------------------------------- #
# End-to-end: tiny SDEA fit, fused vs reference
# --------------------------------------------------------------------- #
class TestEndToEndSDEA:
    """A tiny SDEA fit with the fused kernels against the composed path.

    Every logged loss, every validation Hits@1 and the final H@1/H@10/MRR
    are bitwise equal.  The final embeddings agree only to rounding: the
    relation loss runs one shared-parameter BiGRU twice, once per KG.  A
    fused GRU node sums its own steps' parameter gradients and the engine
    then adds the two calls' sums, while the composed graph adds every
    step of both calls into one running sum; float addition does not
    associate, so the trained relation weights differ in the last bits.
    """

    @pytest.fixture(scope="class")
    def trajectories(self, tiny_pair):
        config = dict(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=24, embed_dim=32, relation_hidden=24,
            attr_epochs=1, rel_epochs=2, mlm_epochs=1, vocab_size=400,
            patience=2, seed=1,
        )
        split = tiny_pair.split(seed=3)
        runs = {}
        for fused in (False, True):
            model = SDEA(SDEAConfig(**config))
            with use_kernels() if fused else nullcontext():
                result = model.fit(tiny_pair, split)
                metrics = model.evaluate(split.test)
                embeddings = (model.embeddings(1), model.embeddings(2))
            runs[fused] = (result, metrics, embeddings)
        return runs

    def test_loss_trajectories_bitwise(self, trajectories):
        """Fused training reproduces every logged loss and validation H@1."""
        ref, fused = trajectories[False][0], trajectories[True][0]
        assert ref.mlm_losses == fused.mlm_losses
        assert ref.attribute_log.losses == fused.attribute_log.losses
        assert ref.attribute_log.valid_hits1 == fused.attribute_log.valid_hits1
        assert ref.relation_log.losses == fused.relation_log.losses
        assert ref.relation_log.valid_hits1 == fused.relation_log.valid_hits1

    def test_eval_metrics_identical(self, trajectories):
        ref, fused = trajectories[False][1], trajectories[True][1]
        assert ref.metrics.hits_at_1 == fused.metrics.hits_at_1
        assert ref.metrics.hits_at_10 == fused.metrics.hits_at_10
        assert ref.metrics.mrr == fused.metrics.mrr

    def test_embeddings_agree_to_rounding(self, trajectories):
        for ref, fused in zip(trajectories[False][2], trajectories[True][2]):
            np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)


# --------------------------------------------------------------------- #
# What ships: run_experiment enters the kernels on its own thread
# --------------------------------------------------------------------- #
class TestShippedConfiguration:
    @pytest.fixture()
    def tiny_methods(self, monkeypatch):
        monkeypatch.setattr(runner, "make_method", tiny_check_method)

    def test_run_experiment_runs_the_kernels(self, tiny_methods):
        pair = tiny_check_pair()
        observer = add_observer(OpThreads())
        try:
            runner.run_experiment("sdea", pair, pair.split())
        finally:
            remove_observer(observer)
        assert set(FUSED_OPS) - {"fused_log_softmax"} <= observer.ops()
        assert "sigmoid" not in observer.ops()
        assert not kernels_active()

    def test_sharded_suite_workers_run_the_kernels(self, tiny_methods):
        """Activation is thread-local, so each suite worker must enter
        it itself; its results equal the serial suite's bit for bit."""
        pair = tiny_check_pair()
        split = pair.split()
        serial = runner.run_suite(["sdea", "sdea"], pair, split)
        observer = add_observer(OpThreads())
        try:
            sharded = runner.run_suite(["sdea", "sdea"], pair, split,
                                       shards=2)
        finally:
            remove_observer(observer)
        gru_threads = {thread for name, thread in observer.seen
                       if name == "fused_gru_sequence"}
        assert len(gru_threads) == 2
        assert threading.get_ident() not in gru_threads
        assert "sigmoid" not in observer.ops()
        for a, b in zip(serial, sharded):
            assert (a.hits_at_1, a.hits_at_10, a.mrr) == \
                (b.hits_at_1, b.hits_at_10, b.mrr)
