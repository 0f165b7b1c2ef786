"""Engine observer list: event protocol and order-free tool composition.

The profiler, anomaly mode, the graph checker and IR capture all watch
the autograd engine through :mod:`repro.nn.observers`.  These tests pin
that each tool reports the same thing whichever others are active and
in whatever order they were entered.
"""

import itertools
from contextlib import ExitStack

import numpy as np
import pytest

from repro import obs
from repro.analysis import GraphCaptureHarness, detect_anomaly, walk_graph
from repro.analysis.ir import IRCapture
from repro.nn import SGD, Linear, Tensor
from repro.nn.observers import (
    EngineObserver, add_observer, registered, remove_observer,
)
from repro.obs.profile import OpProfiler


class _Recorder(EngineObserver):
    def __init__(self):
        self.events = []

    def module_enter(self, module):
        self.events.append(("module_enter", type(module).__name__))

    def module_exit(self, module):
        self.events.append(("module_exit", type(module).__name__))

    def op_created(self, out, data, parents, backward):
        self.events.append(("op_created", out.shape))

    def backward_begin(self, root, grad):
        self.events.append(("backward_begin", root.shape))

    def dispatch_begin(self, node, grad):
        self.events.append(("dispatch_begin", node.shape))

    def dispatch_end(self, node, grad, contributions):
        self.events.append(("dispatch_end", node.shape))

    def backward_end(self, root):
        self.events.append(("backward_end", root.shape))


class TestEventProtocol:
    def test_events_in_engine_order(self):
        layer = Linear(2, 1, np.random.default_rng(0), bias=False)
        recorder = add_observer(_Recorder())
        try:
            loss = layer(Tensor(np.ones((1, 2)))).sum()
            loss.backward()
        finally:
            remove_observer(recorder)
        assert recorder.events == [
            ("module_enter", "Linear"),
            ("op_created", (1, 1)),          # x @ W
            ("module_exit", "Linear"),
            ("op_created", ()),              # sum
            ("backward_begin", ()),
            ("dispatch_begin", ()),
            ("dispatch_end", ()),
            ("dispatch_begin", (1, 1)),
            ("dispatch_end", (1, 1)),
            ("backward_end", ()),
        ]

    def test_module_exit_fires_when_forward_raises(self):
        class Broken(Linear):
            def forward(self, x):
                raise ValueError("boom")

        recorder = add_observer(_Recorder())
        try:
            with pytest.raises(ValueError):
                Broken(2, 1, np.random.default_rng(0))(Tensor(np.ones(2)))
        finally:
            remove_observer(recorder)
        assert recorder.events == [("module_enter", "Broken"),
                                   ("module_exit", "Broken")]

    def test_work_inside_a_callback_is_not_reported(self):
        # An observer that runs engine work of its own (the graph
        # checker's probe backward does) must not show up in anyone's
        # event stream — its own included.
        class Prober(EngineObserver):
            def backward_begin(self, root, grad):
                probe = Tensor(np.ones(2), requires_grad=True)
                (probe * 3.0).sum().backward()

        prober, recorder = Prober(), _Recorder()
        add_observer(prober)
        add_observer(recorder)
        try:
            x = Tensor(np.ones(2), requires_grad=True)
            x.sum().backward()
        finally:
            remove_observer(recorder)
            remove_observer(prober)
        assert [e[0] for e in recorder.events] == [
            "op_created", "backward_begin", "dispatch_begin",
            "dispatch_end", "backward_end",
        ]
        np.testing.assert_array_equal(x.grad, np.ones(2))

    def test_remove_is_idempotent(self):
        before = registered()
        observer = add_observer(EngineObserver())
        remove_observer(observer)
        remove_observer(observer)
        assert registered() == before


# ---------------------------------------------------------------------- #
# Composition of the four engine tools
# ---------------------------------------------------------------------- #
def _step():
    """One fixed seeded fwd+bwd step with a module, dunder ops and an
    optimizer (so the graph checker has a parameter group)."""
    rng = np.random.default_rng(0)
    layer = Linear(4, 3, rng)
    x = Tensor(rng.normal(size=(5, 4)))
    optimizer = SGD(layer.parameters(), lr=0.1)
    optimizer.zero_grad()
    loss = (layer(x).tanh() * 2.0).sum()
    loss.backward()
    optimizer.step()
    return loss


def _backward_rows(profiler):
    return {key: stat.calls for key, stat in profiler.stats.items()
            if key[1] == "backward"}


class TestProfilerWithAnomalyMode:
    @pytest.mark.parametrize("profiler_first", [True, False])
    def test_backward_rows_match_profiler_alone(self, profiler_first):
        with OpProfiler() as alone:
            _step()
        expected = _backward_rows(alone)
        assert expected  # the step does dispatch backward nodes

        with ExitStack() as stack:
            if profiler_first:
                profiler = stack.enter_context(OpProfiler())
                stack.enter_context(detect_anomaly())
            else:
                stack.enter_context(detect_anomaly())
                profiler = stack.enter_context(OpProfiler())
            _step()
        assert _backward_rows(profiler) == expected


class TestAnomalyProvenanceUnderCapture:
    def test_provenance_names_the_op_not_a_wrapper(self):
        with detect_anomaly(), IRCapture():
            x = Tensor([2.0], requires_grad=True)
            y = x * 3.0
        assert y._ctx.op == "mul"
        assert "capture.py" not in y._ctx.stack
        assert "nn/observers.py" not in y._ctx.stack
        assert "y = x * 3.0" in y._ctx.stack

    def test_provenance_independent_of_other_tools(self):
        def run(*tools):
            with ExitStack() as stack:
                for tool in tools:
                    stack.enter_context(tool)
                with detect_anomaly():
                    y = Tensor([2.0], requires_grad=True).sqrt()
            return y._ctx

        assert run() == run(OpProfiler(), IRCapture(), GraphCaptureHarness())


def _run_tools(order):
    """Enter the named tools in ``order`` around :func:`_step` and return
    each tool's result in a comparable form."""
    factories = {
        "profile": lambda: obs.session(runs_dir=None, profile=True),
        "anomaly": detect_anomaly,
        "ir": IRCapture,
        "graphcheck": GraphCaptureHarness,
    }
    before = registered()
    with ExitStack() as stack:
        tools = {name: stack.enter_context(factories[name]())
                 for name in order}
        loss = _step()
    assert registered() == before
    out = {}
    if "profile" in tools:
        out["profile"] = {key: stat.calls for key, stat
                          in tools["profile"].profiler.stats.items()}
    if "anomaly" in tools:
        out["anomaly"] = [(node._ctx.op, node._ctx.stack)
                          for node in walk_graph(loss)
                          if node._ctx is not None]
    if "ir" in tools:
        graph = tools["ir"].capture.graph
        out["ir"] = ([(n.uid, n.op, n.kind, n.shape, n.parents, n.module)
                      for n in graph.nodes], list(graph.dispatch_order))
    if "graphcheck" in tools:
        out["graphcheck"] = [report.format()
                             for report in tools["graphcheck"].reports]
    return out


TOOLS = ("profile", "anomaly", "ir", "graphcheck")


class TestAnyEnterOrder:
    def test_all_24_orders_agree_with_each_tool_alone(self):
        orders = list(itertools.permutations(TOOLS))
        assert len(orders) == 24
        # One call site for every run: provenance stacks include it.
        runs = [_run_tools(order)
                for order in [(name,) for name in TOOLS] + orders]
        expected = {}
        for alone in runs[:len(TOOLS)]:
            expected.update(alone)
        assert expected["anomaly"] and expected["graphcheck"]
        assert "mul" in {op for op, _ in expected["anomaly"]}
        for order, result in zip(orders, runs[len(TOOLS):]):
            assert result == expected, order
