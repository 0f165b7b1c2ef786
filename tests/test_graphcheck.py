"""Dynamic graph checker: structural checks, probe backward, harness.

The property tests compose random op chains over ``repro.nn`` tensors
and assert the checker's core invariants: every parameter reachable
from the loss receives a gradient, and detached inputs are flagged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    GraphCaptureHarness,
    check_graph,
    check_method,
    walk_graph,
)
from repro.nn import SGD, Linear, Parameter, Tensor
from repro.nn.observers import registered
from repro.nn.optim import Optimizer

# Unary ops that keep values (and gradients) finite for inputs in a
# bounded range — safe building blocks for random graph composition.
# Ops whose arbitrary composition keeps values (and therefore gradients)
# finite for inputs in [-2, 2].  `exp` does NOT belong here: exp∘exp∘exp
# overflows to inf and check_graph then *correctly* reports a
# nonfinite-gradient — covered separately below with one application.
SAFE_UNARY = ("tanh", "sigmoid", "abs")


def errors(report):
    return [issue for issue in report.issues if issue.severity == "error"]


class TestWalkGraph:
    def test_counts_distinct_nodes(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        loss = (a * b).sum()
        nodes = walk_graph(loss)
        assert len(nodes) == 4  # loss, product, a, b
        ids = {id(node) for node in nodes}
        assert {id(a), id(b), id(loss)} <= ids

    def test_shared_node_visited_once(self):
        a = Tensor([1.0], requires_grad=True)
        loss = (a * a).sum()
        assert sum(1 for node in walk_graph(loss) if node is a) == 1


class TestCheckGraphProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SAFE_UNARY), min_size=0, max_size=4),
        size=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_reachable_params_always_get_gradients(self, ops, size, seed):
        rng = np.random.default_rng(seed)
        p1 = Parameter(rng.uniform(-1.0, 1.0, size=size))
        p2 = Parameter(rng.uniform(-1.0, 1.0, size=size))
        x = p1 * p2 + p1
        for op in ops:
            x = getattr(x, op)()
        loss = x.sum()
        report = check_graph(loss, parameters=[("p1", p1), ("p2", p2)])
        assert report.params_reachable == 2
        assert not [e for e in errors(report)
                    if e.kind in ("missing-gradient", "shape-mismatch",
                                  "nonfinite-gradient",
                                  "unreachable-parameter")], report.format()
        # the probe must not leave state behind
        assert p1.grad is None and p2.grad is None

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_single_exp_keeps_gradients_finite(self, seed):
        rng = np.random.default_rng(seed)
        p1 = Parameter(rng.uniform(-1.0, 1.0, size=3))
        p2 = Parameter(rng.uniform(-1.0, 1.0, size=3))
        loss = (p1 * p2 + p1).exp().sum()
        report = check_graph(loss, parameters=[("p1", p1), ("p2", p2)])
        assert report.params_reachable == 2
        assert not [e for e in errors(report)
                    if e.kind == "nonfinite-gradient"], report.format()

    @settings(max_examples=15, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(SAFE_UNARY), min_size=0, max_size=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_detached_inputs_always_flagged(self, ops, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-1.0, 1.0, size=3))  # requires_grad=False
        for op in ops:
            x = getattr(x, op)()
        loss = (x * x).sum()
        report = check_graph(loss)
        assert not report.ok
        assert any(issue.kind == "detached-loss" for issue in report.issues)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_unused_parameter_always_flagged(self, seed):
        rng = np.random.default_rng(seed)
        used = Parameter(rng.uniform(-1.0, 1.0, size=3))
        unused = Parameter(rng.uniform(-1.0, 1.0, size=3))
        loss = used.tanh().sum()
        report = check_graph(loss, parameters=[("used", used),
                                               ("unused", unused)])
        assert report.params_reachable == 1
        assert not report.ok
        assert any(issue.kind == "unreachable-parameter"
                   and "unused" in issue.message
                   for issue in report.issues)


class TestCheckGraphFindings:
    def test_clean_graph_reports_ok(self):
        p = Parameter(np.array([0.5, -0.5]))
        report = check_graph((p * p).sum(), parameters=[("p", p)],
                             label="clean")
        assert report.ok
        assert "clean" in report.format()
        assert "ok" in report.format()

    def test_non_scalar_loss_warns(self):
        p = Parameter(np.ones(3))
        report = check_graph(p * 2.0, parameters=[("p", p)],
                             run_backward=False)
        assert any(issue.kind == "non-scalar-loss"
                   for issue in report.issues)

    def test_stale_gradients_warn_double_backward(self):
        p = Parameter(np.ones(2))
        loss = (p * p).sum()
        loss.backward()
        assert p.grad is not None
        report = check_graph(loss, parameters=[("p", p)],
                             run_backward=False)
        assert any(issue.kind == "double-backward-hazard"
                   for issue in report.issues)

    def test_probe_restores_preexisting_gradients(self):
        p = Parameter(np.ones(2))
        p.grad = np.full(2, 7.0)
        check_graph((p * p).sum(), parameters=[("p", p)])
        np.testing.assert_array_equal(p.grad, np.full(2, 7.0))

    def test_zero_gradient_is_warning_not_error(self):
        p = Parameter(np.zeros(3))
        report = check_graph((p * 0.0).sum(), parameters=[("p", p)])
        assert report.ok
        assert any(issue.kind == "zero-gradient" for issue in report.issues)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # log(0) on purpose
    def test_nonfinite_gradient_is_error(self):
        p = Parameter(np.array([0.0, 1.0]))
        report = check_graph(p.log().sum(), parameters=[("p", p)])
        assert not report.ok
        assert any(issue.kind == "nonfinite-gradient"
                   for issue in report.issues)

    def test_untracked_trainable_leaf_warns(self):
        p = Parameter(np.ones(2))
        stray = Parameter(np.ones(2))
        report = check_graph((p * stray).sum(), parameters=[("p", p)],
                             run_backward=False)
        assert any(issue.kind == "untracked-trainable-leaf"
                   for issue in report.issues)


class TestGraphCaptureHarness:
    def test_captures_one_report_per_leaf_signature(self, rng):
        layer = Linear(3, 1, rng)
        x = Tensor(np.ones((4, 3)))
        with GraphCaptureHarness() as harness:
            optimizer = SGD(layer.parameters(), lr=0.01)
            for _ in range(3):  # same graph shape → one capture, not three
                optimizer.zero_grad()
                loss = (layer(x) * layer(x)).sum()
                loss.backward()
                optimizer.step()
        assert len(harness.reports) == 1
        assert harness.reports[0].ok, harness.reports[0].format()
        assert harness.reports[0].params_total == len(list(layer.parameters()))

    def test_patches_are_unwound_on_exit(self):
        original_init = Optimizer.__init__
        before = registered()
        with GraphCaptureHarness() as harness:
            assert Optimizer.__init__ is not original_init
            assert registered() == before + (harness,)
        assert Optimizer.__init__ is original_init
        assert registered() == before
        with pytest.raises(RuntimeError):
            with GraphCaptureHarness():
                raise RuntimeError("fit failed")
        assert Optimizer.__init__ is original_init
        assert registered() == before

    def test_max_captures_respected(self, rng):
        with GraphCaptureHarness(max_captures=1) as harness:
            for _ in range(3):
                p = Parameter(np.ones(2) * (1 + _))
                SGD([p], lr=0.1)
                (p * p).sum().backward()
        assert len(harness.reports) == 1


class TestCheckMethod:
    def test_gradient_baseline_checks_clean(self):
        reports = check_method("mtranse", max_captures=2)
        assert reports, "mtranse trains by gradient; expected a capture"
        for report in reports:
            assert report.ok, report.format()

    def test_unknown_method_raises(self):
        with pytest.raises(KeyError):
            check_method("definitely-not-a-method")
