"""Dynamic autograd-graph checker for :mod:`repro.nn`.

:func:`check_graph` walks the reverse-mode graph hanging off a loss
tensor and reports the wiring mistakes that numpy autograd fails at
*silently*:

* **detached subgraphs** — the loss (or a parameter's whole path to it)
  does not require grad, so ``backward`` is a partial or total no-op;
* **parameters that receive no gradient** — registered with an
  optimizer but unreachable from the loss, or reachable yet handed a
  ``None``/all-zero gradient;
* **shape/dtype inconsistencies** — gradients whose shape differs from
  their parameter, non-float64 floating nodes in the graph;
* **double-backward hazards** — gradients already accumulated on graph
  nodes before ``backward`` runs, which a second pass would silently
  double.

:class:`GraphCaptureHarness` makes this runnable against *any* method
(SDEA and every baseline share it): it hooks ``Optimizer.__init__`` to
learn the trainable parameters and observes the start of each
``backward()`` (:mod:`repro.nn.observers`) to check the first loss
graph built over each distinct parameter set.
:func:`check_method` wires the harness to a tiny synthetic KG pair —
the ``repro check-model`` CLI entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.observers import EngineObserver, add_observer, remove_observer
from ..nn.tensor import Tensor
from .findings import Finding

__all__ = [
    "GraphIssue", "GraphReport", "GraphCaptureHarness",
    "walk_graph", "check_graph", "check_method",
]

#: One finding about a built autograd graph.  The record (and its text
#: rendering ``[severity] kind: message``) is the shared analysis
#: finding — the same dataclass ``repro ir`` reports G-codes through
#: (:mod:`repro.analysis.findings`).
GraphIssue = Finding


@dataclass
class GraphReport:
    """Outcome of :func:`check_graph` on one loss graph."""

    num_nodes: int = 0
    num_leaves: int = 0
    params_total: int = 0
    params_reachable: int = 0
    label: str = ""
    issues: List[GraphIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity issue was found."""
        return not any(issue.severity == "error" for issue in self.issues)

    def add(self, kind: str, severity: str, message: str) -> None:
        self.issues.append(GraphIssue(kind=kind, severity=severity,
                                      message=message))

    def format(self) -> str:
        head = (f"graph {self.label or '<loss>'}: {self.num_nodes} nodes, "
                f"{self.num_leaves} leaves, "
                f"{self.params_reachable}/{self.params_total} parameters "
                "reachable")
        if not self.issues:
            return head + "\n  ok"
        return head + "\n" + "\n".join(
            f"  {issue.format()}" for issue in self.issues
        )


def walk_graph(loss: Tensor) -> List[Tensor]:
    """All tensors reachable from ``loss`` through ``_parents`` links."""
    nodes: List[Tensor] = []
    seen: set = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


def _named(parameters) -> List[Tuple[str, Tensor]]:
    """Normalise a parameter iterable to ``(name, tensor)`` pairs."""
    out: List[Tuple[str, Tensor]] = []
    for index, item in enumerate(parameters or ()):
        if isinstance(item, tuple):
            name, param = item
        else:
            name, param = f"param[{index}]", item
        out.append((str(name), param))
    return out


def check_graph(loss: Tensor,
                parameters: Optional[Iterable] = None,
                run_backward: bool = True,
                label: str = "") -> GraphReport:
    """Check the autograd graph hanging off ``loss``.

    Parameters
    ----------
    loss:
        The tensor training would call ``backward()`` on.
    parameters:
        Optional trainable parameters — plain tensors or ``(name,
        tensor)`` pairs (``module.named_parameters()`` works directly).
        Reachability and gradient-delivery checks need them.
    run_backward:
        When True (default), a probe ``backward()`` runs to verify
        gradient delivery; pre-existing ``.grad`` values on reachable
        leaves are snapshotted and restored, so training state is not
        perturbed.
    label:
        Free-form tag shown in the report header.
    """
    report = GraphReport(label=label)
    named = _named(parameters)
    report.params_total = len(named)

    nodes = walk_graph(loss)
    node_ids = {id(node) for node in nodes}
    leaves = [node for node in nodes if node._backward is None]
    report.num_nodes = len(nodes)
    report.num_leaves = len(leaves)

    # -- detachment ---------------------------------------------------- #
    if not loss.requires_grad:
        report.add("detached-loss", "error",
                   "loss does not require grad — backward() is a no-op "
                   "(graph built under no_grad(), or on detached inputs)")
    if loss.data.size != 1:
        report.add("non-scalar-loss", "warning",
                   f"loss has shape {loss.shape}; backward() needs an "
                   "explicit seed gradient for non-scalars")
    if loss.data.dtype.kind != "f":
        report.add("dtype-mismatch", "error",
                   f"loss dtype is {loss.data.dtype}, expected a float "
                   "dtype")

    param_ids = {id(param) for _, param in named}
    reachable = [(name, param) for name, param in named
                 if id(param) in node_ids]
    report.params_reachable = len(reachable)
    for name, param in named:
        if id(param) not in node_ids:
            report.add("unreachable-parameter", "error",
                       f"parameter {name} (shape {param.shape}) is not in "
                       "the loss graph; it will never receive a gradient "
                       "(frozen input, detach(), or unused weight)")

    # -- per-node structural checks ------------------------------------ #
    for node in nodes:
        if node.data.dtype.kind == "f" and node.data.dtype != np.float64:
            report.add("dtype-mismatch", "warning",
                       f"graph node of shape {node.shape} has dtype "
                       f"{node.data.dtype}; the engine standard is float64")
        if node._backward is not None and node.grad is not None:
            report.add("double-backward-hazard", "warning",
                       f"intermediate node of shape {node.shape} already "
                       "holds a gradient; a second backward through this "
                       "graph would silently accumulate onto it")
    if named:
        for node in leaves:
            if node.requires_grad and id(node) not in param_ids:
                report.add("untracked-trainable-leaf", "warning",
                           f"leaf of shape {node.shape} requires grad but "
                           "is not among the provided parameters; its "
                           "gradient accumulates invisibly to the "
                           "optimizer")

    stale = [name for name, param in reachable if param.grad is not None]
    if stale:
        report.add("double-backward-hazard", "warning",
                   f"{len(stale)} parameter(s) already hold gradients "
                   f"(e.g. {stale[0]}); backward() would accumulate — "
                   "zero_grad() between steps")

    # -- probe backward: do gradients actually arrive? ----------------- #
    if run_backward and loss.requires_grad:
        grad_leaves = [node for node in leaves if node.requires_grad]
        snapshot = [(node, node.grad) for node in grad_leaves]
        for node in grad_leaves:
            node.grad = None
        try:
            Tensor.backward(loss)
        except Exception as exc:  # surface, don't crash the checker
            report.add("backward-raised", "error",
                       f"probe backward() raised {type(exc).__name__}: "
                       f"{exc}")
        else:
            for name, param in reachable:
                grad = param.grad
                if grad is None:
                    report.add("missing-gradient", "error",
                               f"parameter {name} is reachable but "
                               "received no gradient (a backward fn "
                               "returned None for its branch)")
                    continue
                if grad.shape != param.data.shape:
                    report.add("shape-mismatch", "error",
                               f"gradient shape {grad.shape} != parameter "
                               f"{name} shape {param.data.shape}")
                if not np.all(np.isfinite(grad)):
                    report.add("nonfinite-gradient", "error",
                               f"parameter {name} received a NaN/Inf "
                               "gradient")
                elif not np.any(grad):
                    report.add("zero-gradient", "warning",
                               f"parameter {name} received an all-zero "
                               "gradient (dead path — saturated relu, "
                               "zero mask, or unused branch this batch)")
        finally:
            for node, grad in snapshot:
                node.grad = grad
    return report


# ---------------------------------------------------------------------- #
# Capture harness: check any method's training graphs end-to-end
# ---------------------------------------------------------------------- #
class GraphCaptureHarness(EngineObserver):
    """Hooks the training stack to graph-check real losses.

    While active, ``Optimizer.__init__`` records every trainable
    parameter list, and the start of every ``backward()`` runs
    :func:`check_graph` on the first loss built over each distinct set
    of reachable gradient leaves (so multi-phase trainers like SDEA get
    one report per phase, not one per batch).  The probe backward of
    :func:`check_graph` runs inside the engine event, so other
    observers never see it.

    Usage::

        with GraphCaptureHarness() as harness:
            method.fit(pair, split)
        for report in harness.reports:
            print(report.format())
    """

    def __init__(self, max_captures: int = 8):
        self.max_captures = max_captures
        self.reports: List[GraphReport] = []
        self.param_groups: List[List[Tensor]] = []
        self._signatures: set = set()
        self._originals: Dict[str, object] = {}

    # -- context management -------------------------------------------- #
    def __enter__(self) -> "GraphCaptureHarness":
        from ..nn.optim import Optimizer

        harness = self
        original_opt_init = Optimizer.__init__

        def wrapped_opt_init(opt_self, parameters, *args, **kwargs):
            parameters = list(parameters)
            harness.param_groups.append(parameters)
            return original_opt_init(opt_self, parameters, *args, **kwargs)

        self._originals = {
            "opt_init": original_opt_init,
            "Optimizer": Optimizer,
        }
        Optimizer.__init__ = wrapped_opt_init
        add_observer(self)
        return self

    def __exit__(self, *exc) -> None:
        remove_observer(self)
        self._originals["Optimizer"].__init__ = self._originals["opt_init"]
        self._originals = {}

    def backward_begin(self, root: Tensor, grad) -> None:
        self._maybe_capture(root)

    # -- capture logic -------------------------------------------------- #
    def _maybe_capture(self, loss: Tensor) -> None:
        if len(self.reports) >= self.max_captures:
            return
        leaves = frozenset(
            id(node) for node in walk_graph(loss)
            if node._backward is None and node.requires_grad
        )
        if not leaves or leaves in self._signatures:
            return
        self._signatures.add(leaves)
        # Attribute the graph to the optimizer that best matches its
        # gradient leaves: largest overlap, then highest contained
        # fraction, then most recently created.  (A stale earlier-phase
        # optimizer may still overlap via shared weights — e.g. SDEA's
        # MLM head after pre-training — and must not win, or its
        # intentionally frozen params would report as unreachable.)
        best: Optional[List[Tensor]] = None
        best_key = (-1, -1.0, -1)
        for index, group in enumerate(self.param_groups):
            overlap = sum(1 for param in group if id(param) in leaves)
            if overlap == 0:
                continue
            key = (overlap, overlap / len(group), index)
            if key > best_key:
                best_key = key
                best = group
        self.reports.append(check_graph(
            loss, parameters=best or [],
            label=f"capture{len(self.reports)}",
        ))


def _tiny_pair():
    """A ~60-entity synthetic KG pair for fast end-to-end graph checks."""
    from ..datasets import ViewConfig, WorldConfig, generate_pair
    from ..datasets.translation import Language

    return generate_pair(
        WorldConfig(n_persons=24, n_places=10, n_clubs=6, n_countries=3,
                    seed=5),
        ViewConfig(side=1, name_style="noisy", seed=6),
        ViewConfig(side=2, language=Language("zz"), seed=7),
        name="graphcheck-tiny",
    )


def _tiny_method(method_name: str):
    """Instantiate a method, shrinking SDEA to unit-test scale."""
    if method_name in ("sdea", "sdea-norel"):
        from ..core.config import SDEAConfig
        from ..experiments.methods import SDEAAligner, SDEAWithoutRelation

        config = SDEAConfig(
            bert_dim=32, bert_heads=2, bert_layers=1, bert_ff_dim=64,
            max_seq_len=32, embed_dim=32, relation_hidden=24,
            attr_epochs=1, rel_epochs=1, mlm_epochs=1, vocab_size=400,
            patience=1, seed=1,
        )
        if method_name == "sdea-norel":
            config.use_relation = False
            return SDEAWithoutRelation(config)
        return SDEAAligner(config)
    from ..experiments.methods import make_method
    return make_method(method_name)


def tiny_check_pair():
    """Public alias: the tiny synthetic pair used for fast end-to-end
    checks (also the default workload of ``repro profile``)."""
    return _tiny_pair()


def tiny_check_method(method_name: str):
    """Public alias: instantiate ``method_name`` at unit-test scale."""
    return _tiny_method(method_name)


def check_method(method_name: str, pair=None, split=None,
                 max_captures: int = 8) -> List[GraphReport]:
    """Graph-check one registered method end-to-end on a tiny pair.

    Trains the method on a small synthetic KG pair under
    :class:`GraphCaptureHarness` and returns one :class:`GraphReport`
    per captured training phase.  Methods that never call
    ``Tensor.backward`` (closed-form / non-gradient baselines) return
    an empty list.
    """
    pair = pair if pair is not None else _tiny_pair()
    split = split or pair.split()
    method = _tiny_method(method_name)
    with GraphCaptureHarness(max_captures=max_captures) as harness:
        method.fit(pair, split)
    return harness.reports
