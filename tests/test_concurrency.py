"""The global-state manifest, shard contracts, and thread-safety pins.

The manifest is only useful while it is *true*: every slot must
resolve against the live package, every synchronized slot must name a
real lock, and every contract must validate its slot names eagerly.
The second half regression-pins the concrete defects the effect
analysis surfaced — unguarded caches and shared counters that were
racy before this module existed stay fixed.
"""

import threading

import numpy as np
import pytest

from repro.concurrency import (
    CLASSIFICATIONS,
    MANIFEST,
    SYNCHRONIZED,
    ShardContract,
    contract_of,
    manifest_by_name,
    manifest_for_module,
    resolve_guard,
    resolve_slot,
    shard_contracts,
    shard_safe,
)


# ---------------------------------------------------------------------- #
# Manifest integrity
# ---------------------------------------------------------------------- #
class TestManifest:
    def test_slot_names_are_unique(self):
        names = [slot.name for slot in MANIFEST]
        assert len(names) == len(set(names))
        assert len(MANIFEST) >= 20

    def test_classifications_are_known(self):
        for slot in MANIFEST:
            assert slot.classification in CLASSIFICATIONS

    def test_every_slot_resolves_against_the_live_package(self):
        for slot in MANIFEST:
            resolve_slot(slot)  # raises if module or attribute is gone

    def test_synchronized_slots_have_live_guards(self):
        checked = 0
        for slot in MANIFEST:
            if slot.classification != SYNCHRONIZED:
                continue
            guard = resolve_guard(slot)
            assert guard is not None, slot.name
            assert hasattr(guard, "acquire") and hasattr(guard, "release")
            checked += 1
        assert checked >= 3

    def test_installer_pairs_support_foreign_modules(self):
        slot = manifest_by_name()["nn.optim.init_patch"]
        pairs = slot.installer_pairs()
        modules = {module for module, _ in pairs}
        assert "repro.nn.optim" not in modules  # patched from outside
        assert all(":" not in qualname for _, qualname in pairs)

    def test_manifest_for_module_filters(self):
        slots = manifest_for_module("repro.obs.metrics")
        assert [s.name for s in slots] == ["obs.metrics.registry"]


# ---------------------------------------------------------------------- #
# Shard contracts
# ---------------------------------------------------------------------- #
class TestShardSafe:
    def test_unknown_slot_name_fails_at_decoration_time(self):
        with pytest.raises(ValueError, match="unknown manifest slot"):
            shard_safe(merges=("no.such.slot",))

    def test_contract_attaches_without_wrapping(self):
        def entry():
            return 7

        decorated = shard_safe(note="test")(entry)
        assert decorated is entry
        contract = contract_of(decorated)
        assert contract is not None
        assert contract.name.endswith("entry")
        assert contract_of(lambda: None) is None

    def test_registered_entry_points(self):
        # Contracts register at import time; pull the entry modules in.
        import repro.align.evaluator  # noqa: F401
        import repro.align.similarity  # noqa: F401
        import repro.core.trainer  # noqa: F401
        import repro.experiments.runner  # noqa: F401

        names = set(shard_contracts())
        assert {
            "repro.align.similarity.chunked_cosine_topk",
            "repro.align.evaluator.evaluate_embeddings",
            "repro.core.trainer.pretrain_attribute_module",
            "repro.core.trainer.train_relation_model",
            "repro.experiments.runner.run_experiment",
            "repro.experiments.runner.run_suite",
        } <= names

    def test_describe_renders_budget(self):
        contract = ShardContract(name="f", merges=("a",), mutates=("x",),
                                 io=True)
        assert contract.describe() == "f [merges=a; mutates=x; io]"
        assert ShardContract(name="g").describe() == "g [pure]"


# ---------------------------------------------------------------------- #
# Regression pins for the defects the analysis surfaced
# ---------------------------------------------------------------------- #
def hammer(worker, threads=8):
    """Run ``worker(index)`` on N threads, re-raising any exception."""
    errors = []

    def run(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join(timeout=30)
    assert not errors, errors


class TestThreadSafetyPins:
    def test_attribution_name_cache_is_locked_and_bounded(self):
        from repro.obs.attribution import (
            NAME_CACHE_MAX,
            _NAME_CACHE,
            clear_name_cache,
            op_name_from_backward,
        )

        clear_name_cache()

        def worker(index):
            for i in range(300):
                def backward():  # fresh code object per call site is not
                    return None  # possible; vary via lambda default
                backward.__qualname__ = f"Tensor.op{index}_{i}.<locals>.backward"
                op_name_from_backward(backward)
                if i % 97 == 0:
                    clear_name_cache()

        hammer(worker)
        assert len(_NAME_CACHE) <= NAME_CACHE_MAX

    def test_counter_increments_are_exact_under_contention(self):
        from repro.obs.metrics import Registry, set_registry

        registry = Registry()
        previous = set_registry(registry)
        try:
            counter = registry.counter("pin.total")
            per_thread, threads = 500, 8

            def worker(index):
                for _ in range(per_thread):
                    counter.inc()

            hammer(worker, threads=threads)
            assert counter.value() == float(per_thread * threads)
        finally:
            set_registry(previous)

    def test_no_grad_is_thread_isolated(self):
        from repro.nn.tensor import is_grad_enabled, no_grad

        inner = {}
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with no_grad():
                inner["held"] = is_grad_enabled()
                entered.set()
                release.wait(timeout=10)

        t = threading.Thread(target=holder)
        t.start()
        assert entered.wait(timeout=10)
        try:
            # The other thread is inside no_grad; this one must not be.
            assert is_grad_enabled() is True
            assert inner["held"] is False
        finally:
            release.set()
            t.join(timeout=10)
        assert is_grad_enabled() is True

    def test_signature_cache_is_locked_and_bounded(self):
        from repro.analysis.shapes.spec import (
            _SIG_CACHE_MAX,
            _bind_arguments,
            _signature_cache,
        )
        from repro.nn.layers import Linear

        rng = np.random.default_rng(3)
        module = Linear(4, 2, rng)
        x = np.zeros((1, 4))

        def worker(index):
            for _ in range(200):
                bound = _bind_arguments(type(module).forward, module,
                                        (x,), {})
                assert bound is not None

        hammer(worker)
        assert len(_signature_cache) <= _SIG_CACHE_MAX

    def test_forward_hook_registry_survives_contention(self):
        from repro.nn.observers import (
            EngineObserver, add_observer, registered, remove_observer,
        )

        before = registered()

        def worker(index):
            for _ in range(100):
                remove_observer(add_observer(EngineObserver()))

        hammer(worker)
        assert registered() == before
