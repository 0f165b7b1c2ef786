"""Trainer internals: early stopping, checkpoint restoration, edge cases."""

import numpy as np
import pytest

from repro import obs
from repro.core import SDEAConfig, trainer
from repro.core.attribute_module import encode_all, prepare_text_encoder
from repro.core.relation_module import NeighborIndex
from repro.core.trainer import (
    pretrain_attribute_module,
    train_relation_model,
)
from repro.obs import trace


def _tiny_config(**overrides):
    config = SDEAConfig(
        bert_dim=24, bert_heads=2, bert_layers=1, bert_ff_dim=48,
        max_seq_len=16, embed_dim=24, relation_hidden=12,
        attr_epochs=6, rel_epochs=6, mlm_epochs=0, vocab_size=300,
        patience=2, seed=3,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture(scope="module")
def prepared_texts():
    texts1 = [f"entity alpha{i} year 19{i:02d}" for i in range(20)]
    texts2 = [f"entity alpha{i} born 19{i:02d}" for i in range(20)]
    return texts1, texts2


class TestAttributePretraining:
    def test_early_stopping_respects_patience(self, prepared_texts):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=50, patience=1)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        train = [(i, i) for i in range(10)]
        valid = [(i, i) for i in range(10, 14)]
        _, _, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            train, valid, config,
        )
        # with patience 1 on a saturating metric, far fewer than 50 epochs
        assert len(log.losses) < 50
        assert log.stopped_epoch >= 0

    def test_returns_best_checkpoint_embeddings(self, prepared_texts):
        texts1, texts2 = prepared_texts
        config = _tiny_config(attr_epochs=3, patience=5)
        prepared = prepare_text_encoder(texts1, texts2, config,
                                        np.random.default_rng(0))
        train = [(i, i) for i in range(10)]
        valid = [(i, i) for i in range(10, 14)]
        h1, h2, log = pretrain_attribute_module(
            prepared.module, prepared.encoder1, prepared.encoder2,
            train, valid, config,
        )
        # embeddings returned must equal a fresh encode of the module
        np.testing.assert_allclose(
            h1, encode_all(prepared.module, prepared.encoder1), atol=1e-12
        )
        assert h2.shape == (len(texts2), config.embed_dim)
        assert len(log.valid_hits1) == len(log.losses)


def _prepare(texts, config):
    texts1, texts2 = texts
    return prepare_text_encoder(texts1, texts2, config,
                                np.random.default_rng(0))


_VALID = [(i, i) for i in range(10, 14)]


def _pretrain(prepared, config, valid=_VALID):
    train = [(i, i) for i in range(10)]
    return pretrain_attribute_module(
        prepared.module, prepared.encoder1, prepared.encoder2,
        train, valid, config,
    )


@pytest.fixture()
def encode_calls(monkeypatch):
    """Count the trainer's ``encode_all`` calls (one per KG side)."""
    calls = []
    real = trainer.encode_all

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "encode_all", counting)
    return calls


class TestEncodeReuse:
    """Algorithm 2 encodes each weight state once: the validation encode
    feeds the next epoch's candidates and, for the best epoch, the
    returned embeddings."""

    def test_two_encodes_per_epoch_plus_epoch_zero(self, prepared_texts,
                                                   encode_calls):
        config = _tiny_config(attr_epochs=4, patience=5)
        prepared = _prepare(prepared_texts, config)
        _, _, log = _pretrain(prepared, config)
        assert len(log.losses) == 4
        assert len(encode_calls) == 2 + 2 * len(log.losses)

    def test_early_stop_returns_restored_best_epoch(self, prepared_texts):
        config = _tiny_config(attr_epochs=50, patience=1)
        prepared = _prepare(prepared_texts, config)
        h1, h2, log = _pretrain(prepared, config)
        assert log.stopped_epoch >= 0
        best_epoch = int(np.argmax(log.valid_hits1))
        assert best_epoch < len(log.losses) - 1
        np.testing.assert_array_equal(
            h1, encode_all(prepared.module, prepared.encoder1))
        np.testing.assert_array_equal(
            h2, encode_all(prepared.module, prepared.encoder2))

    def test_zero_epochs_returns_one_fresh_encode(self, prepared_texts,
                                                  encode_calls):
        config = _tiny_config(attr_epochs=0)
        prepared = _prepare(prepared_texts, config)
        h1, h2, log = _pretrain(prepared, config)
        assert log.losses == []
        assert encode_calls == [prepared.encoder1, prepared.encoder2]
        np.testing.assert_array_equal(
            h1, encode_all(prepared.module, prepared.encoder1))
        np.testing.assert_array_equal(
            h2, encode_all(prepared.module, prepared.encoder2))

    def test_no_improvement_returns_last_weights(self, prepared_texts,
                                                 encode_calls, monkeypatch):
        """No epoch improves (e.g. NaN Hits@1): the restore is a no-op and
        the last validation's embeddings are returned unencoded."""
        class NeverImproves(trainer.BestCheckpoint):
            def update(self, score):
                return False

        monkeypatch.setattr(trainer, "BestCheckpoint", NeverImproves)
        config = _tiny_config(attr_epochs=3, patience=5)
        prepared = _prepare(prepared_texts, config)
        h1, h2, log = _pretrain(prepared, config)
        assert len(encode_calls) == 2 + 2 * len(log.losses)
        np.testing.assert_array_equal(
            h1, encode_all(prepared.module, prepared.encoder1))
        np.testing.assert_array_equal(
            h2, encode_all(prepared.module, prepared.encoder2))

    def test_encode_span_entered_once_per_run(self, prepared_texts):
        config = _tiny_config(attr_epochs=3, patience=5)
        prepared = _prepare(prepared_texts, config)
        with obs.session(runs_dir=None):
            _pretrain(prepared, config)
            # The span tree as the run record stores it.
            spans = trace.get_tracer().to_dict()
        epoch = _child(spans, "attr_pretrain/epoch")
        assert epoch["calls"] == 3
        assert _child(epoch, "encode")["calls"] == 1
        assert _child(epoch, "validate")["calls"] == 3

    def test_no_validation_links_uses_loss_proxy(self, prepared_texts):
        """Without validation links early stopping follows -mean(loss),
        as Algorithm 3 does, instead of a constant 0.0 that stops after
        ``patience`` epochs and restores epoch 0."""
        config = _tiny_config(attr_epochs=10, patience=2)
        prepared = _prepare(prepared_texts, config)
        h1, _, log = _pretrain(prepared, config, valid=[])
        assert log.valid_hits1 == [-loss for loss in log.losses]
        assert len(log.losses) > config.patience + 1
        np.testing.assert_array_equal(
            h1, encode_all(prepared.module, prepared.encoder1))


def _child(node, name):
    (found,) = [c for c in node.get("children", []) if c["name"] == name]
    return found


class TestRelationTraining:
    def test_empty_valid_links_uses_loss_proxy(self, tiny_pair):
        """Without validation links the trainer falls back to -loss."""
        config = _tiny_config(rel_epochs=2, patience=10)
        n1 = tiny_pair.kg1.num_entities
        n2 = tiny_pair.kg2.num_entities
        rng = np.random.default_rng(0)
        attr1 = rng.normal(size=(n1, config.embed_dim))
        attr2 = rng.normal(size=(n2, config.embed_dim))
        neighbors1 = NeighborIndex(tiny_pair.kg1, 4)
        neighbors2 = NeighborIndex(tiny_pair.kg2, 4)
        train = tiny_pair.links[:8]
        model, log = train_relation_model(
            attr1, attr2, neighbors1, neighbors2, train, [], config,
        )
        assert len(log.losses) == 2
        emb = model.embed_all(1)
        expected_dim = config.relation_hidden + 2 * config.embed_dim
        assert emb.shape == (n1, expected_dim)

    def test_embed_entities_subsets(self, tiny_pair):
        config = _tiny_config(rel_epochs=1)
        n1 = tiny_pair.kg1.num_entities
        rng = np.random.default_rng(1)
        attr1 = rng.normal(size=(n1, config.embed_dim))
        attr2 = rng.normal(size=(tiny_pair.kg2.num_entities,
                                 config.embed_dim))
        model, _ = train_relation_model(
            attr1, attr2,
            NeighborIndex(tiny_pair.kg1, 4), NeighborIndex(tiny_pair.kg2, 4),
            tiny_pair.links[:6], tiny_pair.links[6:9], config,
        )
        subset = model.embed_entities(1, [0, 5, 7])
        full = model.embed_all(1)
        np.testing.assert_allclose(subset, full[[0, 5, 7]], atol=1e-12)
