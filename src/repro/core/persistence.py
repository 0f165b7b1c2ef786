"""Saving and loading trained SDEA models.

A trained model is written as a directory::

    model_dir/
      config.json            SDEAConfig fields
      tokenizer.json         WordPiece vocab + merges
      arrays.npz             H_a matrices, IDF, numeric signatures
      attribute_module.npz   MiniBert + head parameters
      relation_module.npz    BiGRU + attention parameters   (if trained)
      joint.npz              joint-MLP parameters           (if trained)

Loading needs the original :class:`~repro.kg.pair.KGPair` (the neighbor
index and entity id space are defined by it); everything else is
restored from disk.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Union

import numpy as np

from ..kg.pair import KGPair
from ..nn import load_state, save_state
from ..text.bert import BertForMaskedLM
from ..text.tokenizer import WordPieceTokenizer
from .attribute_module import AttributeEmbeddingModule
from .config import SDEAConfig
from .joint import JointRepresentation
from .relation_module import NeighborIndex, RelationEmbeddingModule
from .trainer import RelationModel

PathLike = Union[str, Path]

#: ``config.json`` keys earlier versions wrote that ``SDEAConfig`` no
#: longer has.  ``fused_kernels`` chose an execution path and holds no
#: weights, so a model saved with it loads unchanged without it.
_RETIRED_FIELDS = ("fused_kernels",)


class ModelFormatError(ValueError):
    """A saved model directory that does not match this code's format."""


def _load_config(path: Path) -> SDEAConfig:
    """``SDEAConfig`` from ``config.json``; every field must be present."""
    with open(path, encoding="utf-8") as handle:
        fields = json.load(handle)
    if not isinstance(fields, dict):
        raise ModelFormatError(
            f"{path}: expected a JSON object of SDEAConfig fields, "
            f"got {type(fields).__name__}")
    for key in _RETIRED_FIELDS:
        fields.pop(key, None)
    known = {field.name for field in dataclasses.fields(SDEAConfig)}
    unknown = sorted(set(fields) - known)
    missing = sorted(known - set(fields))
    if unknown or missing:
        raise ModelFormatError(
            f"{path}: config fields do not match SDEAConfig "
            f"(unknown: {unknown or 'none'}; missing: {missing or 'none'})")
    return SDEAConfig(**fields)


def save_model(model, directory: PathLike) -> None:
    """Persist a fitted :class:`repro.core.SDEA` to ``directory``."""
    if model._attr1 is None:
        raise RuntimeError("cannot save an unfitted model")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / "config.json", "w", encoding="utf-8") as handle:
        json.dump(dataclasses.asdict(model.config), handle, indent=2)
    with open(directory / "tokenizer.json", "w", encoding="utf-8") as handle:
        json.dump(model.tokenizer.to_dict(), handle)

    arrays = {"attr1": model._attr1, "attr2": model._attr2}
    if model.attribute_module.idf is not None:
        arrays["idf"] = model.attribute_module.idf
    if model._numeric1 is not None:
        arrays["numeric1"] = model._numeric1
        arrays["numeric2"] = model._numeric2
    np.savez_compressed(directory / "arrays.npz", **arrays)

    save_state(model.attribute_module, directory / "attribute_module.npz")
    if model.relation_model is not None:
        save_state(model.relation_model.relation_module,
                   directory / "relation_module.npz")
        save_state(model.relation_model.joint, directory / "joint.npz")


def load_model(directory: PathLike, pair: KGPair):
    """Restore a fitted SDEA model saved with :func:`save_model`.

    Parameters
    ----------
    directory:
        Model directory.
    pair:
        The KG pair the model was trained on (defines entity ids and
        neighborhoods).

    Raises
    ------
    ModelFormatError
        ``config.json`` names a field ``SDEAConfig`` does not have, or
        lacks one it does.
    """
    from .model import SDEA  # local import to avoid a cycle

    directory = Path(directory)
    config = _load_config(directory / "config.json")
    with open(directory / "tokenizer.json", encoding="utf-8") as handle:
        tokenizer = WordPieceTokenizer.from_dict(json.load(handle))

    with np.load(directory / "arrays.npz") as archive:
        arrays = {key: archive[key] for key in archive.files}

    rng = np.random.default_rng(config.seed)
    bert_config = config.bert_config(tokenizer.vocab_size)
    mlm = BertForMaskedLM(bert_config, rng)
    module = AttributeEmbeddingModule(
        mlm.bert, config.embed_dim, rng,
        pooling=config.pooling, idf=arrays.get("idf"),
    )
    load_state(module, directory / "attribute_module.npz")
    module.eval()

    model = SDEA(config)
    model.tokenizer = tokenizer
    model.attribute_module = module
    model._attr1 = arrays["attr1"]
    model._attr2 = arrays["attr2"]
    model._numeric1 = arrays.get("numeric1")
    model._numeric2 = arrays.get("numeric2")
    model._pair = pair

    if config.use_relation:
        relation_module = RelationEmbeddingModule(
            model._attr1.shape[1], config.relation_hidden,
            np.random.default_rng(config.seed + 2),
            aggregator=config.relation_aggregator,
        )
        joint = JointRepresentation(
            model._attr1.shape[1], config.relation_hidden, config.embed_dim,
            np.random.default_rng(config.seed + 2),
        )
        load_state(relation_module, directory / "relation_module.npz")
        load_state(joint, directory / "joint.npz")
        relation_module.eval()
        joint.eval()
        neighbors1 = NeighborIndex(pair.kg1, config.max_neighbors,
                                   np.random.default_rng(config.seed + 21))
        neighbors2 = NeighborIndex(pair.kg2, config.max_neighbors,
                                   np.random.default_rng(config.seed + 22))
        model.relation_model = RelationModel(
            relation_module=relation_module, joint=joint,
            attr1=model._attr1, attr2=model._attr2,
            neighbors1=neighbors1, neighbors2=neighbors2,
        )
    return model
