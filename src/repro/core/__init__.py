"""SDEA core: the paper's primary contribution."""

from .attribute_module import AttributeEmbeddingModule, SequenceEncoder, encode_all
from .candidates import candidate_recall, gen_candidates, sample_negatives
from .config import SDEAConfig
from .joint import JointRepresentation, final_embedding, training_embedding
from .losses import triplet_margin_loss
from .model import SDEA, FitResult
from .numeric import NumericSignature, append_numeric_channel, extract_numbers
from .persistence import ModelFormatError, load_model, save_model
from .unsupervised import (
    mine_pseudo_seeds,
    pseudo_split,
    seed_precision,
    tfidf_similarity,
)
from .relation_module import (
    NeighborIndex,
    RelationEmbeddingModule,
    gather_neighbor_embeddings,
    mean_pool_neighbors,
)
from .trainer import (
    RelationModel,
    TrainLog,
    pretrain_attribute_module,
    train_relation_model,
)

__all__ = [
    "SDEA", "SDEAConfig", "FitResult",
    "AttributeEmbeddingModule", "SequenceEncoder", "encode_all",
    "gen_candidates", "sample_negatives", "candidate_recall",
    "RelationEmbeddingModule", "NeighborIndex",
    "gather_neighbor_embeddings", "mean_pool_neighbors",
    "JointRepresentation", "final_embedding", "training_embedding",
    "triplet_margin_loss",
    "NumericSignature", "append_numeric_channel", "extract_numbers",
    "save_model", "load_model", "ModelFormatError",
    "mine_pseudo_seeds", "pseudo_split", "seed_precision",
    "tfidf_similarity",
    "pretrain_attribute_module", "train_relation_model",
    "RelationModel", "TrainLog",
]
