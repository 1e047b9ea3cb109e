"""Cluster-based semantic expansion for short-text classification.

Word vectors are trained with skip-gram, grouped by average-linkage
hierarchical clustering, and each word is represented by the concatenation of
its own vector and its cluster centroid. CNN and LSTM classifiers consume the
expanded vectors; a CLI orchestrates the stages and a grid search over the
cluster count.
"""

from .clustering import (
    ClusterAssignment,
    Dendrogram,
    build_dendrogram,
    compute_centroids,
    cut_dendrogram,
    hac_cluster,
)
from .config import ExperimentConfig, load_config
from .corpus import (
    LabeledDataset,
    TokenizedCorpus,
    UserDictionary,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    encode_dataset,
    tokenize,
)
from .embedding import (
    EmbeddingMatrix,
    SkipGramConfig,
    corpus_objective,
    load_embeddings,
    save_embeddings,
    train_skipgram,
)
from .errors import (
    ConfigError,
    DataFormatError,
    EmptyVocabularyError,
    NumericError,
    SemexpandError,
)
from .expansion import embed_dataset, expand
from .pipeline import ExperimentReport, compare_runs, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "ClusterAssignment",
    "ConfigError",
    "DataFormatError",
    "Dendrogram",
    "EmbeddingMatrix",
    "EmptyVocabularyError",
    "ExperimentConfig",
    "ExperimentReport",
    "LabeledDataset",
    "NumericError",
    "SemexpandError",
    "SkipGramConfig",
    "TokenizedCorpus",
    "UserDictionary",
    "Vocabulary",
    "build_dendrogram",
    "build_vocabulary",
    "compare_runs",
    "compute_centroids",
    "corpus_objective",
    "cut_dendrogram",
    "embed_dataset",
    "encode_corpus",
    "encode_dataset",
    "expand",
    "hac_cluster",
    "load_config",
    "load_embeddings",
    "run_pipeline",
    "save_embeddings",
    "tokenize",
    "train_skipgram",
    "__version__",
]
