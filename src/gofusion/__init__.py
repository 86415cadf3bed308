"""Fuse GO semantic distances with expression distances to cluster genes
and infer biological-process labels for unannotated ones."""

__version__ = "0.1.0"

from .annotations import AnnotationCorpus, information_content, load_annotations, term_probability
from .clustering import Cluster, Partition, assign_b, assigned_subpartition, cluster_a
from .enrichment import (
    EnrichmentRecord,
    InferredAnnotation,
    enrich_cluster,
    export_term_graph,
    hypergeom_tail,
    infer_functions,
)
from .expression import (
    DistanceMatrix,
    ExpressionMatrix,
    expression_distance_matrix,
    load_expression,
)
from .fusion import TuningReport, combine_gamma, percentile_equalize, tune_gamma
from .metrics import (
    MetricReport,
    bc,
    bhi,
    fowlkes_mallows,
    label_counts,
    recall_inferred,
    semantic_compactness,
)
from .ontology import Ontology, Term, parse_obo
from .semantic import (
    gene_semantic_distance,
    min_subsumer,
    semantic_distance_matrix,
    term_similarity,
)

__all__ = [
    "AnnotationCorpus",
    "Cluster",
    "DistanceMatrix",
    "EnrichmentRecord",
    "ExpressionMatrix",
    "InferredAnnotation",
    "MetricReport",
    "Ontology",
    "Partition",
    "Term",
    "TuningReport",
    "assign_b",
    "assigned_subpartition",
    "bc",
    "bhi",
    "cluster_a",
    "combine_gamma",
    "enrich_cluster",
    "export_term_graph",
    "expression_distance_matrix",
    "fowlkes_mallows",
    "gene_semantic_distance",
    "hypergeom_tail",
    "infer_functions",
    "information_content",
    "label_counts",
    "load_annotations",
    "load_expression",
    "min_subsumer",
    "parse_obo",
    "percentile_equalize",
    "recall_inferred",
    "semantic_compactness",
    "semantic_distance_matrix",
    "term_probability",
    "term_similarity",
    "tune_gamma",
]
