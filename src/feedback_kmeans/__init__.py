"""Feedback-driven k-means segmentation.

An initial k-means clustering is refined by split and merge actions chosen
from per-cluster feedback values, keeping the best-evaluated clustering
seen. Two feedback providers are built in: the deterministic RSS index and
a simulated, non-deterministic preference oracle with hidden per-segment
weights.
"""

from .core import (
    Action,
    Clustering,
    Dataset,
    FeedbackReport,
    RunTrace,
    Sense,
    TraceStep,
    validate_clustering,
)
from .engines import EngineConfig, Method, best_clustering, run_engine, write_trace
from .feedback import (
    CustomizabilityFeedback,
    FeedbackProvider,
    OracleProfile,
    RssFeedback,
    aggregate_weighted,
    customizability_cluster,
    evaluate_per_cluster,
    load_oracle_profile,
    provider_from_name,
    relative_change,
    save_oracle_profile,
)
from .harness import (
    ExperimentConfig,
    ExperimentMethod,
    ExperimentReport,
    ImpactRecord,
    expected_relative_change,
    impact,
    run_experiment,
    run_method,
)
from .ingest import read_csv, read_report, write_csv, write_report
from .kmeans import (
    KMeansConfig,
    assign_points,
    init_centroids,
    lloyd,
    repair_empty,
)
from .operators import (
    SMAction,
    bisect_cluster,
    closest_centroid_pair,
    is_splittable,
    merge_pair,
    nearest_cluster,
    sm_decide,
    split_cluster,
    worst_cluster,
)
from .synth import (
    FEATURE_NAMES,
    FeatureScaling,
    GeneratorConfig,
    SegmentSpec,
    build_oracle_profile,
    demo_generator_config,
    generate,
    standardize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
