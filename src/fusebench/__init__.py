"""Decision-level multi-modal fusion and tracking-benchmark evaluation.

The toolkit operates purely on annotations, predictions and confidence
scores -- no pixel data is ever loaded. It provides:

* an evaluation engine for success/precision curves and AUC with explicit
  target-absence semantics (:mod:`fusebench.metrics`);
* a confidence-gated mixture-of-experts decision layer and its selection
  statistics (:mod:`fusebench.fusion`);
* a deterministic simulator for studying when fusing modalities helps and
  when it hurts (:mod:`fusebench.simulate`);
* parsers/writers for benchmark file layouts (:mod:`fusebench.io`);
* subset evaluation, benchmark-balance indicators and report export
  (:mod:`fusebench.analysis`);
* a thin CLI over all of the above (``fusebench`` / ``python -m fusebench``).
"""

from .errors import (
    ConfigError,
    DuplicateSequenceIdError,
    EmptyCurveError,
    EmptyScoreMapError,
    EmptySubsetError,
    EmptyTraceError,
    FusebenchError,
    IntervalOutOfBoundsError,
    LengthMismatchError,
    MalformedLineError,
    MissingConfidenceError,
    MissingSequenceResultError,
    NegativeExtentError,
    NegativeLossError,
    NonFiniteError,
    NonPositiveScoreError,
    UnknownKeyError,
)
from .model import (
    Box,
    DatasetManifest,
    Expert,
    ExpertStream,
    FramePrediction,
    FrameTruth,
    PredictionColumns,
    SequenceAnnotation,
    Subset,
    TruthColumns,
)
from .metrics import (
    AbsenceOutcome,
    BenchmarkScores,
    Curve,
    MetricConfig,
    auc,
    benchmark_scores,
    box_iou,
    center_distance,
    frame_precision_indicator,
    frame_success_indicator,
    iou,
    sequence_score,
)
from .fusion import (
    DEFAULT_TIE_POLICY,
    EXPERTS,
    ScoreMap,
    SelectionRecord,
    SelectionTrace,
    TiePolicy,
    aggregate_expert_losses,
    confidence_from_score_map,
    fuse_streams,
    select_expert,
    selection_ratios,
)
from .simulate import (
    POLICIES,
    DegradationProfile,
    DegradedBehavior,
    FusedQualityModel,
    ScenarioConfig,
    ScenarioReport,
    calibrate_confidence,
    child_seed,
    degrade_modality,
    degraded_mask,
    generate_trajectory,
    oracle_best_selection,
    run_scenario,
    synthesize_fused_expert,
)
from .analysis import (
    BalancedIndicatorRow,
    BalancedIndicatorTable,
    EvaluationReport,
    balanced_indicators,
    compositional_eval,
    export_report,
    parse_report,
    subset_manifest,
)

__version__ = "0.1.0"
