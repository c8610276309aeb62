"""Windowed-statistics botnet detection over NetFlow CSV captures.

The pipeline: ingest flow records, bucket them into overlapping time
windows grouped by source address, summarize each group into a fixed
feature vector, train a weighted logistic model, and score precision /
recall / F1 on a leakage-purged chronological split. A sweep harness
varies window geometry; a synthetic generator provides fast, labeled
captures for end-to-end checks.
"""
from .errors import (BadBins, BadComponentCount, BadConfig, CorruptModel,
                     DegenerateComputation, DegenerateRow, DegenerateSplit,
                     EmptyInput, EmptyValues, FlowsiftError, LengthMismatch,
                     MalformedRow, NonFiniteLoss, SchemaMismatch,
                     SchemaVersionMismatch, ShapeMismatch, SingleClassInput,
                     TimeBeforeOrigin, TooFewRows)
from .features import (FEATURE_NAMES, FeatureMatrix, StandardizationParams,
                       read_matrix_csv, standardize_fit, write_matrix_csv)
from .ingest import (FlowRecord, IngestStats, LabelClass, LabelDistribution,
                     classify_label, label_distribution, parse_line,
                     parse_timestamp, read_flows, render_line,
                     render_timestamp)
from .logreg import (HyperParams, LogRegModel, TrainReport, class_weights_for,
                     fit, gradient, load_model, loss, predict_label,
                     predict_proba, save_model, sigmoid)
from .metrics import (ConfusionMatrix, F1Consistency, Histogram,
                      MetricsReport, confusion, evaluate,
                      f1_consistency_check, histogram,
                      metrics_from_confusion, write_metrics_report)
from .select import (CorrelationMatrix, PcaModel, backward_elimination,
                     correlation_filter, pca_fit, pca_reconstruct,
                     pca_transform, pearson_matrix, write_selection_report)
from .split import SplitSpec, split
from .sweep import (ScenarioCell, SweepCell, SweepResult, repeat_runs,
                    run_grid, run_single, scenario_compare, sweep_csv,
                    write_repeat_csv, write_scenarios_csv, write_sweep_csv)
from .synth import ClassProfile, SynthConfig, preset_scenario9, synthesize, write_synth
from .windows import (AggregateStats, WindowConfig, aggregate_stats,
                      build_matrix, window_indices)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
