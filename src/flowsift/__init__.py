"""Windowed-statistics botnet detection over NetFlow CSV captures.

The pipeline: ingest flow records, bucket them into overlapping time
windows grouped by source address, summarize each group into a fixed
feature vector, train a weighted logistic model, and score precision /
recall / F1 on a leakage-purged chronological split. A sweep harness
varies window geometry; a synthetic generator provides fast, labeled
captures for end-to-end checks.

The names below are exported lazily (PEP 562): a module is imported the
first time one of its names is looked up, so `import flowsift.synth` pays
for synth and what it imports, not for the whole pipeline. The submodules
are exported under their own names. split and SplitSpec live in the private
module _split, so the name split is always the function.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BadBins", "BadComponentCount", "BadConfig", "CorruptModel",
        "DegenerateComputation", "DegenerateRow", "DegenerateSplit",
        "EmptyInput", "EmptyValues", "FlowsiftError", "LengthMismatch",
        "MalformedRow", "NonFiniteLoss", "SchemaMismatch",
        "SchemaVersionMismatch", "ShapeMismatch", "SingleClassInput",
        "TimeBeforeOrigin", "TooFewRows"),
    "features": (
        "FEATURE_NAMES", "FeatureMatrix", "StandardizationParams",
        "read_matrix_csv", "standardize_fit", "write_matrix_csv"),
    "ingest": (
        "FlowRecord", "FlowRow", "FlowTable", "IngestStats", "LabelClass",
        "LabelDistribution", "classify_label", "label_distribution",
        "parse_line", "parse_timestamp", "read_flows", "render_line",
        "render_timestamp"),
    "logreg": (
        "HyperParams", "LogRegModel", "TrainReport", "class_weights_for",
        "fit", "gradient", "load_model", "loss", "predict_label",
        "predict_proba", "save_model", "sigmoid"),
    "metrics": (
        "ConfusionMatrix", "F1Consistency", "Histogram", "MetricsReport",
        "confusion", "evaluate", "f1_consistency_check", "histogram",
        "metrics_from_confusion", "write_metrics_report"),
    "select": (
        "CorrelationMatrix", "PcaModel", "backward_elimination",
        "correlation_filter", "pca_fit", "pca_reconstruct", "pca_transform",
        "pearson_matrix", "write_selection_report"),
    "_split": ("SplitSpec", "split"),
    "sweep": (
        "ScenarioCell", "SweepCell", "SweepResult", "repeat_runs",
        "run_grid", "run_single", "scenario_compare", "sweep_csv",
        "write_repeat_csv", "write_scenarios_csv", "write_sweep_csv"),
    "synth": (
        "ClassProfile", "SynthConfig", "preset_scenario9", "synthesize",
        "write_synth"),
    "windows": (
        "AggregateStats", "OrderedFlows", "WindowConfig", "aggregate_stats",
        "build_matrix", "order_flows", "window_indices"),
}

# exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules exported under their own names: all but the private _split
_MODULES = {module for module in _EXPORTS if not module.startswith("_")}

__all__ = sorted(set(_HOME) | _MODULES)


def __getattr__(name: str):
    """Import the module behind an exported name on its first lookup and
    bind the name here, so later lookups do not come back."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__),
                        name)
    elif name in _MODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
