"""The package's lazy exports: every name the package ever exported still
resolves, and importing one module imports only what that module needs."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowsift

SRC = Path(__file__).resolve().parents[1] / "src"

# flowsift.__all__ as it stood when __init__ imported every module eagerly
EAGER_ALL = [
    "AggregateStats", "BadBins", "BadComponentCount", "BadConfig",
    "ClassProfile", "ConfusionMatrix", "CorrelationMatrix", "CorruptModel",
    "DegenerateComputation", "DegenerateRow", "DegenerateSplit", "EmptyInput",
    "EmptyValues", "F1Consistency", "FEATURE_NAMES", "FeatureMatrix",
    "FlowRecord", "FlowRow", "FlowTable", "FlowsiftError", "Histogram",
    "HyperParams", "IngestStats", "LabelClass", "LabelDistribution",
    "LengthMismatch", "LogRegModel", "MalformedRow", "MetricsReport",
    "NonFiniteLoss", "OrderedFlows", "PcaModel", "ScenarioCell",
    "SchemaMismatch", "SchemaVersionMismatch", "ShapeMismatch",
    "SingleClassInput", "SplitSpec", "StandardizationParams", "SweepCell",
    "SweepResult", "SynthConfig", "TimeBeforeOrigin", "TooFewRows",
    "TrainReport", "WindowConfig", "aggregate_stats", "backward_elimination",
    "build_matrix", "class_weights_for", "classify_label", "confusion",
    "correlation_filter", "errors", "evaluate", "f1_consistency_check",
    "features", "fit", "gradient", "histogram", "ingest",
    "label_distribution", "load_model", "logreg", "loss", "metrics",
    "metrics_from_confusion", "order_flows", "parse_line", "parse_timestamp",
    "pca_fit", "pca_reconstruct", "pca_transform", "pearson_matrix",
    "predict_label", "predict_proba", "preset_scenario9", "read_flows",
    "read_matrix_csv", "render_line", "render_timestamp", "repeat_runs",
    "run_grid", "run_single", "save_model", "scenario_compare", "select",
    "sigmoid", "split", "standardize_fit", "sweep", "sweep_csv", "synth",
    "synthesize", "window_indices", "windows", "write_matrix_csv",
    "write_metrics_report", "write_repeat_csv", "write_scenarios_csv",
    "write_selection_report", "write_sweep_csv", "write_synth",
]

# the submodules exported under their own names; split names the function
# that the private module _split defines
MODULES = {"errors", "features", "ingest", "logreg", "metrics", "select",
           "sweep", "synth", "windows"}


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter with this checkout's src/ first on
    its path; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_all_is_unchanged():
    assert flowsift.__all__ == EAGER_ALL


def defined_object(name):
    """The object a flowsift module defines under name: the first module
    that binds name to an object it made itself (a constant counts as
    made where it is first bound)."""
    for module in sorted(MODULES | {"_split"}):
        namespace = vars(importlib.import_module(f"flowsift.{module}"))
        if name in namespace and getattr(namespace[name], "__module__",
                                         namespace["__name__"]) \
                == namespace["__name__"]:
            return namespace[name]
    raise LookupError(name)


@pytest.mark.parametrize("name", EAGER_ALL)
def test_every_export_is_its_modules_object(name):
    want = (importlib.import_module(f"flowsift.{name}") if name in MODULES
            else defined_object(name))
    assert getattr(flowsift, name) is want
    assert name in dir(flowsift)


def test_importing_synth_leaves_the_pipeline_unimported():
    loaded = run_fresh(
        "import sys, flowsift.synth\n"
        "print(' '.join(m for m in sys.modules if m.startswith('flowsift')))"
    ).split()
    assert "flowsift.synth" in loaded
    for module in ("sweep", "logreg", "select", "metrics", "windows"):
        assert f"flowsift.{module}" not in loaded


@pytest.mark.parametrize("first", [
    "import flowsift._split",
    "import flowsift.sweep",
    "from flowsift import SplitSpec",
    "import flowsift; flowsift.split",
])
def test_split_is_the_function_whatever_was_imported_first(first):
    """split and SplitSpec live in the private module flowsift._split, so
    no submodule the import system binds on the package takes the name."""
    out = run_fresh(
        f"{first}\n"
        "import flowsift._split\n"
        "from flowsift import split\n"
        "import sys\n"
        "module = sys.modules['flowsift._split']\n"
        "print(split is module.split, flowsift.split is module.split)")
    assert out.split() == ["True", "True"]


def test_split_is_not_a_module():
    out = run_fresh(
        "try:\n"
        "    import flowsift.split\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(type(exc).__name__, exc.name)\n"
        "import flowsift\n"
        "print(flowsift.split is flowsift._split.split)")
    assert out.split() == ["ModuleNotFoundError", "flowsift.split", "True"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        flowsift.no_such_name
    with pytest.raises(ImportError):
        from flowsift import no_such_name  # noqa: F401
