"""The public API, pinned: growing it shows up as a diff of this file."""

import ast
import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import evadelab
from evadelab.attack import SecurityCurve
from evadelab.evenness import EvennessReport
from evadelab.featurespace import LabeledDataset
from evadelab.models import KernelModel, TrainConfig
from evadelab.pipeline import ClassifierSpec, ExperimentConfig

EXPORTED = {
    "ClassifierSpec", "CorrelationReport",
    "EvennessReport", "ExperimentConfig", "ExperimentReport",
    "KernelModel", "LabeledDataset", "LinearModel", "NOT_EVADABLE", "PRESETS",
    "RobustnessScore", "SecurityCurve", "SyntheticConfig", "TrainConfig",
    "UndefinedEvennessError", "attack_scores_over_grid",
    "attribution_gradient", "attribution_gradient_input",
    "attribution_integrated_gradients", "auc", "correlation_suite",
    "detection_rate_at_fpr", "emit_scatter_data",
    "epsilon_min", "epsilon_min_batch", "evenness_e1", "evenness_e2",
    "evenness_report", "generate_synthetic",
    "grid_cv", "kendall", "load_dataset", "load_model",
    "pearson", "robustness_from_scores",
    "roc_curve", "run_experiment", "save_dataset", "save_model", "score",
    "spearman", "split", "train_linear",
    "train_rbf_svm", "train_secsvm",
}


def test_exported_names():
    names = {name for name, value in vars(evadelab).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert names == EXPORTED


def fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_experiment_config_fields():
    assert fields(ExperimentConfig) == [
        "classifiers", "dataset_path", "synthetic", "seed", "repetitions",
        "eps_grid", "fpr", "ig_p", "evenness_m", "n_attack_samples",
        "attack_max_iters"]


def test_security_curve_fields():
    assert fields(SecurityCurve) == ["epsilons", "detection_rates"]


def test_evenness_report_fields():
    assert fields(EvennessReport) == [
        "per_sample_e1", "per_sample_e2", "averaged_e1", "averaged_e2",
        "n_undefined"]


def test_classifier_spec_fields():
    assert fields(ClassifierSpec) == [
        "name", "kind", "loss", "reg", "gamma", "weight_bound", "epochs",
        "learning_rate"]


def test_dataset_fields():
    # one (n, d) bool sample matrix and one label array; no feature space
    assert fields(LabeledDataset) == ["samples", "labels"]


def test_kernel_model_fields():
    assert fields(KernelModel) == [
        "support_vectors", "dual_coeffs", "bias", "gamma", "meta"]


def test_train_config_fields():
    # the step always decays over the number of training samples
    assert fields(TrainConfig) == [
        "loss", "reg", "epochs", "learning_rate", "seed", "weight_lb",
        "weight_ub"]


def test_readme_library_sketch_runs():
    # a name the package no longer has cannot stay in the sketch
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_import_leaves_scipy_stats_out():
    # importing scipy.stats costs about 0.7 s and 44 MiB per process
    src = str(Path(evadelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, evadelab; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


def _private_definitions(tree):
    """(name, node) of each _-prefixed, non-dunder function, class and
    method anywhere in a module, and of each module-level assigned name."""
    private = [(node.name, node) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))]
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        private += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in private
            if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used():
    # a private helper that nothing in the package calls is dead code
    package = Path(evadelab.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))]
    unused = []
    for tree in trees:
        for name, definition in _private_definitions(tree):
            own = set(map(id, ast.walk(definition)))
            used = any(
                id(node) not in own and (
                    isinstance(node, ast.Name) and node.id == name
                    and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == name)
                for t in trees for node in ast.walk(t))
            if not used:
                unused.append(name)
    assert unused == []
