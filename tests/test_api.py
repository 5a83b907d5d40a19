"""The public API, pinned: growing it shows up as a diff of this file."""

import ast
import dataclasses
import json
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
    "detection_rate_at_fpr",
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
        "loss", "reg", "epochs", "learning_rate", "seed", "weight_bound"]


def test_readme_library_sketch_runs():
    # a name the package no longer has cannot stay in the sketch
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "## Library sketch", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def _python_last_line(code, *args):
    """The last stdout line of ``code`` run in a fresh interpreter that
    imports evadelab from this checkout."""
    src = str(Path(evadelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=300)
    return out.stdout.strip().splitlines()[-1]


def test_import_leaves_scipy_stats_out():
    # importing scipy.stats costs about 0.7 s and 44 MiB per process
    code = "import sys, evadelab; print('scipy.stats' in sys.modules)"
    assert _python_last_line(code) == "False"


def test_import_loads_no_scipy():
    # scipy.special alone costs about 0.2 s and 18 MiB per process
    code = ("import json, sys, evadelab, evadelab.cli; print(json.dumps("
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert json.loads(_python_last_line(code)) == []


_STUDY_AND_ATTACK = """
import json, sys
from pathlib import Path
import evadelab, evadelab.cli
import numpy.random
imported = set(sys.modules)
out = Path(sys.argv[1])
synthetic = dict(d=30, n_benign=60, n_malware=60, n_strong=6,
                 strong_rate_gap=0.6, weak_rate_gap=0.05, base_density=0.1,
                 seed=5)
report = evadelab.run_experiment(evadelab.ExperimentConfig.from_dict({
    "dataset": {"synthetic": synthetic}, "classifiers": ["svm", "svm-rbf"],
    "eps_grid": {"start": 1, "stop": 3}, "seed": 1, "n_attack_samples": 10,
    "evenness_m": 10, "ig_p": 10, "attack": {"max_iters": 20}}),
    out / "study")
assert [cell.status for cell in report.cells] == ["ok", "ok"]
train, test = evadelab.split(
    evadelab.generate_synthetic(evadelab.SyntheticConfig(**synthetic)), 0.6, 0)
evadelab.save_dataset(train, out / "train.txt")
evadelab.save_dataset(test, out / "test.txt")
assert evadelab.cli.main([
    "train", "--data", str(out / "train.txt"), "--preset", "svm-rbf",
    "--epochs", "2", "--d-hint", "30", "--out", str(out / "model.json")]) == 0
assert evadelab.cli.main([
    "attack", "--model", str(out / "model.json"),
    "--data", str(out / "test.txt"), "--epsilon-grid", "1:2",
    "--max-iters", "20", "--out", str(out / "attack.csv")]) == 0
print(json.dumps(sorted(set(sys.modules) - imported)))
"""


def test_study_and_cli_attack_load_no_module_after_import(tmp_path):
    # a module loaded lazily inside a study or a CLI call (numpy.ma behind
    # np.unique of floats, scipy) is paid inside every timed call instead of
    # once at import.  numpy.random is loaded up front: numpy loads it at the
    # first np.random access, which CLI commands that draw no numbers never
    # make, and a process that draws numbers pays it once.  argparse's first
    # parser imports the standard library's locale through gettext, once
    # per process.
    loaded = json.loads(_python_last_line(_STUDY_AND_ATTACK, tmp_path))
    assert set(loaded) <= {"locale", "_locale"}


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


def _number_rule_sites(tree):
    """Each string outside a docstring that words the rule for a number,
    each isinstance test against (int, np.integer), and each argparse flag
    parsed with type=float or type=int, in a module tree, as (line,
    source)."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)}
    sites = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docstrings
                and any(words in node.value for words in (
                    "must be an integer", "must be finite and positive"))):
            sites.append((node.lineno, node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and isinstance(node.args[1], ast.Tuple)
              and {"int", "np.integer"} <= set(map(ast.unparse,
                                                   node.args[1].elts))):
            sites.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"
              and any(k.arg == "type"
                      and ast.unparse(k.value) in ("float", "int")
                      for k in node.keywords)):
            sites.append((node.lineno, ast.unparse(node)))
    return sites


def test_one_module_words_the_number_rule():
    # featurespace._integer and _real are the one rule for what a numeric
    # setting may be, and cli._decimal and cli._whole for what a real or an
    # integer flag may be; a check written out again in another module
    # would drift from it one module at a time
    package = Path(evadelab.__file__).resolve().parent
    found = {path.name: _number_rule_sites(ast.parse(
                 path.read_text(encoding="utf-8")))
             for path in sorted(package.glob("*.py"))
             if path.name != "featurespace.py"}
    assert {name: sites for name, sites in found.items() if sites} == {}
    # the walk sees each form it looks for
    assert len(_number_rule_sites(ast.parse(
        '"""d must be an integer."""\n'
        'isinstance(v, (int, np.integer))\n'
        'raise ValueError(f"{n} must be an integer, got {v!r}")\n'
        'raise ValueError("gamma must be finite and positive")\n'
        'p.add_argument("--reg", type=float)\n'
        'p.add_argument("--seed", type=int)'))) == 5
