"""Every numeric setting refuses what is not a number of its kind, by name.

One walk over the config fields, trainer arguments, attack, attribution,
evenness and statistics entry points, model constructor arguments and
model-file numbers: each is given True, a numeric string, NaN, a value
outside its range and, for an integer setting, 2.5 (a model's weight or
coefficient vector gets a bool vector, a vector holding a numeric string,
a list of a bool and a float, and one holding NaN or an infinity), and
must raise ValueError (ModelFormatError for a model file) whose message
starts with the setting's name.  A bool was once taken as 1 and a numeric string failed with a
TypeError that named nothing.
"""

import json
import math
import re

import numpy as np
import pytest

from evadelab import pipeline
from evadelab.attack import (SecurityCurve, attack_scores_over_grid,
                             epsilon_min_batch)
from evadelab.evenness import evenness_e1, evenness_e2, evenness_report
from evadelab.explain import attribution_integrated_gradients, top_features
from evadelab.featurespace import SyntheticConfig, generate_synthetic, split
from evadelab.models import (KernelModel, LinearModel, ModelFormatError,
                             TrainConfig, detection_rate_at_fpr, load_model,
                             save_model, train_rbf_svm)
from evadelab.pipeline import PRESETS, ClassifierSpec, ExperimentConfig
from evadelab.stats import permutation_pvalue

SYNTH = dict(d=6, n_benign=10, n_malware=10, n_strong=2, strong_rate_gap=0.5,
             weak_rate_gap=0.1, base_density=0.3, seed=0)
DATA = generate_synthetic(SyntheticConfig(**SYNTH))
LINEAR = LinearModel(np.array([-1.0, 0.5, 1.0, 0.0, 0.0, -0.5]), 0.25)
ROW = DATA.samples[-1:]
R = np.array([[0.5, -1.0, 0.25]])


def experiment(**setting):
    return ExperimentConfig(classifiers=(PRESETS["svm"],),
                            synthetic=SyntheticConfig(**SYNTH), **setting)


# (case id, the name an error starts with, "int" or "real", a valid value, a
# value outside the setting's range (NaN for a threshold, which may be any
# number), call(value) with the setting at value)
SETTINGS = [
    *[(f"synthetic-{name}", name, "int", 2, least - 1,
       lambda v, name=name: SyntheticConfig(**{**SYNTH, name: v}))
      for name, least in (("d", 1), ("n_benign", 0), ("n_malware", 0),
                          ("n_strong", 0), ("seed", 0))],
    *[(f"synthetic-{name}", name, "real", 0.25, 1.5,
       lambda v, name=name: SyntheticConfig(**{**SYNTH, name: v}))
      for name in ("strong_rate_gap", "weak_rate_gap", "base_density")],
    ("split-train_fraction", "train_fraction", "real", 0.5, 1.0,
     lambda v: split(DATA, v, 0)),
    ("split-seed", "seed", "int", 3, -1, lambda v: split(DATA, 0.5, v)),
    ("train-epochs", "epochs", "int", 3, 0, lambda v: TrainConfig(epochs=v)),
    ("train-seed", "seed", "int", 3, -1, lambda v: TrainConfig(seed=v)),
    ("train-reg", "reg", "real", 10, 0.0, lambda v: TrainConfig(reg=v)),
    ("train-learning_rate", "learning_rate", "real", 0.25, math.inf,
     lambda v: TrainConfig(learning_rate=v)),
    ("train-weight_bound", "weight_bound", "real", 0, -0.5,
     lambda v: TrainConfig(weight_bound=v)),
    ("rbf-C", "C", "real", 1, 0.0,
     lambda v: train_rbf_svm(DATA, v, 0.5, TrainConfig())),
    ("rbf-gamma", "gamma", "real", 0.5, 0.0,
     lambda v: train_rbf_svm(DATA, 1.0, v, TrainConfig())),
    ("kernel-model-gamma", "gamma", "real", 2, -1.0,
     lambda v: KernelModel(np.eye(2, 3), np.ones(2), 0.0, v)),
    ("linear-model-bias", "bias", "real", -2, math.inf,
     lambda v: LinearModel(np.ones(2), v)),
    ("kernel-model-bias", "bias", "real", 0.5, -math.inf,
     lambda v: KernelModel(np.eye(2, 3), np.ones(2), v, 0.5)),
    # a model's parameter vectors: each bad value is a whole vector
    ("linear-model-weights", "weights", "array", [3, -0.5], math.inf,
     lambda v: LinearModel(v, 0.0)),
    ("kernel-model-dual_coeffs", "dual_coeffs", "array", np.ones(2), math.inf,
     lambda v: KernelModel(np.eye(2, 3), v, 0.0, 0.5)),
    ("fpr_target", "fpr_target", "real", 0.5, 1.5,
     lambda v: detection_rate_at_fpr(LINEAR, DATA, v)),
    *[(f"spec-{name}", name, "real", 0.25, 0.0,
       lambda v, name=name: ClassifierSpec("c", "linear", **{name: v}))
      for name in ("reg", "learning_rate")],
    ("spec-epochs", "epochs", "int", 3, 0,
     lambda v: ClassifierSpec("c", "linear", epochs=v)),
    ("spec-gamma", "gamma", "real", 0.25, -1.0,
     lambda v: ClassifierSpec("c", "rbf", gamma=v)),
    ("spec-weight_bound", "weight_bound", "real", 0.25, -1.0,
     lambda v: ClassifierSpec("c", "secsvm", weight_bound=v)),
    # a config file's classifier entry: {"weight_bound": true} trained in
    # the box [-1, 1]
    ("preset-weight_bound", "weight_bound", "real", 0.25, -1.0,
     lambda v: pipeline._roster_entry({"preset": "sec-svm",
                                       "weight_bound": v})),
    ("grid_cv-reg", "reg", "real", 0.25, 0.0,
     lambda v: pipeline.grid_cv(DATA, PRESETS["svm"], [1.0, v])),
    ("grid_cv-seed", "seed", "int", 3, -1,
     lambda v: pipeline.grid_cv(DATA, PRESETS["svm"], [1.0], seed=v)),
    *[(f"config-{name}", name, "int", 3, least - 1,
       lambda v, name=name: experiment(**{name: v}))
      for name, least in (("seed", 0), ("repetitions", 1), ("ig_p", 1),
                          ("evenness_m", 2), ("n_attack_samples", 1),
                          ("attack_max_iters", 1))],
    ("config-eps_grid", "eps_grid", "int", 2, 0,
     lambda v: experiment(eps_grid=(1, v))),
    ("config-fpr", "fpr", "real", 0.5, -0.5, lambda v: experiment(fpr=v)),
    ("grid-max_iters", "max_iters", "int", 3, 0,
     lambda v: attack_scores_over_grid(LINEAR, ROW, [1], 0.0, v)),
    ("grid-budget", "budget", "int", 0, -1,
     lambda v: attack_scores_over_grid(LINEAR, ROW, [1, v], 0.0)),
    ("grid-threshold", "threshold", "real", -math.inf, math.nan,
     lambda v: attack_scores_over_grid(LINEAR, ROW, [1], v)),
    ("curve-threshold", "threshold", "real", math.inf, math.nan,
     lambda v: SecurityCurve.from_scores(np.zeros((2, 1)), [1], v)),
    ("eps_min-threshold", "threshold", "real", -2, math.nan,
     lambda v: epsilon_min_batch(LINEAR, ROW, 2, threshold=v)),
    ("eps_min-eps_max", "eps_max", "int", 3, 0,
     lambda v: epsilon_min_batch(LINEAR, ROW, v)),
    ("eps_min-max_iters", "max_iters", "int", 3, 0,
     lambda v: epsilon_min_batch(LINEAR, ROW, 2, max_iters=v)),
    ("evenness_report-m", "m", "int", 2, 1, lambda v: evenness_report(R, v)),
    ("evenness_e1-m", "m", "int", 2, 1, lambda v: evenness_e1(R[0], v)),
    ("evenness_e2-m", "m", "int", 1, 0, lambda v: evenness_e2(R[0], v)),
    ("ig-p", "p", "int", 3, 0,
     lambda v: attribution_integrated_gradients(LINEAR, ROW, p=v)),
    ("top_features-k", "k", "int", 0, -1, lambda v: top_features(R[0], v)),
    ("permutation-n_perm", "n_perm", "int", 3, 0,
     lambda v: permutation_pvalue([1, 2, 3, 4], [1, 3, 2, 4], n_perm=v)),
    ("permutation-seed", "seed", "int", 3, -1,
     lambda v: permutation_pvalue([1, 2, 3, 4], [1, 3, 2, 4], n_perm=3,
                                  seed=v)),
]

# (case id, the name an error starts with, "int" or "real", a valid value, a
# value outside the range, edit(doc, value) of a saved model document: the
# linear one for d, bias and weights, the kernel one for gamma and
# dual_coeffs)
MODEL_NUMBERS = [
    ("d", "d", "int", 6, 0, lambda doc, v: doc.update(d=v)),
    ("bias", "bias", "real", -2, math.inf,
     lambda doc, v: doc.update(bias=v)),
    ("weights", "weights", "real", 3, -math.inf,
     lambda doc, v: doc["weights"][0].__setitem__(1, v)),
    ("gamma", "gamma", "real", 1, 0.0, lambda doc, v: doc.update(gamma=v)),
    ("dual_coeffs", "dual_coeffs", "real", 0, math.inf,
     lambda doc, v: doc["dual_coeffs"].__setitem__(0, v)),
]


def load_edited(tmp_path, number, value):
    """load_model of a saved model whose ``number`` is set to ``value``."""
    model = (KernelModel(np.eye(2, 3), np.array([1.0, -1.0]), 0.5, 0.5)
             if number[1] in ("gamma", "dual_coeffs") else LINEAR)
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    number[-1](doc, value)
    path.write_text(json.dumps(doc))
    return load_model(path)


def bad_values(kind, out_of_range):
    """(id, value) of each value a setting of ``kind`` refuses; an "array"
    setting gets two-entry vectors, each holding one bad entry."""
    if kind == "array":
        return [("true", np.array([True, False])),
                ("string", ["0.5", True]),
                ("bool-entry", [True, 0.5]),
                ("nan", np.array([math.nan, 1.0])),
                ("out-of-range", [1, out_of_range])]
    values = [("true", True), ("string", "3" if kind == "int" else "0.25"),
              ("nan", math.nan), ("out-of-range", out_of_range)]
    return values + ([("fraction", 2.5)] if kind == "int" else [])


def cases(table):
    return [pytest.param(row, value, id=f"{row[0]}-{value_id}")
            for row in table
            for value_id, value in bad_values(row[2], row[4])]


@pytest.mark.parametrize("setting,value", cases(SETTINGS))
def test_setting_refused_by_name(setting, value):
    with pytest.raises(ValueError, match=f"^{re.escape(setting[1])} "):
        setting[-1](value)


@pytest.mark.parametrize("number,value", cases(MODEL_NUMBERS))
def test_model_file_number_refused_by_name(tmp_path, number, value):
    with pytest.raises(ModelFormatError, match=f"^{re.escape(number[1])} "):
        load_edited(tmp_path, number, value)


@pytest.mark.parametrize("setting", SETTINGS + MODEL_NUMBERS,
                         ids=[row[0] for row in SETTINGS + MODEL_NUMBERS])
def test_walk_calls_run_at_a_valid_value(tmp_path, setting):
    # so that each refusal above comes from the value, not from the call
    if setting in MODEL_NUMBERS:
        load_edited(tmp_path, setting, setting[3])
    else:
        setting[-1](setting[3])


def test_real_setting_checked_not_converted():
    # a config's "reg": 10 reaches manifest.json as 10
    doc = experiment().to_dict()
    doc["classifiers"] = [{"preset": "svm", "reg": 10}]
    cfg = ExperimentConfig.from_dict(doc)
    assert type(cfg.classifiers[0].reg) is int
    assert cfg.to_dict()["classifiers"][0]["reg"] == 10
