"""Acceptance gate: one seeded, self-contained check per shipping criterion.

Each test prints a single ``[ACCEPTANCE] <name>: PASS|FAIL`` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and then asserts.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from evadelab.attack import (AttackConfig, attack_scores_over_grid,
                             epsilon_min_batch, security_evaluation)
from evadelab.cli import main as cli_main
from evadelab.evenness import evenness_e1, evenness_e2
from evadelab.explain import (attribution_gradient, attribution_gradient_input,
                              attribution_integrated_gradients)
from evadelab.featurespace import SyntheticConfig, generate_synthetic, split
from evadelab.models import (KernelModel, LinearModel, TrainConfig,
                             detection_rate_at_fpr, score, train_linear,
                             train_rbf_svm, train_secsvm)
from evadelab.pipeline import PRESETS, ExperimentConfig, run_experiment
from evadelab.stats import kendall, midranks, pearson, spearman


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def vec(indices, d):
    """The bool (d,) row with the given features present."""
    x = np.zeros(d, dtype=bool)
    x[list(indices)] = True
    return x


def trained_small_rbf_cases(n_blocks, per_block, seed0, rng_seed, d=8,
                            n_each=80, gamma=0.3, epochs=40):
    """Seeded (trained RBF model, malware-classified sample) pairs."""
    rng = np.random.default_rng(rng_seed)
    cases = []
    for block in range(n_blocks):
        cfg = SyntheticConfig(d=d, n_benign=n_each, n_malware=n_each,
                              n_strong=3, strong_rate_gap=0.5,
                              weak_rate_gap=0.25, base_density=0.1,
                              seed=seed0 + block)
        ds = generate_synthetic(cfg)
        model = train_rbf_svm(ds, 10.0, gamma, TrainConfig(epochs=epochs,
                                                           seed=block))
        malware = [s for s, y in zip(ds.samples, ds.labels)
                   if y == 1 and score(model, s) >= 0]
        rng.shuffle(malware)
        cases += [(model, x) for x in malware[:per_block]]
    return cases


def test_criterion_01_linear_ig_equals_gradient_input():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(5, 30))
        model = LinearModel(rng.normal(size=d), float(rng.normal()))
        x = vec(np.flatnonzero(rng.random(d) < 0.4), d)
        gi = attribution_gradient_input(model, [x])
        for p in (1, 10, 100):
            ig = attribution_integrated_gradients(model, [x], p=p)
            worst = max(worst, float(np.max(np.abs(gi - ig))))
    elapsed = time.perf_counter() - start
    _report("1 linear IG == Gradient*Input", worst < 1e-12 and elapsed < 1.0,
            f"max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_ig_completeness_on_kernel_models():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst_ratio = 0.0
    worst_ref = 0.0
    n_cases = 0
    for block in range(10):
        cfg = SyntheticConfig(d=8, n_benign=8, n_malware=8, n_strong=3,
                              strong_rate_gap=0.6, weak_rate_gap=0.25,
                              base_density=0.1, seed=600 + block)
        ds = generate_synthetic(cfg)
        model = train_rbf_svm(ds, 10.0, 0.15, TrainConfig(epochs=60,
                                                          seed=block))
        malware = ds.samples[ds.labels == 1]
        rng.shuffle(malware)
        for x in malware[:5]:
            n_cases += 1
            r1k = attribution_integrated_gradients(model, [x], p=1000)
            r1m = attribution_integrated_gradients(model, [x], p=10 ** 6)
            f_x = score(model, x)
            f_0 = float(model.decision_batch(np.zeros(8)[None])[0])
            delta = f_x - f_0
            tol = max(1e-6, 1e-3 * abs(delta))
            worst_ratio = max(worst_ratio,
                              abs(r1k.sum() - delta) / tol)
            # the p=1e6 reference sum must be far closer (error ~ 1/p)
            worst_ref = max(worst_ref, abs(r1m.sum() - delta)
                            / max(abs(r1k.sum() - delta), 1e-18))
    elapsed = time.perf_counter() - start
    _report("2 IG completeness at p=1000 (kernel)",
            n_cases == 50 and worst_ratio <= 1.0 and worst_ref < 0.05
            and elapsed < 30.0,
            f"worst gap/tol {worst_ratio:.3f}, ref ratio {worst_ref:.4f}, "
            f"{elapsed:.1f}s")


def test_criterion_03_gradient_matches_finite_differences():
    rng = np.random.default_rng(33)
    worst = 0.0
    h = 1e-4
    for _ in range(50):
        d = int(rng.integers(4, 10))
        n_sv = int(rng.integers(3, 8))
        svs = tuple(vec(np.flatnonzero(rng.random(d) < 0.5), d)
                    for _ in range(n_sv))
        model = KernelModel(svs, rng.normal(size=n_sv),
                            float(rng.normal() * 0.3),
                            float(rng.uniform(0.2, 1.0)))
        x = vec(np.flatnonzero(rng.random(d) < 0.5), d)
        g = attribution_gradient(model, [x])[0]
        base = x.astype(float)
        fd = np.zeros(d)
        for i in range(d):
            up = base.copy()
            up[i] += h
            dn = base.copy()
            dn[i] -= h
            fd[i] = (model.decision_batch(up[None])[0]
                     - model.decision_batch(dn[None])[0]) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    _report("3 analytic gradient vs finite differences", worst < 1e-5,
            f"worst relative error {worst:.2e}")


def test_criterion_04_evenness_extremals_and_invariances():
    exact = (evenness_e1(np.ones(6), 6) == 1.0
             and evenness_e1(np.array([5.0, 0, 0, 0, 0, 0]), 6) == 0.0
             and evenness_e2(np.ones(6), 6) == 1.0
             and evenness_e2(np.array([5.0, 0, 0, 0, 0, 0]), 6) == 1.0 / 6)
    rng = np.random.default_rng(44)
    invariant = True
    for _ in range(1000):
        d = int(rng.integers(3, 16))
        v = rng.normal(size=d)
        m = int(rng.integers(2, d + 1))
        scale = float(rng.uniform(0.05, 20.0))
        signs = rng.choice([-1.0, 1.0], size=d)
        perm = rng.permutation(d)
        for fn in (evenness_e1, evenness_e2):
            base = fn(v, m)
            for variant in (v * scale, -v, v * signs, v[perm]):
                if abs(fn(variant, m) - base) > 1e-9 * max(1.0, abs(base)):
                    invariant = False
    _report("4 evenness extremals and invariances", exact and invariant)


def test_criterion_05_attack_oracle_equivalence_at_scale():
    start = time.perf_counter()
    cfg = SyntheticConfig(d=2000, n_benign=1000, n_malware=1000, n_strong=60,
                          strong_rate_gap=0.5, weak_rate_gap=0.003,
                          base_density=0.10, seed=2024)
    train, test = split(generate_synthetic(cfg), 0.5, 0)
    malware = test.samples[test.labels == 1][:200]
    presets = {
        "svm": TrainConfig("hinge", 0.1, epochs=10, seed=1),
        "sec-svm": TrainConfig("hinge", 1.0, epochs=10, seed=1,
                               weight_lb=-0.25, weight_ub=0.25),
        "logistic": TrainConfig("logistic", 1.0, epochs=10, seed=1),
        "ridge": TrainConfig("squared", 10.0, epochs=10, seed=1),
    }
    details = []
    ok = True
    for name, tc in presets.items():
        model = (train_secsvm(train, tc) if name == "sec-svm"
                 else train_linear(train, tc))
        _, threshold = detection_rate_at_fpr(model, test, 0.01)
        greedy = epsilon_min_batch(model, malware, 50, "greedy",
                                   threshold=threshold)
        pgd = epsilon_min_batch(model, malware, 50, "pgd",
                                AttackConfig(max_iters=200),
                                threshold=threshold)
        agree = float(np.mean(pgd == greedy))
        never_below = bool(np.all(pgd >= greedy))
        details.append(f"{name} {agree:.3f}")
        ok = ok and agree >= 0.95 and never_below
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report("5 PGD/greedy eps_min equivalence (d=2000)", ok,
            f"{', '.join(details)}, {elapsed:.0f}s")


def test_criterion_06_small_instance_brute_force():
    cases = trained_small_rbf_cases(n_blocks=10, per_block=5, seed0=300,
                                    rng_seed=99)
    assert len(cases) == 50
    hits = 0
    for model, x in cases:
        after = attack_scores_over_grid(model, [x], [2], -np.inf,
                                        AttackConfig(max_iters=500),
                                        "pgd")[0, 0]
        absent = np.flatnonzero(~x).tolist()
        best = score(model, x)
        base = np.flatnonzero(x).tolist()
        for add in ([(i,) for i in absent]
                    + list(itertools.combinations(absent, 2))):
            best = min(best, score(model, vec(base + list(add), x.size)))
        if after <= best + 1e-9:
            hits += 1
    _report("6 PGD reaches brute-force optimum (d=8, eps=2)", hits >= 45,
            f"{hits}/50 optimal")


def test_criterion_07_secsvm_bounds_evenness_and_curve_area():
    bounds_ok = area_ok = e2_ok = 0
    for seed in range(5):
        cfg = SyntheticConfig(d=150, n_benign=1300, n_malware=1300,
                              n_strong=30, strong_rate_gap=0.5,
                              weak_rate_gap=0.015, base_density=0.18,
                              seed=400 + seed)
        train, test = split(generate_synthetic(cfg), 0.6, seed)
        svm = train_linear(train, TrainConfig("hinge", 1.0, epochs=8,
                                              seed=seed))
        sec = train_secsvm(train, TrainConfig("hinge", 1.0, epochs=8,
                                              seed=seed, weight_lb=-0.25,
                                              weight_ub=0.25))
        if float(np.max(np.abs(sec.weights))) <= 0.25:
            bounds_ok += 1
        _, t1 = detection_rate_at_fpr(svm, test, 0.01)
        _, t2 = detection_rate_at_fpr(sec, test, 0.01)
        malware = test.samples[test.labels == 1][:200]
        grid = range(1, 51)
        a_svm = security_evaluation(svm, malware, grid, t1,
                                    method="greedy").area()
        a_sec = security_evaluation(sec, malware, grid, t2,
                                    method="greedy").area()
        if a_sec >= a_svm:
            area_ok += 1
        if evenness_e2(sec.weights, 150) > evenness_e2(svm.weights, 150):
            e2_ok += 1
    _report("7 Sec-SVM bounds, weight evenness, curve area",
            bounds_ok == 5 and e2_ok >= 4 and area_ok >= 4,
            f"bounds {bounds_ok}/5, E2 {e2_ok}/5, area {area_ok}/5")


@pytest.fixture(scope="module")
def end_to_end_report():
    cfg = ExperimentConfig(
        classifiers=tuple(PRESETS[k] for k in
                          ("svm", "sec-svm", "svm-rbf", "logistic", "ridge")),
        synthetic=SyntheticConfig(d=150, n_benign=1300, n_malware=1300,
                                  n_strong=30, strong_rate_gap=0.5,
                                  weak_rate_gap=0.015, base_density=0.18,
                                  seed=7),
        repetitions=1,
        eps_grid=tuple(range(1, 51)),
        n_attack_samples=500,
        evenness_m=50,
        ig_p=100,
        seed=0,
        fpr=0.01,
        attack_max_iters=150,
    )
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


def test_criterion_08_correlation_replication(end_to_end_report):
    report, elapsed = end_to_end_report
    assert all(c.status == "ok" for c in report.cells)
    assert all(len(c.sample_ids) == 500 for c in report.cells)

    spearman_by_key = {}
    for entry in report.pooled_correlations:
        rpt = entry["report"]
        if rpt.method == "spearman":
            key = (entry["classifier"], entry["attribution"], entry["metric"])
            spearman_by_key[key] = rpt

    linear_names = ("svm", "sec-svm", "logistic", "ridge")
    gradient_degenerate = all(
        spearman_by_key[(name, "gradient", metric)].degenerate
        for name in linear_names for metric in ("e1", "e2"))

    classifiers_ok = 0
    details = []
    for cell in report.cells:
        name = cell.spec.name
        good = True
        for attribution in ("gradient_input", "integrated_gradients"):
            for metric in ("e1", "e2"):
                rpt = spearman_by_key[(name, attribution, metric)]
                if rpt.degenerate or rpt.coefficient <= 0 or rpt.p_value >= 0.05:
                    good = False
        classifiers_ok += int(good)
        details.append(f"{name}:{'+' if good else '-'}")
    ok = (gradient_degenerate and classifiers_ok >= 4 and elapsed < 600.0)
    _report("8 evenness-robustness correlation replication", ok,
            f"positive+significant {classifiers_ok}/5 [{' '.join(details)}], "
            f"gradient degenerate on linear: {gradient_degenerate}, "
            f"{elapsed:.0f}s")


def test_criterion_09_statistics_oracles():
    tau_ok = kendall([1, 2, 3], [1, 3, 2]).coefficient == pytest.approx(1 / 3)
    rng = np.random.default_rng(99)
    closed_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 60))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        rho = spearman(x, y).coefficient
        d = midranks(x) - midranks(y)
        closed = 1 - 6 * float(d @ d) / (n * (n * n - 1))
        if abs(rho - closed) > 1e-12:
            closed_ok = False
    degenerate = pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    degen_ok = (degenerate.degenerate and degenerate.coefficient is None
                and degenerate.p_value is None)
    _report("9 statistics oracles", tau_ok and closed_ok and degen_ok)


def test_criterion_10_experiment_determinism(tmp_path):
    synth = dict(d=60, n_benign=150, n_malware=150, n_strong=10,
                 strong_rate_gap=0.5, weak_rate_gap=0.05, base_density=0.1,
                 seed=5)
    config = {
        "dataset": {"synthetic": synth},
        "classifiers": ["svm", {"preset": "svm-rbf", "epochs": 5}],
        "eps_grid": {"start": 1, "stop": 5},
        "repetitions": 2,
        "seed": 1,
        "n_attack_samples": 40,
        "evenness_m": 20,
        "ig_p": 30,
        "attack": {"max_iters": 60},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(["experiment", "--config", str(cfg_path),
                     "--out", str(out1)]) == 0
    assert cli_main(["experiment", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
    files1 = sorted(p.relative_to(out1) for p in Path(out1).rglob("*.csv"))
    files2 = sorted(p.relative_to(out2) for p in Path(out2).rglob("*.csv"))
    identical = files1 == files2 and all(
        (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        for rel in files1)
    _report("10 byte-identical experiment outputs",
            bool(files1) and identical, f"{len(files1)} CSV files compared")
