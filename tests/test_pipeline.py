import csv
import json
import math

import pytest

from evadelab.featurespace import SyntheticConfig, generate_synthetic
from evadelab.pipeline import (PRESETS, ClassifierSpec, ExperimentConfig,
                               emit_scatter_data, grid_cv, run_experiment)
from evadelab.stats import correlation_suite

SMALL_SYNTH = SyntheticConfig(d=80, n_benign=260, n_malware=260, n_strong=16,
                              strong_rate_gap=0.5, weak_rate_gap=0.03,
                              base_density=0.15, seed=19)


def small_config(**overrides):
    defaults = dict(
        classifiers=(PRESETS["svm"], PRESETS["sec-svm"]),
        synthetic=SMALL_SYNTH,
        repetitions=1,
        eps_grid=tuple(range(1, 9)),
        n_attack_samples=50,
        evenness_m=30,
        ig_p=40,
        seed=3,
        attack_max_iters=80,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = small_config()
    return run_experiment(cfg, out_dir=out), out


class TestRunExperiment:
    def test_cells_complete(self, small_report):
        report, _ = small_report
        assert len(report.cells) == 2
        assert all(c.status == "ok" for c in report.cells)
        assert all(c.curve is not None for c in report.cells)

    def test_gradient_degenerate_for_linear(self, small_report):
        report, _ = small_report
        for entry in report.pooled_correlations:
            if entry["attribution"] == "gradient":
                assert entry["report"].degenerate
            else:
                assert not entry["report"].degenerate

    def test_gradient_input_and_ig_populated(self, small_report):
        report, _ = small_report
        seen = {(e["classifier"], e["attribution"])
                for e in report.pooled_correlations
                if not e["report"].degenerate}
        for name in ("svm", "sec-svm"):
            assert (name, "gradient_input") in seen
            assert (name, "integrated_gradients") in seen

    def test_artifact_files_written(self, small_report):
        _, out = small_report
        assert (out / "manifest.json").exists()
        assert (out / "summary.csv").exists()
        assert (out / "pooled_correlations.csv").exists()
        for slug in ("svm", "sec_svm"):
            for prefix in ("roc", "security_curve", "adv_scores", "samples",
                           "correlations"):
                assert (out / "rep0" / f"{prefix}_{slug}.csv").exists()
            assert (out / f"security_curve_mean_{slug}.csv").exists()
        assert (out / "scatter" / "samples_gradient_input_e1.csv").exists()
        assert (out / "scatter" / "classifiers_integrated_gradients_e2.csv").exists()

    def test_mean_curve_with_envelopes(self, tmp_path):
        cfg = small_config(repetitions=2, curve_envelopes=True,
                           classifiers=(PRESETS["svm"],))
        report = run_experiment(cfg, out_dir=tmp_path / "env")
        with open(tmp_path / "env" / "security_curve_mean_svm.csv") as fh:
            rows = list(csv.DictReader(fh))
        cells = report.ok_cells("svm")
        assert len(cells) == 2
        for row, eps in zip(rows, cfg.eps_grid):
            per_rep = [c.curve.detection_rates[cfg.eps_grid.index(eps)]
                       for c in cells]
            assert float(row["mean_detection_rate"]) == pytest.approx(
                sum(per_rep) / 2)
            assert float(row["min_detection_rate"]) == pytest.approx(min(per_rep))
            assert float(row["max_detection_rate"]) == pytest.approx(max(per_rep))

    def test_security_curve_has_clean_rate_row(self, small_report):
        report, out = small_report
        with open(out / "rep0" / "security_curve_svm.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["eps"] == "0"
        cell = next(c for c in report.cells if c.spec.name == "svm")
        assert float(rows[0]["detection_rate"]) == pytest.approx(cell.dr_clean)

    def test_per_eps_recomputable_from_adv_scores_csv(self, small_report):
        report, out = small_report
        for cell in report.cells:
            slug = cell.spec.slug
            with open(out / "rep0" / f"adv_scores_{slug}.csv") as fh:
                rows = list(csv.DictReader(fh))
            by_eps = {}
            for rec in rows:
                by_eps.setdefault(int(rec["eps"]), []).append(
                    float(rec["score_after"]))
            for eps, scores in by_eps.items():
                losses = [max(0.0, 1.0 - s) for s in scores]
                recomputed = math.fsum(math.exp(-l) for l in losses) / len(losses)
                assert cell.robust.per_eps[eps] == pytest.approx(
                    recomputed, abs=1e-12)

    def test_manifest_carries_config_and_seeds(self, small_report):
        _, out = small_report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["cells"][0]["split_seed"] == 3
        assert all(c["status"] == "ok" for c in manifest["cells"])

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError):
            small_config(classifiers=())

    def test_failing_cell_isolated(self, tmp_path):
        bad = ClassifierSpec("broken", "rbf", reg=-5.0)
        cfg = small_config(classifiers=(PRESETS["svm"], bad))
        report = run_experiment(cfg, out_dir=tmp_path / "iso")
        by_name = {c.spec.name: c for c in report.cells}
        assert by_name["svm"].status == "ok"
        assert by_name["broken"].status == "failed"
        assert "ValueError" in by_name["broken"].error

    def test_deterministic_outputs(self, tmp_path):
        cfg = small_config()
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        run_experiment(cfg, out_dir=out1)
        run_experiment(cfg, out_dir=out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*.csv"))
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*.csv"))
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


class TestScatter:
    def test_per_sample_mode(self, small_report):
        report, _ = small_report
        rows = emit_scatter_data(report, "gradient_input", "e1", "robustness")
        assert rows
        n_ok = sum(len(c.sample_ids) for c in report.cells)
        assert len(rows) <= n_ok
        for row in rows:
            assert 0.0 <= row[3] <= 1.0  # evenness
            assert 0.0 < row[4] <= 1.0   # robustness

    def test_each_sample_keeps_its_own_values(self, small_report):
        # the samples CSV is written row by row, independently of the
        # evenness/robustness pairing that scatter and correlations share
        report, out = small_report
        samples = {}
        for cell in report.cells:
            path = out / f"rep{cell.rep}" / f"samples_{cell.spec.slug}.csv"
            with open(path, newline="", encoding="utf-8") as fh:
                samples[cell.spec.name, cell.rep] = {
                    int(r["sample_id"]): r for r in csv.DictReader(fh)}
        rows = emit_scatter_data(report, "gradient_input", "e1", "robustness")
        for name, rep, sid, e, r in rows:
            rec = samples[name, rep][sid]
            assert (repr(e), repr(r)) == (rec["e1_gradient_input"],
                                          rec["robustness"])
        for cell in report.cells:
            defined = [(float(r["e1_gradient_input"]), float(r["robustness"]))
                       for r in samples[cell.spec.name, cell.rep].values()
                       if r["e1_gradient_input"]]
            want = correlation_suite(*zip(*defined))
            for entries in (cell.correlations, [
                    e for e in report.pooled_correlations
                    if e["classifier"] == cell.spec.name]):
                assert [e["report"] for e in entries
                        if e["attribution"] == "gradient_input"
                        and e["metric"] == "e1"] == want

    def test_subsample(self, small_report):
        report, _ = small_report
        rows = emit_scatter_data(report, "gradient_input", "e2", "robustness",
                                 subsample=10, subsample_seed=1)
        assert len(rows) == 10
        again = emit_scatter_data(report, "gradient_input", "e2", "robustness",
                                  subsample=10, subsample_seed=1)
        assert rows == again

    def test_per_classifier_mode(self, small_report):
        report, _ = small_report
        rows = emit_scatter_data(report, "integrated_gradients", "e2",
                                 "detection_rate")
        assert [r[0] for r in rows] == ["svm", "sec-svm"]
        for row in rows:
            assert 0.0 <= row[2] <= 1.0

    def test_missing_cell_rejected(self, small_report):
        report, _ = small_report
        with pytest.raises(ValueError):
            emit_scatter_data(report, "gradient_input", "e3", "robustness")


class TestConfigParsing:
    def test_from_dict_with_presets_and_grid(self):
        doc = {
            "dataset": {"synthetic": {
                "d": 40, "n_benign": 30, "n_malware": 30, "n_strong": 5,
                "strong_rate_gap": 0.5, "weak_rate_gap": 0.1,
                "base_density": 0.1, "seed": 1}},
            "classifiers": ["svm", {"preset": "sec-svm", "epochs": 3},
                            {"name": "mine", "kind": "linear",
                             "loss": "logistic", "reg": 2.0}],
            "eps_grid": {"start": 1, "stop": 5},
            "repetitions": 2,
            "seed": 9,
        }
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.eps_grid == (1, 2, 3, 4, 5)
        assert cfg.classifiers[1].epochs == 3
        assert cfg.classifiers[2].loss == "logistic"
        assert cfg.repetitions == 2

    def test_round_trip_through_to_dict(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.eps_grid == cfg.eps_grid
        assert again.synthetic == cfg.synthetic
        assert [s.name for s in again.classifiers] == [
            s.name for s in cfg.classifiers]

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(repetitions=0)
        with pytest.raises(ValueError):
            small_config(eps_grid=(0, 1))
        with pytest.raises(ValueError):
            small_config(methods=("saliency",))
        with pytest.raises(ValueError):
            small_config(classifiers=(PRESETS["svm"], PRESETS["svm"]))
        with pytest.raises(ValueError, match="unknown attack method"):
            small_config(attack_method="bogus")


class TestGridCV:
    def test_picks_a_grid_value_and_prefers_regularized_ties(self):
        ds = generate_synthetic(SMALL_SYNTH)
        spec = ClassifierSpec("svm", "linear", loss="hinge", epochs=4)
        best, table = grid_cv(ds, spec, [0.1, 1.0], folds=3, seed=0)
        assert best in (0.1, 1.0)
        assert len(table) == 2
        rates = dict(table)
        if abs(rates[0.1] - rates[1.0]) <= 0.01:
            assert best == 0.1  # smaller C = more regularized
