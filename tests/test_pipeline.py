import csv
import io
import json
import math
from collections import Counter
from dataclasses import replace

import pytest

import numpy as np

from evadelab import pipeline
from evadelab.evenness import UndefinedEvennessError, evenness_e1
from evadelab.featurespace import SyntheticConfig, generate_synthetic, split
from evadelab.models import detection_rate_at_fpr, roc_curve
from evadelab.pipeline import (ATTRIBUTION_METHODS, PRESETS, ClassifierSpec,
                               ExperimentConfig, _attribution, _write_csv,
                               grid_cv, run_experiment)
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


@pytest.fixture(scope="module")
def two_rep_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp2")
    return run_experiment(small_config(repetitions=2), out_dir=out), out


def written(out) -> list[str]:
    """Every file under ``out``, as sorted relative POSIX paths."""
    return sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                  if p.is_file())


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

    def test_one_cell_pools_to_its_own_table(self, small_report,
                                             monkeypatch):
        # a classifier with one ok cell pools that cell's pairs in its order,
        # so its pooled table is the cell's, taken without a suite more
        report, _ = small_report
        monkeypatch.setattr(pipeline, "correlation_suite", None)
        assert pipeline._pool_correlations(report.config, report.cells) == [
            {"classifier": cell.spec.name, **entry}
            for cell in report.cells for entry in cell.correlations]

    def test_cells_pool_their_pairs(self, two_rep_report):
        report, _ = two_rep_report
        pooled = {(e["classifier"], e["attribution"], e["metric"]): []
                  for e in report.pooled_correlations}
        for e in report.pooled_correlations:
            pooled[e["classifier"], e["attribution"], e["metric"]].append(
                e["report"])
        assert len(pooled) == 2 * 3 * 2  # classifiers x methods x metrics
        for (name, method, metric), reports in pooled.items():
            pairs = [(e, r) for cell in report.ok_cells(name)
                     for e, r in zip(getattr(cell.evenness[method],
                                             f"per_sample_{metric}"),
                                     cell.robust.per_sample)
                     if e is not None]
            assert len(pairs) > len(report.ok_cells(name)[0].sample_ids)
            assert reports == correlation_suite(*zip(*pairs))

    def test_artifact_files_written(self, two_rep_report):
        # every file a study writes: a table added or lost shows up here
        _, out = two_rep_report
        per_cell = [f"rep{rep}/{prefix}_{slug}.csv" for rep in (0, 1)
                    for slug in ("svm", "sec_svm")
                    for prefix in ("adv_scores", "correlations", "roc",
                                   "samples", "security_curve")]
        assert written(out) == sorted(
            per_cell + ["manifest.json", "pooled_correlations.csv",
                        "security_curve_mean_sec_svm.csv",
                        "security_curve_mean_svm.csv", "summary.csv"])

    def test_mean_curve_over_repetitions(self, two_rep_report):
        report, out = two_rep_report
        cfg = report.config
        with open(out / "security_curve_mean_svm.csv") as fh:
            rows = list(csv.DictReader(fh))
        cells = report.ok_cells("svm")
        assert len(cells) == 2
        assert list(rows[0]) == ["eps", "mean_detection_rate"]
        assert [int(row["eps"]) for row in rows] == list(cfg.eps_grid)
        for col, row in enumerate(rows):
            per_rep = [c.curve.detection_rates[col] for c in cells]
            assert float(row["mean_detection_rate"]) == pytest.approx(
                sum(per_rep) / 2)

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

    def test_clean_scores_are_the_model_scores(self, small_report):
        report, _ = small_report
        _, test = split(generate_synthetic(SMALL_SYNTH), 0.6, 3)
        for cell in report.cells:
            dense = test.samples[cell.sample_ids].astype(float)
            assert np.array_equal(cell.clean_scores,
                                  cell.model.decision_batch(dense))

    def test_averages_are_the_attacked_malware_means(self, tmp_path):
        # n_attack_samples above the test split's size: every malware test
        # row is attacked, whatever the sampling
        cfg = small_config(classifiers=(PRESETS["svm"],),
                           n_attack_samples=1000)
        report = run_experiment(cfg, out_dir=tmp_path)
        cell = report.cells[0]
        assert cell.status == "ok"
        _, test = split(generate_synthetic(SMALL_SYNTH), 0.6, 3)
        malware = test.samples[test.labels == 1]
        assert len(cell.sample_ids) == len(malware)
        with open(tmp_path / "summary.csv") as fh:
            summary = next(csv.DictReader(fh))
        for method in ATTRIBUTION_METHODS:
            values = []
            for x in malware:
                try:
                    values.append(evenness_e1(_attribution(
                        method, cell.model, [x], cfg.ig_p)[0],
                        cfg.evenness_m))
                except UndefinedEvennessError:
                    pass
            want = math.fsum(values) / len(values)
            assert float(summary[f"avg_e1_{method}"]) == want
            assert float(summary["mean_dr_under_attack"]) == cell.curve.area()

    def test_one_attribution_call_per_cell_and_method(self, monkeypatch):
        # the layer entry points are looked up as pipeline globals, so a
        # wrapper installed there sees every call of a run
        names = ("attribution_gradient", "attribution_gradient_input",
                 "attribution_integrated_gradients", "evenness_report")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(pipeline, name,
                                counted(name, getattr(pipeline, name)))
        report = run_experiment(small_config())
        cells = len(report.ok_cells())
        assert cells == 2
        # Gradient*Input is the Gradient matrix masked by the samples, so
        # it takes no gradient call of its own
        assert calls == {"attribution_gradient": cells,
                         "attribution_integrated_gradients": cells,
                         "evenness_report": 3 * cells}

    def test_cell_scores_its_test_set_once(self, monkeypatch):
        # the ROC and the threshold read one scoring of the test split and
        # equal what the public functions give
        calls = []
        dataset_scores = pipeline._dataset_scores

        def counted(model, ds):
            calls.append(ds.n)
            return dataset_scores(model, ds)

        monkeypatch.setattr(pipeline, "_dataset_scores", counted)
        cfg = small_config()
        report = run_experiment(cfg)
        _, test = split(generate_synthetic(cfg.synthetic), 0.6, cfg.seed)
        assert calls == [test.n] * len(report.cells)
        for cell in report.cells:
            assert cell.roc == roc_curve(cell.model, test)
            assert (cell.dr_clean, cell.threshold) == detection_rate_at_fpr(
                cell.model, test, cfg.fpr)

    def test_manifest_carries_config_and_seeds(self, small_report):
        _, out = small_report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["cells"][0]["split_seed"] == 3
        assert all(c["status"] == "ok" for c in manifest["cells"])

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError):
            small_config(classifiers=())

    def test_failing_cell_isolated(self, tmp_path, monkeypatch):
        # a bad spec fails at construction, so the rbf trainer is made to
        # fail inside the cell instead
        def broken_trainer(*args, **kwargs):
            raise ValueError("trainer failed")

        monkeypatch.setattr(pipeline, "train_rbf_svm", broken_trainer)
        bad = ClassifierSpec("broken", "rbf")
        cfg = small_config(classifiers=(PRESETS["svm"], bad))
        report = run_experiment(cfg, out_dir=tmp_path / "iso")
        by_name = {c.spec.name: c for c in report.cells}
        assert by_name["svm"].status == "ok"
        assert by_name["broken"].status == "failed"
        assert by_name["broken"].error == "ValueError: trainer failed"
        # the failed cell's summary row is padded to the header's width
        with open(tmp_path / "iso" / "summary.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * 2
        assert rows[1][:3] == ["0", "broken", "failed"]
        assert rows[1][3:] == [""] * (len(header) - 3)

    def test_every_cell_failing_still_writes_the_manifest(self, tmp_path):
        # one malware sample goes to training, so no test split has malware
        synth = replace(SMALL_SYNTH, n_malware=1)
        cfg = small_config(synthetic=synth)
        report = run_experiment(cfg, out_dir=tmp_path)
        assert [c.status for c in report.cells] == ["failed", "failed"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [c["error"] for c in manifest["cells"]] == [
            c.error for c in report.cells]
        assert all(c.error for c in report.cells)
        assert written(tmp_path) == ["manifest.json",
                                     "pooled_correlations.csv", "summary.csv"]
        # each cell keeps its full traceback, which the manifest leaves out
        for cell in report.cells:
            assert cell.traceback.startswith(
                "Traceback (most recent call last):\n")
            assert "in _run_cell" in cell.traceback
            assert cell.traceback.endswith(cell.error + "\n")
        assert all("traceback" not in c for c in manifest["cells"])
        assert "Traceback" not in (tmp_path / "manifest.json").read_text()

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


class TestCsvFormat:
    def test_values_are_written_by_repr_and_str(self, tmp_path):
        floats = [0.1 + 0.2, 1 / 3, -2.5e-7, 123456789.12345679, 1e16, 1e-05,
                  0.0, -0.0]
        row = [None, 7, np.int64(-3), True, False] + floats \
            + [np.float64(v) for v in floats] + ["a,b"]
        path = tmp_path / "sub" / "t.csv"
        _write_csv(path, ["h1", "h2"], [row, []])
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = (["", "7", "-3", "True", "False"]
                    + [repr(v) for v in floats] * 2 + ['"a,b"'])
        assert lines == ["h1,h2", ",".join(expected), ""]
        assert "1e+16" in expected and "1e-05" in expected
        assert "0.30000000000000004" in expected


def csv_writer_score_table(sample_ids, eps_grid, scores) -> bytes:
    """The score table as csv.writer writes the rows [sid, eps, score]."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["sample_id", "eps", "score_after"])
    writer.writerows([sid, eps, s]
                     for sid, row in zip(sample_ids, scores.tolist())
                     for eps, s in zip(eps_grid, row))
    return buf.getvalue().encode("utf-8")


class TestScoreTable:
    @pytest.mark.parametrize("scores,eps_grid", [
        # -0.0 beside 0.0, the smallest subnormal, floats whose repr goes
        # scientific, 0.1 + 0.2, and a row constant from its first column
        ([[0.0, -0.0, -0.0, 0.0, 5e-324, 5e-324],
          [1e16, 1e16, 1e-05, 0.1 + 0.2, 0.30000000000000004, -2.5e-7],
          [-1.5] * 6], (1, 2, 5, 9, 10, 50)),
        ([[0.5], [-0.0], [0.0], [1e16]], (7,)),   # a 1-column grid
        ([[1 / 3, 1 / 3, -1e-05, 0.1 + 0.2]], (1, 2, 3, 4)),  # one row
    ], ids=["edge-values", "one-column", "one-row"])
    def test_bytes_equal_csv_writer(self, tmp_path, scores, eps_grid):
        scores = np.array(scores, dtype=np.float64)
        sample_ids = [3 * i + 11 for i in range(len(scores))]
        path = tmp_path / "sub" / "adv.csv"
        pipeline._write_score_table(path, sample_ids, eps_grid, scores)
        assert path.read_bytes() == csv_writer_score_table(
            sample_ids, eps_grid, scores)

    def test_study_tables_equal_csv_writer(self, small_report):
        report, out = small_report
        eps_grid = report.config.eps_grid
        for cell in report.cells:
            path = out / f"rep{cell.rep}" / f"adv_scores_{cell.spec.slug}.csv"
            assert path.read_bytes() == csv_writer_score_table(
                cell.sample_ids, eps_grid, cell.adv_scores)

    def test_streams_one_sample_at_a_time(self, tmp_path, traced_peak):
        # a whole-table row list holds about 23 MiB for this matrix
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(4000, 50))
        scores[:, 20:] = scores[:, 19:20]
        sample_ids = list(range(4000))
        eps_grid = tuple(range(1, 51))
        peak = traced_peak(pipeline._write_score_table, tmp_path / "adv.csv",
                           sample_ids, eps_grid, scores)
        assert peak < 2 * 2**20
        assert (tmp_path / "adv.csv").read_bytes() == csv_writer_score_table(
            sample_ids, eps_grid, scores)


def samples_tables(report, out) -> dict:
    """Each cell's ``samples_<slug>.csv`` rows, keyed by sample id."""
    tables = {}
    for cell in report.cells:
        path = out / f"rep{cell.rep}" / f"samples_{cell.spec.slug}.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            tables[cell.spec.name, cell.rep] = {
                int(r["sample_id"]): r for r in csv.DictReader(fh)}
    return tables


class TestScatter:
    """The pairs the paper plots, read from the tables that hold them:
    per sample from ``samples_<slug>.csv``, per cell from ``summary.csv``."""

    def test_per_sample_mode(self, small_report):
        report, out = small_report
        tables = samples_tables(report, out)
        for cell in report.cells:
            rows = tables[cell.spec.name, cell.rep]
            assert sorted(rows) == sorted(cell.sample_ids)
            defined = [r for r in rows.values() if r["e1_gradient_input"]]
            assert defined
            for r in defined:
                assert 0.0 <= float(r["e1_gradient_input"]) <= 1.0
                assert 0.0 < float(r["robustness"]) <= 1.0

    def test_each_sample_keeps_its_own_values(self, small_report):
        # the samples CSV is written row by row, independently of the
        # evenness/robustness pairing that the correlations make
        report, out = small_report
        samples = samples_tables(report, out)
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

    def test_per_classifier_mode(self, two_rep_report):
        # one summary row per repetition; a classifier's point is the mean
        # of its rows' evenness average and security-curve area
        report, out = two_rep_report
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["rep"], r["classifier"]) for r in rows] == [
            (str(c.rep), c.spec.name) for c in report.cells]
        for name in ("svm", "sec-svm"):
            cells = report.ok_cells(name)
            pairs = [(float(r["avg_e2_integrated_gradients"]),
                      float(r["mean_dr_under_attack"]))
                     for r in rows if r["classifier"] == name]
            assert pairs == [(c.evenness["integrated_gradients"].averaged_e2,
                              c.curve.area()) for c in cells]
            assert len(pairs) == 2
            for e, area in pairs:
                assert 0.0 <= e <= 1.0 and 0.0 <= area <= 1.0


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

    @pytest.mark.parametrize("entry", [
        "svmx", {"preset": "svmx", "name": "a", "kind": "linear"}])
    def test_unknown_preset_fails_by_name(self, entry):
        # a misspelt preset must not fall back to a plain spec
        doc = {**small_config().to_dict(), "classifiers": [entry]}
        with pytest.raises(ValueError, match="unknown preset 'svmx'.*sec-svm"):
            ExperimentConfig.from_dict(doc)

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
            small_config(classifiers=(PRESETS["svm"], PRESETS["svm"]))

    def test_colliding_file_slugs_rejected(self):
        # "SVM" and "svm" would both write rep0/roc_svm.csv
        upper = replace(PRESETS["svm"], name="SVM")
        with pytest.raises(ValueError, match="slugs.*'svm', 'svm'"):
            small_config(classifiers=(PRESETS["svm"], upper))
        with pytest.raises(ValueError, match="'!!' has no file slug"):
            ClassifierSpec("!!", "linear")

    @pytest.mark.parametrize("spec,field", [
        (dict(kind="linear", reg=-1.0), "reg"),
        (dict(kind="linear", reg=math.nan), "reg"),
        (dict(kind="linear", learning_rate=math.nan), "learning_rate"),
        (dict(kind="linear", loss="hinj"), "loss"),
        (dict(kind="secsvm", weight_bound=-0.5), "weight_bound"),
        (dict(kind="linear", weight_bound=math.nan), "weight_bound"),
        (dict(kind="secsvm", loss="logistic"), "loss"),
        (dict(kind="rbf", loss="squared"), "loss"),
        (dict(kind="rbf", gamma=0.0), "gamma"),
        (dict(kind="rbf", gamma=math.nan), "gamma"),
        (dict(kind="rbf", gamma=math.inf), "gamma"),
        (dict(kind="linear", reg=math.inf), "reg"),
        (dict(kind="linear", learning_rate=math.inf), "learning_rate"),
        (dict(kind="rbf", reg=math.inf), "reg")])
    def test_bad_spec_fails_at_construction(self, spec, field):
        # each used to pass here and fail inside its cell or be ignored
        with pytest.raises(ValueError, match=field):
            ClassifierSpec("bad", **spec)

    @pytest.mark.parametrize("section,extra", [
        ("attack", {"max_iter": 5}), ("attack", {"eta": 0.05}),
        ("dataset", {"pth": "data.jsonl"})])
    def test_unknown_section_key_fails_fast(self, section, extra):
        # a misspelt key used to be ignored, so the run took the default
        doc = small_config().to_dict()
        doc[section] = {**doc[section], **extra}
        with pytest.raises(ValueError, match=f"unknown {section} key.*"
                                             f"{next(iter(extra))}"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["repetition", "curve_envelopes",
                                     "evenness_include_benign", "attack_tol",
                                     "methods", "split_fraction"])
    def test_unknown_top_level_key_fails_by_name(self, key):
        # attack settings belong in the attack section, so attack_* is not
        # a top-level key either
        doc = {**small_config().to_dict(), key: 2}
        with pytest.raises(ValueError, match=f"unknown config key.*{key}.*"
                                             "expected some of.*repetitions"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("grid,message", [
        ({"start": 1, "stop": 50, "step": 5}, r"unknown eps_grid key.*'step'"),
        ({"start": 1}, r"missing eps_grid key.*'stop'"),
        ({"stop": 3}, r"missing eps_grid key.*'start'")])
    def test_eps_grid_object_keys_checked(self, grid, message):
        # "step" used to be dropped silently, a missing key a bare KeyError
        doc = {**small_config().to_dict(), "eps_grid": grid}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(doc)

    def test_attack_section_keys_are_read(self):
        doc = small_config().to_dict()
        doc["attack"] = {"max_iters": 5}
        assert ExperimentConfig.from_dict(doc).attack_max_iters == 5
        for key in ("tol", "method"):
            doc["attack"] = {"max_iters": 5, key: 1}
            with pytest.raises(ValueError,
                               match=f"unknown attack key.*'{key}'"):
                ExperimentConfig.from_dict(doc)

    def test_robust_loss_follows_training_loss(self):
        assert PRESETS["logistic"].effective_robust_loss() == "logistic"
        for name in ("svm", "sec-svm", "svm-rbf", "ridge"):
            assert PRESETS[name].effective_robust_loss() == "hinge"

    def test_classifier_robust_loss_rejected(self):
        doc = small_config().to_dict()
        doc["classifiers"][0]["robust_loss"] = "logistic"
        with pytest.raises(TypeError, match="robust_loss"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("setting", [{"evenness_m": 1}, {"ig_p": 0},
                                         {"n_attack_samples": 0},
                                         {"fpr": 1.5}, {"fpr": -0.5},
                                         {"attack_max_iters": 0},
                                         {"eps_grid": (2, 2, 3)},
                                         {"eps_grid": (1.0, 2.0)},
                                         {"repetitions": True},
                                         {"seed": np.int64(3)}])
    def test_study_settings_fail_fast(self, setting):
        # each would otherwise fail late, after training and attacking, or
        # run another grid than the one asked for
        with pytest.raises(ValueError, match=next(iter(setting))):
            small_config(**setting)


    @pytest.mark.parametrize("setting,field", [
        ({"eps_grid": [1, 2.5]}, "eps_grid budget"),
        ({"eps_grid": ["1", "3"]}, "eps_grid budget"),
        ({"eps_grid": [True, 2]}, "eps_grid budget"),
        ({"eps_grid": {"start": 1.9, "stop": 3.7}}, "eps_grid start"),
        ({"eps_grid": {"start": "1", "stop": "3"}}, "eps_grid start"),
        ({"eps_grid": {"start": 1, "stop": True}}, "eps_grid stop"),
        ({"repetitions": 1.5}, "repetitions"),
        ({"seed": 1.5}, "seed"),
        ({"n_attack_samples": 2.5}, "n_attack_samples"),
        ({"ig_p": "40"}, "ig_p"),
        ({"evenness_m": True}, "evenness_m"),
        ({"attack": {"max_iters": 80.0}}, "attack_max_iters"),
        ({"classifiers": [{"preset": "svm", "epochs": 2.5}]}, "epochs"),
        ({"classifiers": [{"preset": "svm", "epochs": True}]}, "epochs"),
        ({"classifiers": [{"name": "c", "kind": "linear", "epochs": "3"}]},
         "epochs"),
        ({"dataset": {"synthetic": {**vars(SMALL_SYNTH), "d": 40.5}}}, "d"),
        ({"dataset": {"synthetic": {**vars(SMALL_SYNTH), "seed": 1.5}}},
         "seed"),
        ({"dataset": {"synthetic": {**vars(SMALL_SYNTH), "n_benign": "30"}}},
         "n_benign")])
    def test_non_integer_counts_and_budgets_rejected(self, setting, field):
        # a budget used to be truncated ([1, 2.5] ran (1, 2)), a string cast,
        # and a fractional count to fail deep in the run: epochs=2.5 in
        # every cell's training, d=40.5 inside generate_synthetic
        doc = {**small_config().to_dict(), **setting}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig.from_dict(doc)


class TestGridCV:
    def test_picks_a_grid_value_and_prefers_regularized_ties(self):
        ds = generate_synthetic(SMALL_SYNTH)
        spec = ClassifierSpec("svm", "linear", loss="hinge", epochs=4)
        best, table = grid_cv(ds, spec, [0.1, 1.0], seed=0)
        assert best in (0.1, 1.0)
        assert len(table) == 2
        rates = dict(table)
        if abs(rates[0.1] - rates[1.0]) <= 0.01:
            assert best == 0.1  # smaller C = more regularized
