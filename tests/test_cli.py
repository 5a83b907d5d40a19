import csv
import hashlib
import json

import numpy as np
import pytest

from evadelab.attack import NOT_EVADABLE, epsilon_min
from evadelab.cli import main
from evadelab.evenness import evenness_report
from evadelab.featurespace import (SyntheticConfig, generate_synthetic,
                                   load_dataset, save_dataset, split)
from evadelab.models import (TrainConfig, load_model, save_model,
                             train_linear, train_rbf_svm)
from evadelab.pipeline import _attribution

SYNTH = dict(d=60, n_benign=200, n_malware=200, n_strong=10,
             strong_rate_gap=0.6, weak_rate_gap=0.05, base_density=0.08,
             seed=27)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    ds = generate_synthetic(SyntheticConfig(**SYNTH))
    train, test = split(ds, 0.6, 0)
    save_dataset(train, root / "train.txt")
    save_dataset(test, root / "test.txt")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    rc = main(["train", "--data", str(root / "train.txt"),
               "--preset", "svm", "--epochs", "6", "--seed", "1",
               "--d-hint", "60", "--out", str(root / "model.json")])
    assert rc == 0
    return root


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTrain:
    def test_model_written(self, workdir):
        doc = json.loads((workdir / "model.json").read_text())
        assert doc["kind"] == "linear"
        assert doc["format_version"] == 1

    def test_train_from_synthetic_config(self, workdir, capsys):
        rc = main(["train", "--synthetic", str(workdir / "synth.json"),
                   "--kind", "linear", "--loss", "logistic", "--epochs", "4",
                   "--test", str(workdir / "test.txt"),
                   "--out", str(workdir / "logit.json")])
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["auc"] > 0.9

    def test_cv_flag(self, workdir, capsys):
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--preset", "svm", "--epochs", "3",
                   "--cv-reg", "0.1,1.0",
                   "--out", str(workdir / "cv.json")])
        assert rc == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[0])
        assert first["cv_selected_reg"] in (0.1, 1.0)

    @pytest.mark.parametrize("kind", ["secsvm", "rbf"])
    def test_loss_the_trainer_ignores_rejected(self, workdir, capsys, kind):
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--kind", kind, "--loss", "logistic",
                   "--out", str(workdir / "ignored.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "loss 'logistic'" in err["message"]
        assert not (workdir / "ignored.json").exists()


    @pytest.mark.parametrize("flags,field", [
        (["--kind", "linear", "--gamma", "5", "--bound", "0.01"], "gamma"),
        (["--preset", "svm-rbf", "--bound", "0.01"], "weight_bound"),
        (["--preset", "sec-svm", "--gamma", "3"], "gamma")])
    def test_flag_the_kind_does_not_read_rejected(self, workdir, capsys,
                                                  flags, field):
        # each wrote a model that the flag did not change
        out = workdir / "unread_flag.json"
        rc = main(["train", "--data", str(workdir / "train.txt"), *flags,
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"].startswith(f"{field}=")
        assert not out.exists()

    def test_spec_flags_override_the_preset(self, workdir):
        out = workdir / "svm_reg50.json"
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--preset", "svm", "--reg", "50", "--out", str(out)])
        assert rc == 0
        training = json.loads(out.read_text())["training"]
        assert (training["reg"], training["loss"]) == (50.0, "hinge")

    def test_preset_refuses_a_loss_its_trainer_ignores(self, workdir,
                                                       capsys):
        out = workdir / "sec_logistic.json"
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--preset", "sec-svm", "--loss", "logistic",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "loss 'logistic'" in err["message"]
        assert not out.exists()

    def test_preset_alone_trains_as_before(self, workdir):
        out = workdir / "svm_preset.json"
        rc = main(["train", "--data", str(workdir / "train.txt"),
                   "--preset", "svm", "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a552d44ec0a4c90f4760b6724db4a1001489c642b64259da9733f0f25f3cdb6b")

    def test_divergent_training_writes_no_model(self, tmp_path, capsys):
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps(dict(
            d=30, n_benign=60, n_malware=60, n_strong=5, strong_rate_gap=0.5,
            weak_rate_gap=0.1, base_density=0.2, seed=1)))
        out = tmp_path / "diverged.json"
        with np.errstate(over="ignore"):
            rc = main(["train", "--synthetic", str(synth), "--loss", "hinge",
                       "--reg", "0.01", "--epochs", "1",
                       "--learning-rate", "300", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "epoch 1 " in err["message"]
        assert not out.exists()


class TestAttack:
    def test_csv_columns_and_eps_min(self, workdir):
        out = workdir / "attack.csv"
        rc = main(["attack", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"),
                   "--epsilon-grid", "1:5", "--fpr", "0.01",
                   "--method", "greedy", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"sample_id", "eps", "score_before",
                                "score_after", "evaded", "eps_min"}
        for rec in rows:
            assert rec["eps_min"] == "NOT_EVADABLE" or int(rec["eps_min"]) >= 0
            assert float(rec["score_after"]) <= float(rec["score_before"]) + 1e-9

    def test_single_epsilon(self, workdir):
        out = workdir / "attack1.csv"
        rc = main(["attack", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--epsilon-grid", "3",
                   "--threshold", "0.0", "--method", "greedy",
                   "--out", str(out)])
        assert rc == 0
        assert {rec["eps"] for rec in read_csv(out)} == {"3"}


    @pytest.mark.parametrize("grid", ["", "3:1"])
    def test_empty_grid_names_the_flag(self, workdir, capsys, grid):
        rc = main(["attack", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--epsilon-grid",
                   grid, "--out", str(workdir / "attack_empty.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"] == f"--epsilon-grid {grid!r} holds no budget"

    def test_repeated_budget_names_the_flag(self, workdir, capsys):
        # a repeated budget wrote each sample's row twice
        out = workdir / "attack_repeat.csv"
        rc = main(["attack", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--epsilon-grid",
                   "2,0,3,2,0", "--method", "greedy", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == ("--epsilon-grid '2,0,3,2,0' repeats "
                                  "budget(s) [0, 2]")
        assert not out.exists()

    @pytest.mark.parametrize("eps_max", ["0", "-3"])
    def test_eps_max_below_one_rejected(self, workdir, capsys, eps_max):
        out = workdir / f"attack_epsmax{eps_max}.csv"
        rc = main(["attack", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--epsilon-grid", "3",
                   "--eps-max", eps_max, "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "eps_max must be >= 1"
        assert not out.exists()


class TestAttackEpsMin:
    """eps_min read off the grid agrees with the scalar search."""

    @pytest.fixture(scope="class")
    def evadable(self, tmp_path_factory):
        # A small RBF cell where attacks do evade at budgets 1..6.
        root = tmp_path_factory.mktemp("evadable")
        cfg = SyntheticConfig(d=12, n_benign=150, n_malware=150, n_strong=4,
                              strong_rate_gap=0.5, weak_rate_gap=0.15,
                              base_density=0.1, seed=41)
        train, test = split(generate_synthetic(cfg), 0.6, 0)
        save_dataset(test, root / "test.txt")
        save_model(train_rbf_svm(train, 10.0, 0.2,
                                 TrainConfig(epochs=20, seed=0)),
                   root / "rbf.json")
        save_model(train_linear(train, TrainConfig("hinge", 1.0, epochs=8,
                                                   seed=0)),
                   root / "linear.json")
        return root

    @pytest.mark.parametrize("method,model_file", [("pgd", "rbf.json"),
                                                   ("greedy", "linear.json")])
    def test_matches_scalar_epsilon_min(self, evadable, capsys, method,
                                        model_file):
        out = evadable / f"attack_{method}.csv"
        rc = main(["attack", "--model", str(evadable / model_file),
                   "--data", str(evadable / "test.txt"),
                   "--epsilon-grid", "2,5", "--eps-max", "6", "--fpr", "0.05",
                   "--method", method, "--max-iters", "80", "--out", str(out)])
        assert rc == 0
        threshold = json.loads(
            capsys.readouterr().out.strip().splitlines()[-1])["threshold"]
        model = load_model(evadable / model_file)
        ds = load_dataset(evadable / "test.txt", d_hint=model.d)
        rows = read_csv(out)
        assert [int(r["eps"]) for r in rows[:2]] == [2, 5]
        by_sample = {int(r["sample_id"]): r["eps_min"] for r in rows}
        seen = set()
        for sid, text in by_sample.items():
            want = epsilon_min(model, ds.samples[sid], 6, method, 80,
                               threshold)
            want_text = "NOT_EVADABLE" if want == NOT_EVADABLE else str(want)
            assert text == want_text
            seen.add(text)
        assert {"0", "1", "6"} <= seen  # both ends of the search


class TestExplain:
    def test_sparse_relevance_csv(self, workdir):
        out = workdir / "rel.csv"
        rc = main(["explain", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"),
                   "--method", "gradient_input", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert set(rows[0]) == {"sample_id", "feature", "relevance"}
        assert len({rec["sample_id"] for rec in rows}) > 0

    def test_top_report(self, workdir, capsys):
        rc = main(["explain", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"),
                   "--method", "integrated_gradients", "--p", "20",
                   "--top", "3", "--out", str(workdir / "rel2.csv")])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[0]
        report = json.loads(line)
        assert len(report["top"]) == 3
        pcts = [abs(t["percent"]) for t in report["top"]]
        assert pcts == sorted(pcts, reverse=True)

    def test_negative_top_fails(self, workdir, capsys):
        # --top 0 means no report; a negative count is no count at all
        rc = main(["explain", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--top", "-1",
                   "--out", str(workdir / "rel3.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be >= 0" in json.loads(captured.err.strip())["message"]


class TestEvenness:
    def test_metrics_with_footer(self, workdir):
        rel = workdir / "rel.csv"
        if not rel.exists():
            main(["explain", "--model", str(workdir / "model.json"),
                  "--data", str(workdir / "test.txt"),
                  "--method", "gradient_input", "--out", str(rel)])
        out = workdir / "even.csv"
        rc = main(["evenness", "--relevances", str(rel), "--metric", "both",
                   "--m", "20", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[-1]["sample_id"] == "average"
        defined = [r for r in rows[:-1] if r["defined"] == "1"]
        expected = sum(float(r["e1"]) for r in defined) / len(defined)
        assert float(rows[-1]["e1"]) == pytest.approx(expected)


    @pytest.fixture(scope="class")
    def ig_relevances(self, workdir):
        rel = workdir / "rel_ig.csv"
        assert main(["explain", "--model", str(workdir / "model.json"),
                     "--data", str(workdir / "test.txt"),
                     "--method", "integrated_gradients", "--p", "20",
                     "--out", str(rel)]) == 0
        return rel

    def test_footer_equals_pipeline_report_average(self, workdir,
                                                   ig_relevances):
        rel = ig_relevances
        out = workdir / "even_ig.csv"
        assert main(["evenness", "--relevances", str(rel), "--m", "20",
                     "--out", str(out)]) == 0
        model = load_model(workdir / "model.json")
        ds = load_dataset(workdir / "test.txt", d_hint=model.d)
        report = evenness_report(
            _attribution("integrated_gradients", model, ds.samples, 20), 20)
        footer = read_csv(out)[-1]
        assert footer["sample_id"] == "average"
        assert float(footer["e1"]) == report.averaged_e1
        assert float(footer["e2"]) == report.averaged_e2
        assert int(footer["defined"]) == ds.n - report.n_undefined

    def test_metric_selects_one_column(self, workdir, ig_relevances):
        rel = ig_relevances
        out = workdir / "even_e2.csv"
        assert main(["evenness", "--relevances", str(rel), "--metric", "e2",
                     "--m", "20", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert all(r["e1"] == "" for r in rows)
        assert all(r["e2"] != "" for r in rows if r["defined"] != "0")

    def test_missing_column_named_with_the_header(self, tmp_path, capsys):
        rel = tmp_path / "no_id.csv"
        rel.write_text("id,feature,relevance\n0,1,0.5\n")
        out = tmp_path / "even_no_id.csv"
        assert main(["evenness", "--relevances", str(rel),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"] == (
            "column 'sample_id' is not in the header row "
            f"['id', 'feature', 'relevance'] of {rel}")
        assert not out.exists()

    def test_every_sample_undefined(self, tmp_path):
        rel = tmp_path / "zeros.csv"
        rel.write_text("sample_id,feature,relevance\n0,-1,0.0\n1,-1,0.0\n")
        out = tmp_path / "even.csv"
        assert main(["evenness", "--relevances", str(rel),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["sample_id"] for r in rows] == ["0", "1"]
        assert all(r["defined"] == "0" and r["e1"] == r["e2"] == ""
                   for r in rows)


class TestRobustness:
    def test_curve_and_per_sample_files(self, workdir, capsys):
        out = workdir / "rob.csv"
        rc = main(["robustness", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"),
                   "--eps-grid", "1:6", "--loss", "hinge",
                   "--method", "greedy", "--out", str(out)])
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        rows = read_csv(out)
        assert [int(r["eps"]) for r in rows] == [1, 2, 3, 4, 5, 6]
        per_sample = read_csv(workdir / "rob_per_sample.csv")
        assert all(0.0 < float(r["robustness"]) <= 1.0 for r in per_sample)
        assert 0.0 < info["aggregate"] <= 1.0


    def test_zero_budget_rejected_like_the_config(self, workdir, capsys):
        rc = main(["robustness", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--eps-grid", "0:3",
                   "--method", "greedy",
                   "--out", str(workdir / "rob_zero.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "eps_grid must be non-empty positive integers"
        assert not (workdir / "rob_zero.csv").exists()

    def test_repeated_budget_rejected(self, workdir, capsys):
        out = workdir / "rob_repeat.csv"
        rc = main(["robustness", "--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--eps-grid", "2,2",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["message"] == "--eps-grid '2,2' repeats budget(s) [2]"
        assert not out.exists()

    def test_per_sample_ids_are_the_attack_csv_rows(self, workdir):
        # both name each sample by its row in --data, whose benign rows come
        # first, so a malware ordinal would pair the wrong samples
        data = ["--model", str(workdir / "model.json"),
                "--data", str(workdir / "test.txt"), "--threshold", "0.0",
                "--method", "greedy"]
        assert main(["attack", *data, "--epsilon-grid", "1:3",
                     "--out", str(workdir / "ids_attack.csv")]) == 0
        assert main(["robustness", *data, "--eps-grid", "1:3",
                     "--out", str(workdir / "ids_rob.csv")]) == 0
        want = list(dict.fromkeys(
            r["sample_id"] for r in read_csv(workdir / "ids_attack.csv")))
        got = [r["sample_id"]
               for r in read_csv(workdir / "ids_rob_per_sample.csv")]
        assert got == want and want[0] != "0"


@pytest.mark.parametrize("command,grid_flag", [("attack", "--epsilon-grid"),
                                               ("robustness", "--eps-grid")])
@pytest.mark.parametrize("grid,token", [("1_0", "1_0"), ("+3", "+3"),
                                        ("\u0663", "\u0663"),
                                        ("1:1_0", "1_0"), ("-1", "-1")])
def test_grid_takes_ascii_digits_only(workdir, capsys, command, grid_flag,
                                      grid, token):
    # int() took each of these: "1_0" as 10, "+3" and the Arabic-Indic
    # digit three as 3
    out = workdir / f"{command}_digits.csv"
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(workdir / "test.txt"), f"{grid_flag}={grid}",
               "--method", "greedy", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == (f"{grid_flag} budget {token!r} is not ASCII "
                              "digits")
    assert not out.exists()


@pytest.mark.parametrize("command,grid_flag", [("attack", "--epsilon-grid"),
                                               ("robustness", "--eps-grid")])
def test_max_iters_below_one_rejected(workdir, capsys, command, grid_flag):
    out = workdir / f"{command}_iters0.csv"
    rc = main([command, "--model", str(workdir / "model.json"),
               "--data", str(workdir / "test.txt"), grid_flag, "2",
               "--method", "greedy", "--max-iters", "0", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == "max_iters must be >= 1"
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("train", "--reg"), ("train", "--gamma"), ("train", "--bound"),
    ("train", "--learning-rate"), ("train", "--fpr"), ("train", "--cv-reg"),
    ("attack", "--fpr"), ("attack", "--threshold")])
@pytest.mark.parametrize("value", ["1_0", " 5e-1 ", "infinity", "nan",
                                   "\u0665"])
def test_real_flags_take_ascii_decimals_only(workdir, capsys, command, flag,
                                             value):
    # float() took each of these: "1_0" as 10, " 5e-1 " as 0.5, the
    # Arabic-Indic digit five as 5
    out = workdir / f"{command}_decimal.out"
    common = (["--data", str(workdir / "train.txt"), "--preset", "svm"]
              if command == "train" else
              ["--model", str(workdir / "model.json"),
               "--data", str(workdir / "test.txt"), "--method", "greedy"])
    rc = main([command, *common, f"{flag}={value}", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == f"{flag} value {value!r} is not a decimal number"
    assert not out.exists()


def test_real_flags_take_sign_fraction_and_exponent(workdir):
    out = workdir / "decimal.json"
    rc = main(["train", "--data", str(workdir / "train.txt"),
               "--preset", "svm", "--epochs", "1", "--reg=+1E1",
               "--learning-rate=.25", "--out", str(out)])
    assert rc == 0
    training = json.loads(out.read_text())["training"]
    assert (training["reg"], training["eta0"]) == (10.0, 0.25)


def int_flag_argv(workdir, command, out):
    """An ``evadelab <command>`` call that reads each integer flag of
    INT_FLAGS it is given (the last of a repeated flag counts)."""
    (workdir / "relevances.csv").write_text(
        "sample_id,feature,relevance\r\n0,0,0.5\r\n0,1,0.25\r\n")
    (workdir / "xy.csv").write_text(
        "a,b\r\n" + "".join(f"{i},{i * i % 7}\r\n" for i in range(8)))
    common = {
        "train": ["--data", str(workdir / "train.txt"), "--preset", "svm"],
        "attack": ["--model", str(workdir / "model.json"),
                   "--data", str(workdir / "test.txt"), "--method", "greedy"],
        "explain": ["--model", str(workdir / "model.json"),
                    "--data", str(workdir / "test.txt"),
                    "--method", "integrated_gradients"],
        "evenness": ["--relevances", str(workdir / "relevances.csv")],
        "correlate": ["--data", str(workdir / "xy.csv"), "--x", "a",
                      "--y", "b", "--permutation", "5"]}[command]
    return [command, *common, "--out", str(out)]


INT_FLAGS = [("train", "--epochs"), ("train", "--seed"),
             ("train", "--d-hint"), ("attack", "--max-iters"),
             ("attack", "--eps-max"), ("explain", "--p"), ("explain", "--top"),
             ("evenness", "--m"), ("correlate", "--permutation"),
             ("correlate", "--seed")]


@pytest.mark.parametrize("command,flag", INT_FLAGS)
@pytest.mark.parametrize("value", ["1_0", " 3 ", "3.0", "\u0665", "--4"])
def test_int_flags_take_ascii_digits_only(workdir, capsys, command, flag,
                                          value):
    # int() took "1_0" as 10, " 3 " as 3 and the Arabic-Indic digit five as
    # 5, and a value it refused exited with argparse's usage text
    out = workdir / f"{command}_int.out"
    rc = main([*int_flag_argv(workdir, command, out), f"{flag}={value}"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == f"{flag} value {value!r} is not an integer"
    assert not out.exists()


@pytest.mark.parametrize("command,flag", INT_FLAGS)
def test_int_flags_take_a_sign(workdir, capsys, command, flag):
    # "+3" parses as 3; a negative value reaches the setting's own range
    # check, which names it
    out = workdir / f"{command}_sign.out"
    argv = int_flag_argv(workdir, command, out)
    assert main([*argv, f"{flag}=+3"]) == 0
    capsys.readouterr()
    assert main([*argv, f"{flag}=-3"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "is not an integer" not in err["message"]


class TestCorrelate:
    def test_evenness_footer_is_no_sample(self, tmp_path):
        # the "average" row of an evenness file has numeric e1 and e2, and
        # was counted as a seventh sample
        rel = tmp_path / "rel6.csv"
        rows = [[sid, f, (sid + 1) * (f + 1) % 5 + 0.5]
                for sid in range(6) for f in range(sid + 2)]
        with open(rel, "w", newline="") as fh:
            csv.writer(fh).writerows([["sample_id", "feature", "relevance"],
                                      *rows])
        even = tmp_path / "even6.csv"
        assert main(["evenness", "--relevances", str(rel), "--m", "4",
                     "--out", str(even)]) == 0
        assert read_csv(even)[-1]["sample_id"] == "average"
        out = tmp_path / "corr6.csv"
        assert main(["correlate", "--data", str(even), "--x", "e1",
                     "--y", "e2", "--out", str(out)]) == 0
        assert [r["n"] for r in read_csv(out)] == ["6", "6", "6"]

    def test_correlation_csv(self, workdir, tmp_path):
        data = tmp_path / "xy.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b"])
            for i in range(20):
                writer.writerow([i, 2 * i + (i % 3)])
            writer.writerow(["average", ""])  # footer-style junk row skipped
        out = tmp_path / "corr.csv"
        rc = main(["correlate", "--data", str(data), "--x", "a", "--y", "b",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert [r["method"] for r in rows] == ["pearson", "spearman", "kendall"]
        assert all(float(r["coefficient"]) > 0.9 for r in rows)

    def test_missing_column_names_its_flag(self, tmp_path, capsys):
        data = tmp_path / "xy5.csv"
        data.write_text("a,b\n1,2\n2,1\n3,3\n")
        out = tmp_path / "corr5.csv"
        rc = main(["correlate", "--data", str(data), "--x", "a", "--y", "nope",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"] == (
            f"--y 'nope' is not in the header row ['a', 'b'] of {data}")
        assert not out.exists()

    def test_non_finite_value_fails_fast(self, workdir, tmp_path, capsys):
        data = tmp_path / "xy_nan.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b"])
            for i in range(10):
                writer.writerow([i, "nan" if i == 4 else i])
        rc = main(["correlate", "--data", str(data), "--x", "a", "--y", "b",
                   "--out", str(tmp_path / "corr_nan.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and "finite" in err["message"]

    def test_unknown_method_fails_by_name(self, workdir, tmp_path, capsys):
        data = tmp_path / "xy3.csv"
        data.write_text("a,b\n1,2\n2,1\n3,3\n")
        rc = main(["correlate", "--data", str(data), "--x", "a", "--y", "b",
                   "--methods", "pearson,foo",
                   "--out", str(tmp_path / "corr3.csv")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert "'foo'" in err["message"]
        assert "('pearson', 'spearman', 'kendall')" in err["message"]
        assert not (tmp_path / "corr3.csv").exists()

    def test_permutation_flag(self, workdir, tmp_path):
        data = tmp_path / "xy2.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y"])
            for i in range(12):
                writer.writerow([i, i * i])
        out = tmp_path / "corr2.csv"
        rc = main(["correlate", "--data", str(data), "--x", "x", "--y", "y",
                   "--methods", "spearman", "--permutation", "99",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert float(rows[0]["p_value"]) < 0.05

    def test_negative_permutation_count_fails(self, workdir, tmp_path, capsys):
        data = tmp_path / "xy4.csv"
        data.write_text("x,y\n1,1\n2,3\n3,2\n4,4\n")
        out = tmp_path / "corr4.csv"
        rc = main(["correlate", "--data", str(data), "--x", "x", "--y", "y",
                   "--methods", "spearman", "--permutation", "-5",
                   "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "n_perm must be >= 1" in err["message"]
        assert not out.exists()


EXPERIMENT = {
    "dataset": {"synthetic": SYNTH},
    "classifiers": ["svm"],
    "eps_grid": {"start": 1, "stop": 4},
    "repetitions": 1,
    "seed": 2,
    "n_attack_samples": 30,
    "evenness_m": 20,
    "ig_p": 20,
    "attack": {"max_iters": 60},
}


def run_experiment_command(tmp_path, **overrides):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**EXPERIMENT, **overrides}))
    out = tmp_path / "expout"
    return main(["experiment", "--config", str(cfg_path), "--out", str(out)])


class TestExperimentCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        rc = run_experiment_command(tmp_path)
        assert rc == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["cells"] == 1 and info["failed"] == []
        assert (tmp_path / "expout" / "manifest.json").exists()

    @pytest.mark.parametrize("entry,field", [
        ({"preset": "svm", "reg": -1.0}, "reg"),
        ({"preset": "svm", "loss": "hinj"}, "loss"),
        ({"preset": "sec-svm", "weight_bound": -0.5}, "weight_bound")])
    def test_bad_spec_fails_before_any_cell(self, tmp_path, capsys, entry,
                                            field):
        rc = run_experiment_command(tmp_path, classifiers=[entry])
        assert rc == 2
        assert field in json.loads(capsys.readouterr().err.strip())["message"]
        assert not (tmp_path / "expout").exists()

    def test_every_cell_failing_names_each_error(self, tmp_path, capsys):
        # one malware sample goes to training, so the test split has none
        rc = run_experiment_command(
            tmp_path, classifiers=["svm", "sec-svm"],
            dataset={"synthetic": {**SYNTH, "n_malware": 1}})
        assert rc == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        error = "ValueError: ROC needs both classes present"
        assert message == (f"every cell failed: rep 0 svm: {error}; "
                           f"rep 0 sec-svm: {error}")
        assert (tmp_path / "expout" / "manifest.json").exists()


class TestErrorEnvelope:
    def test_missing_file_gives_json_error(self, capsys):
        rc = main(["attack", "--model", "/nonexistent/model.json",
                   "--data", "/nonexistent/data.txt", "--out", "/tmp/x.csv"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err and "message" in err

    def test_bad_dataset_gives_json_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("+9 1:1\n")
        rc = main(["train", "--data", str(bad), "--preset", "svm",
                   "--out", str(tmp_path / "m.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DatasetFormatError"
