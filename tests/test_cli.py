import configparser
import csv
import json
import re
import resource
import shlex
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import child_env, traced_peak
from evtboost import booster, cli, interpret, losses, mixture, spatialcv, synth
from evtboost.errors import ConfigError, DataError
from evtboost.synth import synth_dataset
from evtboost import dataset as D


def run(tmp_path, *argv):
    return cli.main(["--runlog", str(tmp_path / "runs.log"), *argv])


@pytest.fixture
def counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    D.save_csv(synth_dataset("counts", n_years=2, nx=5, ny=5, seed=1), path)
    return str(path)


@pytest.fixture
def sizes_csv(tmp_path):
    path = tmp_path / "sizes.csv"
    D.save_csv(synth_dataset("sizes", n_years=2, nx=5, ny=5, seed=2), path)
    return str(path)


def write_config(tmp_path, data_path, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(f"""
[data]
train = {data_path}

[loss]
kind = dgpd
alpha = 5.0

[train]
n_trees = 5
max_leaves = 4
seed = 3

[cv]
sigma_gp = 1.0
phi = 0.1
range = 1.5
{extra}
""".strip() + "\n", encoding="utf-8")
    return str(path)


class TestTrain:
    def test_writes_model_and_reports(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        out = tmp_path / "model.json"
        assert run(tmp_path, "train", "--config", cfg, "--loss", "dgpd",
                   "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("rounds=5") for l in lines)
        assert any(l.startswith("train_loss=") for l in lines)
        model = booster.load(out)
        assert model.n_rounds == 5

    def test_rerun_is_byte_identical(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(m1)) == 0
        assert run(tmp_path, "train", "--config", cfg, "--out", str(m2)) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_missing_config_is_exit_1(self, tmp_path):
        assert run(tmp_path, "train", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "m.json")) == 1

    def test_unknown_config_key_is_exit_1(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        # inside the one [data] section: a repeated section fails parsing first
        text = Path(cfg).read_text(encoding="utf-8")
        Path(cfg).write_text(text.replace("[data]\n", "[data]\nbogus = 1\n"), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", cfg,
                   "--out", str(tmp_path / "m.json")) == 1
        _one_line(capsys.readouterr().err, "config error: unknown keys in [data]: ['bogus']")

    def test_failed_write_keeps_the_old_model(self, tmp_path, counts_csv):
        """A child whose files may not grow past half the model's size fails
        to write the model (``EFBIG``); the model already at ``--out`` keeps
        its bytes and no ``.tmp`` file is left beside it."""
        cfg = write_config(tmp_path, counts_csv)
        out = tmp_path / "model.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(out)) == 0
        old = out.read_bytes()

        def limit_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (len(old) // 2, len(old) // 2))

        proc = subprocess.run(
            [sys.executable, "-m", "evtboost.cli", "--runlog", str(tmp_path / "runs.log"),
             "train", "--config", cfg, "--out", str(out)],
            env={**child_env(), "PYTHONDONTWRITEBYTECODE": "1"}, preexec_fn=limit_file_size,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert "File too large" in proc.stderr and "Traceback" not in proc.stderr
        assert out.read_bytes() == old
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_domain_violation_is_exit_2(self, tmp_path, counts_csv):
        # gpd on counts data: no burned areas above the threshold
        cfg = write_config(tmp_path, counts_csv)
        assert run(tmp_path, "train", "--config", cfg, "--loss", "gpd",
                   "--out", str(tmp_path / "m.json")) == 2


class TestPredict:
    def test_single_model_with_mean_column(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        run(tmp_path, "train", "--config", cfg, "--out", str(model))
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--out", str(preds)) == 0
        with open(preds) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "year", "month", "raw", "mean"]
        assert len(rows) - 1 == 350

    def test_mixture_manifest_threshold_columns(self, tmp_path, sizes_csv):
        ds = D.load_csv(sizes_csv)
        obs = ~np.isnan(ds.ba)
        X, names = ds.feature_matrix()
        params = booster.TrainParams(n_trees=3, max_leaves=4, seed=0)
        m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                                k_shape=1.2, classifier_params=params,
                                bulk_params=params, tail_params=params,
                                feature_names=names)
        manifest = tmp_path / "mix.json"
        mixture.save(m, manifest)
        thresholds = tmp_path / "thresholds.txt"
        thresholds.write_text("0\n100\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 0
        with open(preds) as fh:
            header = next(csv.reader(fh))
        assert header[:3] == ["cell", "year", "month"]
        assert len(header) == 5  # two threshold columns

    def test_empty_input_gives_header_only(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        run(tmp_path, "train", "--config", cfg, "--out", str(model))
        empty = tmp_path / "empty.csv"
        with open(counts_csv) as fh:
            empty.write_text(fh.readline(), encoding="utf-8")
        preds = tmp_path / "p.csv"
        assert run(tmp_path, "predict", "--model", str(model), "--data", str(empty),
                   "--out", str(preds)) == 0
        assert len(preds.read_text().splitlines()) == 1

    def test_feature_mismatch_is_exit_2(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        run(tmp_path, "train", "--config", cfg, "--out", str(model))
        stripped = tmp_path / "stripped.csv"
        with open(counts_csv) as fh:
            rows = list(csv.reader(fh))
        with open(stripped, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in rows:
                writer.writerow(row[:-1])  # drop covariate x2
        assert run(tmp_path, "predict", "--model", str(model), "--data",
                   str(stripped), "--out", str(tmp_path / "p.csv")) == 2


class TestPredictStream:
    """``predict`` makes each row block's values when the writer asks for
    them, so a failure can come after the first blocks are written."""

    @pytest.mark.parametrize("old", [None, b"cell,year,month,raw,mean\r\n"],
                             ids=["new", "existing"])
    def test_failing_later_block_leaves_no_output(self, tmp_path, counts_csv, monkeypatch,
                                                  old, capsys):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        # a stump sending 2002's rows, the last 175 of 350, to a score whose mean overflows
        doc["trees"].append({"nodes": [
            {"id": 0, "cover": 2.0, "feature": doc["feature_names"].index("year"),
             "threshold": 2001.5, "default_left": True, "left": 1, "right": 2, "gain": 1.0},
            {"id": 1, "cover": 1.0, "weight": 0.0},
            {"id": 2, "cover": 1.0, "weight": -1e6}]})
        model.write_text(json.dumps(doc), encoding="utf-8")
        preds = tmp_path / "p.csv"
        if old is not None:
            preds.write_bytes(old)
        monkeypatch.setattr(D, "_BLOCK_CELLS", 5 * 50)   # three 50-row blocks pass first
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--out", str(preds)) == 3
        _one_line(capsys.readouterr().err, "numerical failure: dGPD mean is not finite")
        if old is None:
            assert not preds.exists()
        else:
            assert preds.read_bytes() == old
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    def test_mixture_predict_makes_no_rows_by_thresholds_array(self, tmp_path):
        """2,800 rows x 150 thresholds: the (n, J) probabilities would take
        3.36 MB; each block's values take about ``_BLOCK_CELLS`` cells."""
        data = tmp_path / "sizes.csv"
        ds = synth_dataset("sizes", n_years=1, nx=20, ny=20, seed=2)
        D.save_csv(ds, data)
        manifest = _mixture_manifest(tmp_path, str(data))
        thresholds = np.geomspace(0.5, 1e5, 150)
        (tmp_path / "t.txt").write_text("\n".join(map(repr, thresholds.tolist())),
                                        encoding="utf-8")
        argv = ("predict", "--model", str(manifest), "--data", str(data),
                "--thresholds", str(tmp_path / "t.txt"), "--out", str(tmp_path / "p.csv"))
        assert run(tmp_path, *argv) == 0   # imports outside the trace
        status, peak = traced_peak(run, tmp_path, *argv)
        assert status == 0 and peak < ds.n_rows * thresholds.size * 8


class TestNonFiniteTokens:
    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["lon", "lat", "cnt", "ba", "x1"])
    def test_exit_2_without_traceback(self, tmp_path, counts_csv, column, token, capsys):
        with open(counts_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = token
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_config(tmp_path, str(bad))
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", cfg, "--out",
                   str(tmp_path / "m.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and ":2:" in err and "Traceback" not in err


class TestOversizedField:
    """A quoted field longer than ``csv``'s field limit (131,072 characters),
    in the header or in a data row, is a data error naming its line."""

    @pytest.mark.parametrize("line", [1, 3])
    def test_exit_2_naming_the_line(self, tmp_path, counts_csv, line, capsys):
        lines = Path(counts_csv).read_text(encoding="utf-8").splitlines(keepends=True)
        head, _, _ = lines[line - 1].rpartition(",")
        lines[line - 1] = f'{head},"{"7" * 200_000}"\n'
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), encoding="utf-8")
        cfg = write_config(tmp_path, str(bad))
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", cfg, "--out",
                   str(tmp_path / "m.json")) == 2
        what = "header" if line == 1 else "row"
        _one_line(capsys.readouterr().err,
                  f"data error: {bad}:{line}: malformed {what} (field larger than field limit")


class TestCommandsWithoutCovariates:
    """``cvfolds`` and ``score`` read no covariate column, so a malformed
    covariate token does not fail them; ``train`` still rejects it."""

    def test_malformed_covariate_token(self, tmp_path, counts_csv, capsys):
        with open(counts_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index("x1")] = "abc"
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        clean_cfg = write_config(tmp_path, counts_csv)
        model, preds = tmp_path / "m.json", tmp_path / "p.csv"
        (tmp_path / "t.txt").write_text("0\n2\n", encoding="utf-8")
        assert run(tmp_path, "train", "--config", clean_cfg, "--loss", "poisson",
                   "--out", str(model)) == 0
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--thresholds", str(tmp_path / "t.txt"), "--out", str(preds)) == 0
        outputs = {}
        for name, data in (("clean", counts_csv), ("bad", str(bad))):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text(Path(clean_cfg).read_text().replace(counts_csv, data))
            folds = tmp_path / f"{name}_folds.csv"
            capsys.readouterr()
            assert run(tmp_path, "cvfolds", "--config", str(cfg), "--out", str(folds)) == 0
            assert run(tmp_path, "score", "--pred", str(preds), "--data", data,
                       "--response", "cnt") == 0
            outputs[name] = capsys.readouterr(), folds.read_bytes()
        assert outputs["bad"][0].err == ""
        assert outputs["bad"][0].out.replace("bad_folds", "clean_folds") == \
            outputs["clean"][0].out
        assert outputs["bad"][1] == outputs["clean"][1]
        assert run(tmp_path, "train", "--config", str(tmp_path / "bad.ini"),
                   "--out", str(model)) == 2
        assert "malformed row (could not convert string 'abc'" in capsys.readouterr().err


class TestKeyTokens:
    @pytest.mark.parametrize("column, token", [("year", "99999999999999999999"),
                                               ("month", "3.5"), ("year", "1993.5")])
    def test_not_an_integer_is_exit_2(self, tmp_path, counts_csv, column, token, capsys):
        with open(counts_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][rows[0].index(column)] = token
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        cfg = write_config(tmp_path, str(bad))
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", cfg, "--out",
                   str(tmp_path / "m.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"bad.csv:2: malformed row ({column}" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestLossParameters:
    @pytest.mark.parametrize("key, value", [("alpha", "nan"), ("alpha", "inf"),
                                            ("xi", "nan"), ("k_shape", "inf"),
                                            ("u", "inf"), ("u", "nan")])
    def test_non_finite_in_config_is_exit_1(self, tmp_path, counts_csv, key, value, capsys):
        cfg = write_config(tmp_path, counts_csv, extra=f"\n[loss]\n{key} = {value}\n")
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", cfg, "--out",
                   str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err


MALFORMED_MANIFEST = {
    "threshold_missing": lambda doc: doc.pop("threshold"),
    "threshold_not_numeric": lambda doc: doc.update(threshold="abc"),
    "threshold_not_finite": lambda doc: doc.update(threshold=float("nan")),
    "threshold_beyond_float": lambda doc: doc.update(threshold=10 ** 400),
    "component_not_string": lambda doc: doc.update(tail=7),
    "xi_disagrees_with_tail": lambda doc: doc.update(xi=0.9),
}


class TestMalformedManifest:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFEST))
    def test_exit_2_without_traceback(self, tmp_path, sizes_csv, case, capsys):
        ds = D.load_csv(sizes_csv)
        obs = ~np.isnan(ds.ba)
        X, names = ds.feature_matrix()
        params = booster.TrainParams(n_trees=1, max_leaves=2, seed=0)
        m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                                k_shape=1.2, classifier_params=params,
                                bulk_params=params, tail_params=params,
                                feature_names=names)
        manifest = tmp_path / "mix.json"
        mixture.save(m, manifest)
        doc = json.loads(manifest.read_text())
        MALFORMED_MANIFEST[case](doc)
        manifest.write_text(json.dumps(doc), encoding="utf-8")  # NaN literal allowed
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
                   "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err

    def test_component_parameters_that_agree_are_accepted(self, tmp_path, sizes_csv):
        manifest = _mixture_manifest(tmp_path, sizes_csv)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "xi": 0.8, "kappa": 0.5, "k_shape": 1.0}),
                            encoding="utf-8")
        assert run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
                   "--out", str(tmp_path / "p.csv")) == 0


def _first_branch(nodes, above=-1):
    return next(n for n in nodes if "left" in n and n["id"] > above)


def _first_leaf(nodes):
    return next(n for n in nodes if "weight" in n)


def _set(key, value, pick=_first_branch):
    def edit(doc):
        pick(doc["trees"][0]["nodes"])[key] = value
    return edit


def _drop(key, pick=_first_branch):
    def edit(doc):
        del pick(doc["trees"][0]["nodes"])[key]
    return edit


def _back_edge(doc):
    # a branch below the root pointing back at the root: a cycle
    _first_branch(doc["trees"][0]["nodes"], above=0)["right"] = 0


MALFORMED = {
    "child_out_of_range": _set("left", 10_000),
    "child_not_int": _set("right", 2.5),
    "branch_lacks_child": _drop("right"),
    "feature_too_large": lambda doc: _set("feature", len(doc["feature_names"]))(doc),
    "feature_negative": _set("feature", -1),
    "threshold_missing": _drop("threshold"),
    "threshold_not_finite": _set("threshold", float("inf")),
    "threshold_beyond_float": _set("threshold", 10 ** 400),
    "weight_missing": _drop("weight", _first_leaf),
    "weight_not_finite": _set("weight", float("nan"), _first_leaf),
    "default_left_not_bool": _set("default_left", "yes"),
    "gain_nan": _set("gain", float("nan")),
    "gain_not_finite": _set("gain", float("-inf")),
    "gain_beyond_float": _set("gain", 10 ** 400),
    "branch_cover_not_finite": _set("cover", float("inf")),
    "leaf_cover_nan": _set("cover", float("nan"), _first_leaf),
    "leaf_cover_beyond_float": _set("cover", -10 ** 400, _first_leaf),
    "base_score_not_finite": lambda doc: doc.update(base_score=float("nan")),
    "loss_alpha_nan": lambda doc: doc["loss"].update(alpha=float("nan")),
    "loss_alpha_inf": lambda doc: doc["loss"].update(alpha=float("inf")),
    "feature_name_not_string": lambda doc: doc["feature_names"].__setitem__(0, ["lon"]),
    "loss_without_kind": lambda doc: doc["loss"].pop("kind"),
    "loss_not_object": lambda doc: doc.update(loss=5),
    "loss_alpha_string": lambda doc: doc["loss"].update(alpha="x"),
    "loss_alpha_null": lambda doc: doc["loss"].update(alpha=None),
    "loss_alpha_beyond_float": lambda doc: doc["loss"].update(alpha=10 ** 400),
}

class TestMalformedModel:
    @pytest.fixture
    def model_doc(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        return json.loads(model.read_text())

    def _write(self, tmp_path, doc, edit):
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity literals allowed
        return path

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exit_2_without_traceback(self, tmp_path, counts_csv, model_doc, case, capsys):
        bad = self._write(tmp_path, model_doc, MALFORMED[case])
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(bad), "--data", counts_csv,
                   "--out", str(tmp_path / "p.csv")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "Traceback" not in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit", [_set("left", 0), _back_edge],
                             ids=["self_loop", "back_edge"])
    def test_cycle_is_exit_2_not_a_hang(self, tmp_path, counts_csv, model_doc, edit):
        bad = self._write(tmp_path, model_doc, edit)
        proc = subprocess.run(
            [sys.executable, "-m", "evtboost.cli", "--runlog", str(tmp_path / "runs.log"),
             "predict", "--model", str(bad), "--data", counts_csv,
             "--out", str(tmp_path / "p.csv")],
            env=child_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "child id" in proc.stderr and "Traceback" not in proc.stderr


def _write_probabilities(path, ds, p=0.5):
    """A prediction export with one column ``p_le_0.0`` holding ``p`` for
    every row of ``ds``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "year", "month", "p_le_0.0"])
        writer.writerows(zip(ds.cell_index.tolist(), ds.year.tolist(), ds.month.tolist(),
                             [p] * ds.n_rows))


class TestNonUtf8Input:
    @pytest.mark.parametrize("case", ["data_header", "data_row", "folds", "predict_model",
                                      "importance_model", "thresholds"])
    def test_exit_2_naming_the_file(self, tmp_path, case, capsys):
        data = tmp_path / "data.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=4, ny=4, seed=1, mask_rate=0.2),
                   data)
        cfg = write_config(tmp_path, str(data))
        model, folds = tmp_path / "m.json", tmp_path / "folds.csv"
        thresholds = tmp_path / "t.txt"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        assert run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2",
                   "--out", str(folds)) == 0
        thresholds.write_text("0\n", encoding="utf-8")
        out = str(tmp_path / "out.csv")
        spoiled, at, argv = {
            "data_header": (data, 0, ["train", "--config", cfg, "--out", out]),
            "data_row": (data, -2, ["train", "--config", cfg, "--out", out]),
            "folds": (folds, -2, ["cv", "--config", cfg, "--folds", str(folds),
                                  "--checkpoints", "1", "--out", out]),
            "predict_model": (model, 1, ["predict", "--model", str(model),
                                         "--data", str(data), "--out", out]),
            "importance_model": (model, 1, ["importance", "--model", str(model),
                                            "--out", out]),
            "thresholds": (thresholds, 0, ["predict", "--model", str(model), "--data", str(data),
                                           "--thresholds", str(thresholds), "--out", out]),
        }[case]
        text = spoiled.read_bytes()
        spoiled.write_bytes(text[:at] + b"\xff" + text[at:])
        capsys.readouterr()
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {spoiled}: not UTF-8 text")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestDataFlag:
    """``--data`` names the file ``predict`` and ``score`` read, whatever
    the ``[data] train`` of their ``--config``."""

    def test_config_without_its_data_file(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        cfg = write_config(tmp_path, str(tmp_path / "absent.csv"))
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--out", str(plain)) == 0
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--config", cfg, "--out", str(configured)) == 0
        assert configured.read_bytes() == plain.read_bytes()

        pred = tmp_path / "pred.csv"
        _write_probabilities(pred, D.load_csv(counts_csv))
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(pred), "--data", counts_csv,
                   "--config", cfg, "--response", "cnt") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("score=") and captured.err == ""

    def test_pdp_reads_the_configured_schema(self, tmp_path, counts_csv, capsys):
        """``pdp --config`` reads ``--data`` with the config's schema, as
        ``predict`` does: a copy whose cnt column is named ``fires`` gives
        the bytes the original gives without a config."""
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", write_config(tmp_path, counts_csv),
                   "--out", str(model)) == 0
        renamed, cfg = tmp_path / "renamed.csv", tmp_path / "fires.ini"
        header, rest = Path(counts_csv).read_text(encoding="utf-8").split("\n", 1)
        renamed.write_text(header.replace("cnt", "fires") + "\n" + rest, encoding="utf-8")
        cfg.write_text("[schema]\ncnt = fires\n", encoding="utf-8")
        pdp = ["pdp", "--model", str(model), "--features", "x1", "--points", "5"]
        assert run(tmp_path, *pdp, "--data", counts_csv, "--out", str(tmp_path / "a.csv")) == 0
        assert run(tmp_path, *pdp, "--data", str(renamed), "--config", str(cfg),
                   "--out", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
        capsys.readouterr()
        assert run(tmp_path, *pdp, "--data", str(renamed), "--out", str(tmp_path / "c.csv")) == 2
        _one_line(capsys.readouterr().err, "data error:")

    def test_missing_data_file_is_exit_1(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(model), "--config", cfg,
                   "--data", str(tmp_path / "absent.csv"), "--out",
                   str(tmp_path / "p.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data file") and "absent.csv" in err


class TestCvFolds:
    def test_default_five_folds_and_determinism(self, tmp_path, counts_csv, capsys):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=2, nx=5, ny=5, seed=1,
                                 mask_rate=0.2), masked)
        cfg = write_config(tmp_path, str(masked))
        f1, f2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        assert run(tmp_path, "cvfolds", "--config", cfg, "--seed", "4",
                   "--out", str(f1)) == 0
        assert "n_folds=5" in capsys.readouterr().out
        run(tmp_path, "cvfolds", "--config", cfg, "--seed", "4", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("given, unset", [("beta0_cnt", "beta0_ba"),
                                              ("beta0_ba", "beta0_cnt")])
    def test_each_unset_intercept_is_calibrated(self, tmp_path, given, unset):
        data = tmp_path / "sizes.csv"
        D.save_csv(synth_dataset("sizes", n_years=2, nx=6, ny=6, seed=1, mask_rate=0.1), data)

        def config(name, body):
            (tmp_path / name).write_text(f"[data]\ntrain = {data}\n\n[cv]\n{body}",
                                         encoding="utf-8")
            return str(tmp_path / name)

        ds = cli.RunConfig(config("none.ini", "")).load_dataset()
        calibrated = getattr(spatialcv.calibrate_intercepts(ds, spatialcv.MaskModelParams()),
                             unset)
        one = config("one.ini", f"{given} = -2.0\n")
        both = config("both.ini", f"{given} = -2.0\n{unset} = {calibrated!r}\n")
        params = cli.RunConfig(one).mask_params(ds)
        assert (getattr(params, given), getattr(params, unset)) == (-2.0, calibrated)
        for cfg in (one, both):
            assert run(tmp_path, "cvfolds", "--config", cfg, "--seed", "4",
                       "--out", cfg + ".folds") == 0
        assert Path(one + ".folds").read_bytes() == Path(both + ".folds").read_bytes()

    def test_no_collision_with_premasked(self, tmp_path):
        masked = tmp_path / "masked.csv"
        ds = synth_dataset("counts", n_years=1, nx=5, ny=5, seed=6, mask_rate=0.3)
        D.save_csv(ds, masked)
        cfg = write_config(tmp_path, str(masked))
        out = tmp_path / "folds.csv"
        run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "3", "--seed", "1",
            "--out", str(out))
        ds2 = D.load_csv(str(masked))
        folds = spatialcv.load_folds(out, ds2)
        masked_cnt = np.isnan(ds2.cnt)
        for f in range(folds.n_folds):
            assert not (folds.masks[f, 0] & masked_cnt).any()


class TestScore:
    def test_perfect_predictions_score_zero(self, tmp_path, sizes_csv, capsys):
        ds = D.load_csv(sizes_csv)
        thresholds = np.array([0.0, 100.0, 1000.0])
        pred = tmp_path / "pred.csv"
        with open(pred, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "year", "month"]
                            + [f"p_le_{float(t)!r}" for t in thresholds])
            for i in range(ds.n_rows):
                ba = ds.ba[i] if not np.isnan(ds.ba[i]) else 0.0
                probs = (ba <= thresholds).astype(float)
                writer.writerow([ds.cell_index[i], ds.year[i],
                                 ds.month[i]] + [repr(float(p)) for p in probs])
        assert run(tmp_path, "score", "--pred", str(pred), "--data", sizes_csv,
                   "--response", "ba") == 0
        assert "score=0.0" in capsys.readouterr().out


class TestScoreAlignment:
    THRESHOLDS = [0.0, 100.0, 1000.0]

    def _rows(self, ds):
        """Perfect predictions, one row per data row in data order."""
        rows = []
        for i in range(ds.n_rows):
            ba = ds.ba[i] if not np.isnan(ds.ba[i]) else 0.0
            rows.append([int(ds.cell_index[i]), int(ds.year[i]), int(ds.month[i])]
                        + [repr(float(ba <= t)) for t in self.THRESHOLDS])
        return rows

    def _score(self, tmp_path, sizes_csv, rows):
        pred = tmp_path / "pred.csv"
        with open(pred, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cell", "year", "month"]
                            + [f"p_le_{float(t)!r}" for t in self.THRESHOLDS])
            writer.writerows(rows)
        return run(tmp_path, "score", "--pred", str(pred), "--data", sizes_csv,
                   "--response", "ba")

    def _edit_and_fail(self, tmp_path, sizes_csv, capsys, edit, line, text):
        rows = self._rows(D.load_csv(sizes_csv))
        edit(rows)
        capsys.readouterr()
        assert self._score(tmp_path, sizes_csv, rows) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"pred.csv:{line}: " in err and text in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_keys_without_data_rows_rejected(self, tmp_path, sizes_csv, capsys):
        def edit(rows):
            for r in rows:
                r[:2] = [999, 1850]
        self._edit_and_fail(tmp_path, sizes_csv, capsys, edit, 2, "no data row")

    def test_repeated_key_rejected(self, tmp_path, sizes_csv, capsys):
        def edit(rows):
            rows[4][:3] = rows[1][:3]
        self._edit_and_fail(tmp_path, sizes_csv, capsys, edit, 6, "repeated key")

    @pytest.mark.parametrize("value", ["nan", "-inf", "1.5", "-0.25"])
    def test_bad_probability_rejected(self, tmp_path, sizes_csv, capsys, value):
        def edit(rows):
            rows[2][4] = value
        self._edit_and_fail(tmp_path, sizes_csv, capsys, edit, 4, "")

    def test_rows_in_another_order_score_the_same(self, tmp_path, sizes_csv, capsys):
        rows = self._rows(D.load_csv(sizes_csv))
        for r in rows:   # a slightly wrong forecast, so the score is not 0
            r[3] = "0.75"
        capsys.readouterr()
        assert self._score(tmp_path, sizes_csv, rows) == 0
        in_order = capsys.readouterr().out
        rng = np.random.default_rng(3)
        assert self._score(tmp_path, sizes_csv, [rows[i] for i in
                                                 rng.permutation(len(rows))]) == 0
        shuffled = capsys.readouterr().out
        assert float(shuffled.split("=")[1]) == pytest.approx(float(in_order.split("=")[1]),
                                                              rel=1e-12)
        assert float(in_order.split("=")[1]) > 0


class TestPdpImportance:
    def test_importance_single_split(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        cfg_obj = cli.RunConfig(cfg)
        ds = cfg_obj.load_dataset()
        rows = ~np.isnan(ds.cnt)
        X, names = ds.feature_matrix()
        m = booster.fit(X[rows], ds.cnt[rows], losses.LossSpec(kind="dgpd", alpha=5.0),
                        booster.TrainParams(n_trees=1, max_leaves=2, seed=0),
                        feature_names=names)
        model = tmp_path / "stump.json"
        booster.save(m, model)
        out = tmp_path / "imp.csv"
        assert run(tmp_path, "importance", "--model", str(model),
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "proportion"]
        assert len(rows) == 2
        assert float(rows[1][1]) == 1.0

    @pytest.fixture
    def model_doc(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        assert run(tmp_path, "train", "--config", cfg, "--out", str(tmp_path / "m.json")) == 0
        return json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))

    def _importance(self, tmp_path, doc, gain, capsys):
        """Exit status and stderr of ``importance`` on ``doc`` with every
        branch's gain set to ``gain``."""
        for tree in doc["trees"]:
            for node in tree["nodes"]:
                if "left" in node:
                    node["gain"] = gain
        model = tmp_path / "edited.json"
        model.write_text(json.dumps(doc), encoding="utf-8")   # NaN/Infinity literals allowed
        capsys.readouterr()
        status = run(tmp_path, "importance", "--model", str(model),
                     "--out", str(tmp_path / "imp.csv"))
        return status, capsys.readouterr().err

    def test_overflowing_gain_total_is_exit_3(self, tmp_path, model_doc, capsys):
        status, err = self._importance(tmp_path, model_doc, 1e308, capsys)
        assert status == 3
        _one_line(err, "numerical failure: the gain total over the model's splits is inf")
        assert not (tmp_path / "imp.csv").exists()

    def test_non_positive_total_lists_features_in_index_order(self, tmp_path, model_doc, capsys):
        split_on = {node["feature"] for tree in model_doc["trees"] for node in tree["nodes"]
                    if "left" in node}
        status, err = self._importance(tmp_path, model_doc, -1, capsys)
        assert status == 0 and err == ""
        with open(tmp_path / "imp.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [f for f, _ in rows] == [model_doc["feature_names"][j] for j in sorted(split_on)]
        assert {float(p) for _, p in rows} == {1 / len(split_on)}

    def test_feature_names_quoted_as_csv_quotes_them(self, tmp_path, counts_csv):
        """A covariate named ``a,"b"`` is written as the csv module writes it."""
        ds = D.load_csv(counts_csv)
        signal = np.nan_to_num(np.log1p(ds.cnt))   # so a split takes the renamed covariate
        data = tmp_path / "named.csv"
        D.save_csv(replace(ds, covariates=np.column_stack([signal, ds.covariates]),
                           covariate_names=['a,"b"'] + ds.covariate_names), data)
        cfg, model, out = write_config(tmp_path, data), tmp_path / "m.json", tmp_path / "imp.csv"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        assert run(tmp_path, "importance", "--model", str(model), "--out", str(out)) == 0
        imp = interpret.importance(booster.load(model))
        assert 'a,"b"' in imp
        with open(tmp_path / "expected.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "proportion"])
            writer.writerows(imp.items())
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_pdp_export(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        run(tmp_path, "train", "--config", cfg, "--out", str(model))
        out = tmp_path / "pdp.csv"
        assert run(tmp_path, "pdp", "--model", str(model), "--data", counts_csv,
                   "--features", "x1", "--points", "5", "--transform", "mean",
                   "--out", str(out)) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "estimate", "lo", "hi"]
        assert len(rows) > 2

    def test_pdp_on_an_all_missing_feature_is_exit_2(self, tmp_path, capsys):
        ds = synth_dataset("counts", n_years=2, nx=5, ny=5, seed=1)
        ds.covariates[:, ds.covariate_names.index("x1")] = np.nan
        data = tmp_path / "no_x1.csv"
        D.save_csv(ds, data)
        model, out = tmp_path / "m.json", tmp_path / "pdp.csv"
        assert run(tmp_path, "train", "--config", write_config(tmp_path, data),
                   "--loss", "poisson", "--out", str(model)) == 0
        capsys.readouterr()
        assert run(tmp_path, "pdp", "--model", str(model), "--data", str(data),
                   "--features", "x1", "--out", str(out)) == 2
        _one_line(capsys.readouterr().err,
                  f"data error: feature 'x1' has no observed value in {data}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pdp", "importance"])
    def test_mixture_manifest_is_exit_2(self, tmp_path, sizes_csv, command, capsys):
        manifest = _mixture_manifest(tmp_path, sizes_csv)
        argv = ["--data", sizes_csv, "--features", "x1"] if command == "pdp" else []
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(tmp_path, command, "--model", str(manifest), *argv,
                   "--out", str(out)) == 2
        _one_line(capsys.readouterr().err,
                  f"data error: {command} needs a single model, got the mixture {manifest}")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--n-sub", "0"), ("--points", "0"),
                                             ("--n-sub", "-3")])
    def test_pdp_sizes_below_one_are_exit_1(self, tmp_path, counts_csv, flag, value, capsys):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        run(tmp_path, "train", "--config", cfg, "--out", str(model))
        capsys.readouterr()
        assert run(tmp_path, "pdp", "--model", str(model), "--data", counts_csv,
                   "--features", "x1", flag, value, "--out", str(tmp_path / "pdp.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--n-sub" in err and "Traceback" not in err


class TestTune:
    def test_honors_max_iters_and_writes_log(self, tmp_path, counts_csv):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=5, ny=5, seed=1,
                                 mask_rate=0.2), masked)
        cfg = write_config(tmp_path, str(masked),
                           extra="\n[tune]\nlearning_rate = 0.05, 0.3\n")
        folds = tmp_path / "folds.csv"
        run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2", "--seed", "2",
            "--out", str(folds))
        log = tmp_path / "tuning.csv"
        assert run(tmp_path, "tune", "--config", cfg, "--folds", str(folds),
                   "--max-iters", "3", "--seed", "5", "--out", str(log)) == 0
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "learning_rate", "score"]
        assert len(rows) == 4  # header + 3 iterations


class TestTuneBounds:
    @pytest.mark.parametrize("bound", ["0.1, abc", "0.1, inf", "nan, 0.3", "0.1",
                                       "0.1, 0.2, 0.3", "0.3, 0.02", "0.1, 0.1"])
    def test_exit_1_naming_the_key(self, tmp_path, bound, capsys):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1,
                                 mask_rate=0.2), masked)
        cfg = write_config(tmp_path, str(masked), extra=f"\n[tune]\nlearning_rate = {bound}\n")
        folds = tmp_path / "folds.csv"
        assert run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2",
                   "--out", str(folds)) == 0
        capsys.readouterr()
        assert run(tmp_path, "tune", "--config", cfg, "--folds", str(folds),
                   "--max-iters", "2", "--out", str(tmp_path / "tune.csv")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [tune] learning_rate must be two finite numbers")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestPipelineRoundTrip:
    def test_cli_matches_in_process_scores(self, tmp_path, sizes_csv, capsys):
        from evtboost import evaluate

        ds = D.load_csv(sizes_csv)
        obs = ~np.isnan(ds.ba)
        X, names = ds.feature_matrix()
        params = booster.TrainParams(n_trees=4, max_leaves=4, seed=0)
        m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                                k_shape=1.2, classifier_params=params,
                                bulk_params=params, tail_params=params,
                                feature_names=names)
        manifest = tmp_path / "mix.json"
        mixture.save(m, manifest)
        thresholds = np.array([0.0, 50.0, 500.0])
        (tmp_path / "t.txt").write_text("0\n50\n500\n", encoding="utf-8")
        preds = tmp_path / "p.csv"
        run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
            "--thresholds", str(tmp_path / "t.txt"), "--out", str(preds))
        assert run(tmp_path, "score", "--pred", str(preds), "--data", sizes_csv,
                   "--response", "ba") == 0
        cli_line = [l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("score=")][0]

        spec = evaluate.ThresholdScoreSpec(thresholds)
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X, names), thresholds)
        expect = evaluate.threshold_score(probs[obs], ds.ba[obs], spec)
        assert cli_line == f"score={expect!r}"


class TestCv:
    def test_report_and_selection(self, tmp_path, capsys):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=2, nx=5, ny=5, seed=1,
                                 mask_rate=0.2), masked)
        cfg = write_config(tmp_path, str(masked))
        folds = tmp_path / "folds.csv"
        run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2", "--seed", "2",
            "--out", str(folds))
        report = tmp_path / "cv.csv"
        assert run(tmp_path, "cv", "--config", cfg, "--folds", str(folds),
                   "--checkpoints", "1,3,5", "--out", str(report)) == 0
        out = capsys.readouterr().out
        assert "selected_n_trees=" in out
        with open(report) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n_trees", "mean_score", "se", "fold0", "fold1"]
        assert [r[0] for r in rows[1:]] == ["1", "3", "5"]


class TestSynthAndRunlog:
    def test_synth_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        assert run(tmp_path, "synth", "--kind", "counts", "--seed", "9",
                   "--out", str(d1)) == 0
        run(tmp_path, "synth", "--kind", "counts", "--seed", "9", "--out", str(d2))
        assert d1.read_bytes() == d2.read_bytes()

    def test_runlog_appends(self, tmp_path):
        run(tmp_path, "synth", "--kind", "counts", "--seed", "1",
            "--out", str(tmp_path / "d.csv"))
        run(tmp_path, "synth", "--kind", "sizes", "--seed", "1",
            "--out", str(tmp_path / "d2.csv"))
        lines = (tmp_path / "runs.log").read_text().splitlines()
        assert len(lines) == 2
        assert all("cmd=synth" in l and "wall_time=" in l and "status=0" in l
                   for l in lines)

    def test_bad_flags_exit_1(self, tmp_path, capsys):
        assert run(tmp_path, "synth", "--kind", "bogus",
                   "--out", str(tmp_path / "d.csv")) == 1


def _one_line(err, prefix):
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _mixture_manifest(tmp_path, sizes_csv):
    """A mixture manifest of three small components fitted on ``sizes_csv``."""
    ds = D.load_csv(sizes_csv)
    obs = ~np.isnan(ds.ba)
    X, names = ds.feature_matrix()
    params = booster.TrainParams(n_trees=3, max_leaves=4, seed=0)
    m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5, k_shape=1.0,
                            classifier_params=params, bulk_params=params,
                            tail_params=params, feature_names=names)
    manifest = tmp_path / "mix.json"
    mixture.save(m, manifest)
    return manifest


class TestMixtureProbabilityBound:
    def test_far_threshold_output_scores(self, tmp_path, sizes_csv, capsys):
        manifest = _mixture_manifest(tmp_path, sizes_csv)
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text("0\n10\n1e15\n", encoding="utf-8")
        assert run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 0
        assert np.loadtxt(preds, delimiter=",", skiprows=1)[:, 3:].max() == 1.0
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(preds), "--data", sizes_csv,
                   "--response", "ba") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("score=") and captured.err == ""


class TestNonFiniteNumbersFile:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_thresholds_exit_2(self, tmp_path, sizes_csv, token, capsys):
        manifest = _mixture_manifest(tmp_path, sizes_csv)
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text(f"0\n{token}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(manifest), "--data", sizes_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 2
        _one_line(capsys.readouterr().err,
                  f"data error: {thresholds}:2: not a finite number: {token!r}")
        assert not preds.exists()

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_weights_exit_2(self, tmp_path, sizes_csv, token, capsys):
        weights, pred = tmp_path / "w.txt", tmp_path / "pred.csv"
        weights.write_text(f"# one weight\n{token}\n", encoding="utf-8")
        _write_probabilities(pred, D.load_csv(sizes_csv))
        cfg = write_config(tmp_path, sizes_csv, extra=f"\n[score]\nweights = {weights}\n")
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(pred), "--data", sizes_csv,
                   "--config", cfg, "--response", "ba") == 2
        _one_line(capsys.readouterr().err,
                  f"data error: {weights}:2: not a finite number: {token!r}")


class TestScoreKeys:
    def test_thresholds_key_is_unknown(self, tmp_path, sizes_csv, capsys):
        pred = tmp_path / "pred.csv"
        _write_probabilities(pred, D.load_csv(sizes_csv))
        cfg = write_config(tmp_path, sizes_csv,
                           extra=f"\n[score]\nthresholds = {tmp_path / 'absent.txt'}\n")
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(pred), "--data", sizes_csv,
                   "--config", cfg, "--response", "ba") == 1
        _one_line(capsys.readouterr().err,
                  "config error: unknown keys in [score]: ['thresholds']")


class TestCountFlagsAndBoxes:
    """Bad counts, sizes and search boxes are configuration errors, raised
    before any model is trained."""

    @pytest.fixture
    def setup(self, tmp_path):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1,
                                 mask_rate=0.2), masked)
        folds = tmp_path / "folds.csv"

        def make(extra=""):
            cfg = write_config(tmp_path, str(masked), extra=extra)
            assert run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2",
                       "--out", str(folds)) == 0
            return cfg, str(folds)
        return make

    @pytest.mark.parametrize("checkpoints", ["-3,2", "-3", "2,-1,4"])
    def test_negative_checkpoint(self, tmp_path, setup, checkpoints, capsys):
        cfg, folds = setup()
        out = tmp_path / "cv.csv"
        capsys.readouterr()
        assert run(tmp_path, "cv", "--config", cfg, "--folds", folds,
                   f"--checkpoints={checkpoints}", "--out", str(out)) == 1
        _one_line(capsys.readouterr().err, "config error: --checkpoints must be "
                  "comma-separated integers >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("box, message", [
        ("colsample = 0.5, 1.5", "colsample must lie in (0, 1]"),
        ("max_leaves = 1, 3", "max_leaves must be >= 2"),
        ("learning_rate = 0.0, 0.2", "learning_rate must lie in (0, 1]"),
        ("xi = -0.5, 0.5", "xi must be finite and > 0")])
    def test_tune_box_outside_range(self, tmp_path, setup, box, message, capsys):
        cfg, folds = setup(f"\n[tune]\n{box}\n")
        log = tmp_path / "tune.csv"
        capsys.readouterr()
        assert run(tmp_path, "tune", "--config", cfg, "--folds", folds,
                   "--max-iters", "2", "--out", str(log)) == 1
        err = capsys.readouterr().err
        _one_line(err, "config error: ")
        assert message in err
        assert not log.exists()

    @pytest.mark.parametrize("iters", ["0", "-2"])
    def test_tune_without_iterations(self, tmp_path, setup, iters, capsys):
        cfg, folds = setup()
        capsys.readouterr()
        assert run(tmp_path, "tune", "--config", cfg, "--folds", folds,
                   "--max-iters", iters, "--out", str(tmp_path / "tune.csv")) == 1
        _one_line(capsys.readouterr().err, "config error: --max-iters must be at least 1")

    @pytest.mark.parametrize("flag, value", [("--nx", "0"), ("--ny", "-1"), ("--years", "0"),
                                             ("--mask-rate", "2"), ("--mask-rate", "-0.5"),
                                             ("--mask-rate", "nan")])
    def test_synth_sizes_and_rate(self, tmp_path, flag, value, capsys):
        out = tmp_path / "d.csv"
        assert run(tmp_path, "synth", "--kind", "counts", flag, value,
                   "--out", str(out)) == 1
        _one_line(capsys.readouterr().err, "config error: --years, --nx and --ny must be "
                  "at least 1 and --mask-rate must lie in [0, 1]")
        assert not out.exists()


class TestSeedsAlphaPointsAndRoots:
    """Bad seeds, a bad ``--alpha``, too many pdp points and a masking rate
    with no intercept end in one classified line, before any work."""

    @pytest.fixture
    def tiny(self, tmp_path):
        """A 9-row counts grid, its config and a model fitted on it."""
        data = tmp_path / "tiny.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1), data)
        ds = D.load_csv(data)
        X, names = ds.feature_matrix()
        model = tmp_path / "m.json"
        booster.save(booster.fit(X, ds.cnt, losses.LossSpec(kind="dgpd", alpha=5.0),
                                 booster.TrainParams(n_trees=2, max_leaves=2),
                                 feature_names=names), model)
        return str(data), ds.n_rows, write_config(tmp_path, str(data)), str(model)

    @pytest.mark.parametrize("command", ["cvfolds", "synth", "pdp", "tune"])
    def test_negative_seed_flag(self, tmp_path, tiny, command, capsys):
        data, _, cfg, model = tiny
        out = tmp_path / "out.csv"
        argv = {"cvfolds": ["--config", cfg],
                "synth": ["--kind", "counts"],
                "pdp": ["--model", model, "--data", data, "--features", "x1", "--points", "3"],
                "tune": ["--config", cfg, "--folds", str(tmp_path / "absent.csv")]}[command]
        capsys.readouterr()
        assert run(tmp_path, command, *argv, "--seed", "-1", "--out", str(out)) == 1
        _one_line(capsys.readouterr().err, "config error: --seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("section, command", [("train", "train")])
    def test_negative_seed_key(self, tmp_path, tiny, section, command, capsys):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[data]\ntrain = {tiny[0]}\n\n[{section}]\n"
                       f"n_trees = 2\ncolsample = 0.5\nseed = -3\n", encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(tmp_path, command, "--config", str(cfg), "--out", str(out)) == 1
        _one_line(capsys.readouterr().err,
                  f"config error: [{section}] seed must be an integer >= 0, got '-3'")
        assert not out.exists()

    def test_training_seed_beyond_64_bits_flag(self, tmp_path, tiny, capsys):
        """The seed is one 64-bit word of the column-sampling key: ``[train]
        seed``, the one way to set it, takes 2**64 - 1 and not 2**64."""
        cfg, out = tmp_path / "seed.ini", tmp_path / "seeded.json"

        def train(seed):
            cfg.write_text(f"[data]\ntrain = {tiny[0]}\n\n[loss]\nkind = poisson\n\n"
                           f"[train]\nn_trees = 2\ncolsample = 0.5\nseed = {seed}\n",
                           encoding="utf-8")
            return run(tmp_path, "train", "--config", str(cfg), "--out", str(out))

        capsys.readouterr()
        assert train(2 ** 64) == 1
        _one_line(capsys.readouterr().err,
                  f"config error: seed must lie in [0, 2**64), got {2 ** 64}")
        assert not out.exists()
        assert train(2 ** 64 - 1) == 0

    def test_training_seed_beyond_64_bits_key(self, tmp_path, tiny, capsys):
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[data]\ntrain = {tiny[0]}\n\n[loss]\nkind = poisson\n\n"
                       f"[train]\nn_trees = 2\ncolsample = 0.5\n"
                       f"seed = 1180591620717411303424\n", encoding="utf-8")
        out = tmp_path / "seeded.json"
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", str(cfg), "--out", str(out)) == 1
        _one_line(capsys.readouterr().err,
                  "config error: seed must lie in [0, 2**64), got 1180591620717411303424")
        assert not out.exists()

    def test_training_seed_beyond_64_bits_in_model_document(self, tmp_path, tiny, capsys):
        data, _, _, model = tiny
        doc = json.loads(Path(model).read_text(encoding="utf-8"))
        doc["params"]["seed"] = 2 ** 64
        bad, out = tmp_path / "bad.json", tmp_path / "p.csv"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(bad), "--data", data,
                   "--out", str(out)) == 2
        _one_line(capsys.readouterr().err, "data error: bad training params in model "
                  "document: seed must lie in [0, 2**64)")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "-1", "inf", "nan"])
    def test_synth_alpha(self, tmp_path, alpha, capsys):
        out = tmp_path / "d.csv"
        assert run(tmp_path, "synth", "--kind", "counts", "--alpha", alpha,
                   "--out", str(out)) == 1
        _one_line(capsys.readouterr().err, "config error: --alpha must be finite and > 0")
        assert not out.exists()

    def test_synth_alpha_overflowing_the_draws(self, tmp_path, capsys):
        """A tiny alpha overflows every count draw: one numerical line, no
        warning and no file (the count column was all "inf")."""
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "synth", "--kind", "sizes", "--alpha", "1e-300",
                       "--out", str(out)) == 3
        _one_line(capsys.readouterr().err,
                  "numerical failure: synthetic sizes draws are not all finite (alpha=1e-300,")
        assert not out.exists()

    def test_synth_grid_leaving_the_globe(self, tmp_path, capsys):
        """The grid is checked before a cell of it is built."""
        out = tmp_path / "d.csv"
        status, peak = traced_peak(run, tmp_path, "synth", "--kind", "counts",
                                   "--nx", "100000", "--ny", "100000", "--out", str(out))
        assert status == 1 and peak < 1 << 20
        _one_line(capsys.readouterr().err,
                  "config error: a 100000 x 100000 grid from (-110.25, 35.25) at spacing 0.5 "
                  "leaves the globe: nx must be at most 581 and ny at most 110")
        assert not out.exists()

    def test_synth_years_beyond_memory(self, tmp_path, capsys):
        """252e12 rows: the first row-sized allocation (1.79 PiB) fails at
        once, without touching memory."""
        out = tmp_path / "d.csv"
        assert run(tmp_path, "synth", "--kind", "counts", "--years", "1000000000000",
                   "--out", str(out)) == 1
        _one_line(capsys.readouterr().err,
                  "config error: --years 1000000000000 over 36 cells makes 252000000000000 "
                  "rows, more than memory holds")
        assert not out.exists()

    def test_synth_grid_on_the_globe_up_to_its_edge(self):
        lon, lat = synth._grid(581, 110).max(axis=0)
        assert (lon, lat) == (179.75, 89.75)
        for nx, ny in ((582, 1), (1, 111)):
            with pytest.raises(ConfigError, match="leaves the globe"):
                synth._grid(nx, ny)

    def test_pdp_points_beyond_rows(self, tmp_path, tiny, capsys):
        data, n_rows, _, model = tiny
        out = tmp_path / "pdp.csv"
        capsys.readouterr()
        assert run(tmp_path, "pdp", "--model", model, "--data", data, "--features", "x1",
                   "--points", str(n_rows + 1), "--out", str(out)) == 1
        _one_line(capsys.readouterr().err,
                  f"config error: --points must be at most the {n_rows} rows of --data")
        assert not out.exists()
        assert run(tmp_path, "pdp", "--model", model, "--data", data, "--features", "x1",
                   "--points", str(n_rows), "--out", str(out)) == 0

    def test_calibration_without_root(self, tmp_path, capsys):
        data, cfg = tmp_path / "sizes.csv", tmp_path / "wide.ini"
        D.save_csv(synth_dataset("sizes", n_years=1, nx=3, ny=3, seed=2), data)
        cfg.write_text(f"[data]\ntrain = {data}\n\n[cv]\nsigma_gp = 1000\n", encoding="utf-8")
        out = tmp_path / "folds.csv"
        capsys.readouterr()
        assert run(tmp_path, "cvfolds", "--config", str(cfg), "--out", str(out)) == 3
        _one_line(capsys.readouterr().err, "numerical failure: no cnt intercept in "
                  "[-40, 40] gives the masking rate 1e-06 at variance 1e+06")
        assert not out.exists()

    def test_cv_prints_a_python_float(self, tmp_path, capsys):
        masked = tmp_path / "masked.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1,
                                 mask_rate=0.2), masked)
        cfg, folds = write_config(tmp_path, str(masked)), tmp_path / "folds.csv"
        assert run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2",
                   "--out", str(folds)) == 0
        capsys.readouterr()
        assert run(tmp_path, "cv", "--config", cfg, "--folds", str(folds),
                   "--checkpoints", "1,2", "--out", str(tmp_path / "cv.csv")) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if l.startswith("min_mean_score=")][0]
        assert repr(float(line.split("=", 1)[1])) == line.split("=", 1)[1]


class TestFoldCountSpacingAndClasses:
    """A fold count outside [1, rows] and a grid spacing that is not finite
    and > 0 are configuration errors raised before any work; a classifier
    with other than 3 classes cannot be exported by ``predict``."""

    @pytest.fixture
    def grid(self, tmp_path):
        data = tmp_path / "masked.csv"
        ds = synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1, mask_rate=0.2)
        D.save_csv(ds, data)
        return str(data), ds.n_rows

    @pytest.mark.parametrize("n_folds", ["1000000000000000000", "0", "-2", "rows+1"])
    def test_fold_count_flag(self, tmp_path, grid, n_folds, capsys):
        data, n_rows = grid
        n_folds = str(n_rows + 1) if n_folds == "rows+1" else n_folds
        out = tmp_path / "folds.csv"
        assert run(tmp_path, "cvfolds", "--config", write_config(tmp_path, data),
                   "--n-folds", n_folds, "--out", str(out)) == 1
        _one_line(capsys.readouterr().err,
                  f"config error: the fold count must lie in [1, {n_rows}] (the data's "
                  f"rows), got {n_folds}")
        assert not out.exists()

    def test_one_fold_per_row_is_allowed(self, tmp_path, grid, capsys):
        data, n_rows = grid
        assert run(tmp_path, "cvfolds", "--config", write_config(tmp_path, data),
                   "--n-folds", str(n_rows), "--out", str(tmp_path / "folds.csv")) == 0
        assert f"n_folds={n_rows}" in capsys.readouterr().out

    @pytest.mark.parametrize("spacing", ["0", "nan", "inf", "-0.5"])
    def test_spacing(self, tmp_path, grid, spacing, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {grid[0]}\nspacing = {spacing}\n", encoding="utf-8")
        out = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", str(cfg), "--loss", "dgpd",
                   "--out", str(out)) == 1
        _one_line(capsys.readouterr().err, "config error: [data] spacing must be finite "
                  "and > 0, got ")
        assert not out.exists()

    @pytest.mark.parametrize("spacing", [0.0, np.nan, np.inf, -0.5])
    def test_load_csv_spacing(self, grid, spacing):
        with pytest.raises(DataError, match="grid spacing must be finite and > 0"):
            D.load_csv(grid[0], spacing=spacing)

    def test_n_classes_key_is_unknown(self, tmp_path, grid, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {grid[0]}\n\n[loss]\nkind = cross_entropy\n"
                       f"n_classes = 3\n", encoding="utf-8")
        assert run(tmp_path, "train", "--config", str(cfg), "--out",
                   str(tmp_path / "m.json")) == 1
        _one_line(capsys.readouterr().err,
                  "config error: unknown keys in [loss]: ['n_classes']")

    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_predict_other_class_count(self, tmp_path, sizes_csv, n_classes, capsys):
        """The class count is fixed at 3, so an n-class model is a 3-class
        model's document with its class count and base scores edited."""
        ds = D.load_csv(sizes_csv)
        X, names = ds.feature_matrix()
        doc = booster.to_doc(booster.fit(X, np.arange(ds.n_rows) % 3,
                                         losses.LossSpec(kind="cross_entropy"),
                                         booster.TrainParams(n_trees=0),
                                         feature_names=names))
        doc["loss"]["n_classes"], doc["base_score"] = n_classes, [0.0] * n_classes
        model, out = tmp_path / "cls.json", tmp_path / "p.csv"
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(model), "--data", sizes_csv,
                   "--out", str(out)) == 2
        _one_line(capsys.readouterr().err, f"data error: cross_entropy model has "
                  f"{n_classes} classes; predict writes the 3 size classes")
        assert not out.exists()


class TestResponseFollowsLoss:
    """The loss kind fixes the response, so ``train``, ``cv`` and ``tune``
    take no response flag or key, and ``raw_pmf_loss`` is gone."""

    @pytest.fixture
    def setup(self, tmp_path, counts_csv):
        cfg = write_config(tmp_path, counts_csv)
        folds = tmp_path / "folds.csv"
        assert run(tmp_path, "cvfolds", "--config", cfg, "--n-folds", "2",
                   "--out", str(folds)) == 0
        return cfg, str(folds)

    @pytest.mark.parametrize("command", ["train", "cv", "tune"])
    def test_response_flag_is_exit_1(self, tmp_path, setup, command, capsys):
        cfg, folds = setup
        argv = [command, "--config", cfg, "--response", "cnt", "--out", str(tmp_path / "o")]
        if command != "train":
            argv += ["--folds", folds]
        assert run(tmp_path, *argv) == 1
        assert "--response" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("response", "cnt"), ("raw_pmf_loss", "true")])
    def test_removed_loss_keys_are_unknown(self, tmp_path, counts_csv, key, value, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {counts_csv}\n\n[loss]\nkind = dgpd\n"
                       f"{key} = {value}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "train", "--config", str(cfg), "--out",
                   str(tmp_path / "m.json")) == 1
        _one_line(capsys.readouterr().err, f"config error: unknown keys in [loss]: ['{key}']")

    def test_raw_pmf_model_document_is_exit_2(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, counts_csv)
        model = tmp_path / "m.json"
        assert run(tmp_path, "train", "--config", cfg, "--out", str(model)) == 0
        doc = json.loads(model.read_text())
        doc["loss"]["raw_pmf_loss"] = True
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(model), "--data", counts_csv,
                   "--out", str(tmp_path / "p.csv")) == 2
        _one_line(capsys.readouterr().err, "data error: unknown loss fields: ['raw_pmf_loss']")


class TestOneWayIn:
    """Each setting has one way in. ``cvfolds`` takes its fold count and
    seed only as flags, ``score`` its response only as the required
    ``--response`` and its thresholds only from the export's ``p_le_<t>``
    header, and ``train`` its seed only from ``[train] seed``."""

    @pytest.mark.parametrize("section, key", [("cv", "n_folds"), ("cv", "seed"),
                                              ("score", "response")])
    def test_removed_keys_are_unknown(self, tmp_path, counts_csv, section, key, capsys):
        cfg, pred, out = tmp_path / "run.ini", tmp_path / "pred.csv", tmp_path / "folds.csv"
        cfg.write_text(f"[data]\ntrain = {counts_csv}\n\n[{section}]\n{key} = 1\n",
                       encoding="utf-8")
        _write_probabilities(pred, D.load_csv(counts_csv))
        argv = {"cv": ["cvfolds", "--config", str(cfg), "--out", str(out)],
                "score": ["score", "--pred", str(pred), "--data", counts_csv,
                          "--config", str(cfg), "--response", "cnt"]}[section]
        capsys.readouterr()
        assert run(tmp_path, *argv) == 1
        captured = capsys.readouterr()
        _one_line(captured.err, f"config error: unknown keys in [{section}]: ['{key}']")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("column", ["raw", "p_le_nan", "p_le_inf"])
    def test_score_header_names_finite_thresholds(self, tmp_path, counts_csv, column, capsys):
        """The header is the one source of ``score``'s thresholds, so a
        column that names no finite threshold is a data error."""
        pred = tmp_path / "pred.csv"
        _write_probabilities(pred, D.load_csv(counts_csv))
        text = pred.read_text(encoding="utf-8")
        pred.write_text(text.replace("p_le_0.0", column, 1), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(pred), "--data", counts_csv,
                   "--response", "cnt") == 2
        captured = capsys.readouterr()
        _one_line(captured.err, "data error: cannot infer thresholds from prediction header")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["score_thresholds", "train_seed", "score_no_response"])
    def test_removed_flags_exit_1(self, tmp_path, counts_csv, case, capsys):
        pred, thresholds, out = tmp_path / "pred.csv", tmp_path / "t.txt", tmp_path / "m.json"
        _write_probabilities(pred, D.load_csv(counts_csv))
        thresholds.write_text("0\n", encoding="utf-8")
        score = ["score", "--pred", str(pred), "--data", counts_csv]
        argv, flag = {
            "score_thresholds": (score + ["--response", "cnt", "--thresholds", str(thresholds)],
                                 "--thresholds"),
            "train_seed": (["train", "--config", write_config(tmp_path, counts_csv),
                            "--seed", "3", "--out", str(out)], "--seed"),
            "score_no_response": (score, "--response"),
        }[case]
        capsys.readouterr()
        assert run(tmp_path, *argv) == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == "" and not out.exists()


class TestCountThresholdPredict:
    """``predict --thresholds`` writes P(CNT <= t) for a count model, which
    ``score --response cnt`` accepts; other single models are rejected."""

    def _model(self, tmp_path, data, kind):
        cfg = write_config(tmp_path, data)
        model = tmp_path / f"{kind}.json"
        assert run(tmp_path, "train", "--config", cfg, "--loss", kind,
                   "--out", str(model)) == 0
        return str(model)

    @pytest.mark.parametrize("kind", ["poisson", "dgpd"])
    def test_probability_columns_score(self, tmp_path, counts_csv, kind, capsys):
        model = self._model(tmp_path, counts_csv, kind)
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text("0\n2\n7.5\n", encoding="utf-8")
        assert run(tmp_path, "predict", "--model", model, "--data", counts_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 0
        with open(preds) as fh:
            header = next(csv.reader(fh))
        assert header == ["cell", "year", "month", "p_le_0.0", "p_le_2.0", "p_le_7.5"]
        probs = np.loadtxt(preds, delimiter=",", skiprows=1)[:, 3:]
        assert np.all((probs >= 0) & (probs <= 1)) and np.all(np.diff(probs, axis=1) >= 0)
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(preds), "--data", counts_csv,
                   "--response", "cnt") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("score=") and captured.err == ""

    @pytest.mark.parametrize("text, message", [
        ("-1\n2\n", "data error: count threshold must be >= 0"),
        ("2\n1\n", "data error: thresholds must be strictly ascending"),
        ("0\n1\n1\n5\n", "data error: thresholds must be strictly ascending"),
    ], ids=["negative", "unsorted", "repeated"])
    def test_bad_thresholds_exit_2(self, tmp_path, counts_csv, text, message, capsys):
        model = self._model(tmp_path, counts_csv, "poisson")
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", model, "--data", counts_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 2
        _one_line(capsys.readouterr().err, message)
        assert not preds.exists()

    def test_negative_threshold_without_data_rows_exit_2(self, tmp_path, counts_csv, capsys):
        """The values of each block are made as it is written, and a file of
        no rows has no block; the thresholds are checked all the same."""
        model = self._model(tmp_path, counts_csv, "poisson")
        empty, thresholds, preds = tmp_path / "e.csv", tmp_path / "t.txt", tmp_path / "p.csv"
        with open(counts_csv, encoding="utf-8") as fh:
            empty.write_text(fh.readline(), encoding="utf-8")
        thresholds.write_text("-1\n2\n", encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", model, "--data", str(empty),
                   "--thresholds", str(thresholds), "--out", str(preds)) == 2
        _one_line(capsys.readouterr().err, "data error: count threshold must be >= 0")
        assert not preds.exists()

    @pytest.mark.parametrize("text", ["", "# no thresholds\n\n"], ids=["empty", "comment_only"])
    def test_empty_ladder_exit_2(self, tmp_path, counts_csv, text, capsys):
        """No threshold is no ladder: ``predict`` and ``score`` both reject it."""
        model = self._model(tmp_path, counts_csv, "dgpd")
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", model, "--data", counts_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 2
        _one_line(capsys.readouterr().err, "data error: the threshold ladder is empty")
        assert not preds.exists()
        ds = D.load_csv(counts_csv)
        with open(preds, "w", newline="", encoding="utf-8") as fh:   # keys, no probabilities
            writer = csv.writer(fh)
            writer.writerow(["cell", "year", "month"])
            writer.writerows(zip(ds.cell_index.tolist(), ds.year.tolist(), ds.month.tolist()))
        assert run(tmp_path, "score", "--pred", str(preds), "--data", counts_csv,
                   "--response", "cnt") == 2
        _one_line(capsys.readouterr().err, "data error: the threshold ladder is empty")

    def test_no_observed_response_exit_2(self, tmp_path, counts_csv, capsys):
        """Scoring skips masked responses; with every one masked there is
        nothing to score."""
        model = self._model(tmp_path, counts_csv, "poisson")
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text("0\n2\n7.5\n", encoding="utf-8")
        assert run(tmp_path, "predict", "--model", model, "--data", counts_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 0
        ds = D.load_csv(counts_csv)
        ds.cnt[:] = np.nan
        masked = tmp_path / "masked.csv"
        D.save_csv(ds, masked)
        capsys.readouterr()
        assert run(tmp_path, "score", "--pred", str(preds), "--data", str(masked),
                   "--response", "cnt") == 2
        captured = capsys.readouterr()
        _one_line(captured.err, "data error: no observed response to score")
        assert captured.out == ""

    def test_size_model_exit_2(self, tmp_path, sizes_csv, capsys):
        model = self._model(tmp_path, sizes_csv, "gpd")
        thresholds, preds = tmp_path / "t.txt", tmp_path / "p.csv"
        thresholds.write_text("0\n100\n", encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", model, "--data", sizes_csv,
                   "--thresholds", str(thresholds), "--out", str(preds)) == 2
        _one_line(capsys.readouterr().err, "data error: loss 'gpd' has no count CDF")
        assert not preds.exists()


class TestBinsAndSeasonBounds:
    @pytest.mark.parametrize("n_bins", ["256", "1000000000000"])
    def test_quantile_bins_outside_one_byte(self, tmp_path, counts_csv, n_bins, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {counts_csv}\n\n[train]\nn_quantile_bins = {n_bins}\n",
                       encoding="utf-8")
        assert run(tmp_path, "train", "--config", str(cfg), "--loss", "dgpd",
                   "--out", str(tmp_path / "m.json")) == 1
        _one_line(capsys.readouterr().err,
                  "config error: n_quantile_bins must lie in [2, 255]")

    @pytest.mark.parametrize("season", ["9-3", "0-5", "3-13", "3"])
    def test_season_outside_the_year(self, tmp_path, counts_csv, season, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {counts_csv}\nseason = {season}\n", encoding="utf-8")
        assert run(tmp_path, "train", "--config", str(cfg), "--loss", "dgpd",
                   "--out", str(tmp_path / "m.json")) == 1
        _one_line(capsys.readouterr().err, "config error: [data] season must be 'lo-hi' "
                  f"months with 1 <= lo <= hi <= 12, got '{season}'")


def _readme_blocks(lang):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{lang}\n(.*?)```", readme, flags=re.S)


class TestSettingsDefaults:
    """[train] and [cv] read their keys and defaults from ``TrainParams``
    and ``MaskModelParams``."""

    def test_unset_sections_give_the_dataclass_defaults(self):
        assert cli.RunConfig(None).train_params() == booster.TrainParams()

    def test_section_keys_are_the_fields(self):
        assert cli._SECTION_KEYS["train"] == {"n_trees", "learning_rate", "max_leaves",
                                              "lambda_reg", "eta", "colsample",
                                              "n_quantile_bins", "seed"}
        assert cli._SECTION_KEYS["cv"] == {"beta0_cnt", "beta0_ba", "beta", "range",
                                           "sigma_gp", "nu", "phi"}


class TestReadmeConfig:
    def test_example_loads(self, tmp_path):
        blocks = _readme_blocks("ini")
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0], encoding="utf-8")
        cfg = cli.RunConfig(str(path))
        for section in cfg.cp.sections():
            for key, value in cfg.cp[section].items():
                assert ";" not in value, f"[{section}] {key} = {value!r}"
        assert cfg.loss_spec() == losses.LossSpec(kind="dgpd", alpha=5.0, xi=0.8,
                                                  u_trunc=float(np.log1p(200.0)))
        assert cfg.train_params() == booster.TrainParams(seed=7)
        assert [cfg.getfloat("cv", key) for key in ("beta", "range", "sigma_gp", "phi")] \
            == [0.42, 2.0, 1.0, 0.25]

    def test_documented_flags_and_keys_exist(self):
        """Every ``evtboost`` line of the README's ``sh`` blocks parses, and
        every section and key of its INI example is one the config takes,
        so a deleted flag or key does not linger in the docs."""
        lines = [line for block in _readme_blocks("sh") for line in block.splitlines()
                 if line.startswith("evtboost ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README line does not parse: {line}")
        example = configparser.ConfigParser()
        example.read_string(_readme_blocks("ini")[0])
        for section in example.sections():
            assert set(example[section]) <= cli._SECTION_KEYS.get(section, set()), section


class TestColumnNames:
    """A header name appears once, each role has its own column, and a
    covariate is listed once, is no role's column and does not take the
    name of a key feature; a model's feature names are distinct."""

    @pytest.fixture
    def grid(self, tmp_path):
        data = tmp_path / "grid.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1), data)
        return data

    def _train(self, tmp_path, data, extra=""):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {data}\n\n{extra}", encoding="utf-8")
        out = tmp_path / "m.json"
        status = run(tmp_path, "train", "--config", str(cfg), "--loss", "dgpd",
                     "--out", str(out))
        assert not out.exists()
        return status

    def _rename(self, data, renames):
        header, rest = data.read_text(encoding="utf-8").split("\n", 1)
        names = header.split(",")
        for old, new in renames.items():
            names[names.index(old)] = new
        data.write_text(",".join(names) + "\n" + rest, encoding="utf-8")

    def test_repeated_header_name(self, tmp_path, grid, capsys):
        self._rename(grid, {"x2": "x1"})
        assert self._train(tmp_path, grid) == 2
        _one_line(capsys.readouterr().err, f"data error: {grid}: header repeats column 'x1'")

    @pytest.mark.parametrize("schema, message", [
        ("covariates = x1, x1", "covariate column 'x1' repeats a feature name"),
        ("covariates = x2, cnt", "covariate column 'cnt' is the cnt column"),
        ("ba = cnt", "column 'cnt' has two roles, cnt and ba"),
    ])
    def test_schema_collision(self, tmp_path, grid, schema, message, capsys):
        assert self._train(tmp_path, grid, f"[schema]\n{schema}\n") == 2
        _one_line(capsys.readouterr().err, f"data error: {grid}: {message}")

    def test_covariate_named_as_a_key_feature(self, tmp_path, grid, capsys):
        # lon is read from column "x", so column "lon" would be a second lon feature
        self._rename(grid, {"lon": "x", "x1": "lon"})
        assert self._train(tmp_path, grid, "[schema]\nlon = x\n") == 2
        _one_line(capsys.readouterr().err,
                  f"data error: {grid}: covariate column 'lon' repeats a feature name")

    def test_model_with_repeated_feature_names(self, tmp_path, grid, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[data]\ntrain = {grid}\n\n[train]\nn_trees = 1\n", encoding="utf-8")
        model, out = tmp_path / "m.json", tmp_path / "p.csv"
        assert run(tmp_path, "train", "--config", str(cfg), "--loss", "dgpd",
                   "--out", str(model)) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        doc["feature_names"][-1] = doc["feature_names"][0]
        model.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path, "predict", "--model", str(model), "--data", str(grid),
                   "--out", str(out)) == 2
        _one_line(capsys.readouterr().err, "data error: feature_names repeats 'lon'")
        assert not out.exists()


class TestPdpGridBound:
    """``pdp`` grids hold at most one point per row of ``--data``: the
    product of the per-feature grid sizes, checked before the grid is built.
    A feature's grid is its distinct quantiles, so lon (3 values) at 8
    points adds 3 and not 8."""

    def test_grid_beyond_the_rows_is_exit_1(self, tmp_path, capsys):
        data, model, out = tmp_path / "grid.csv", tmp_path / "m.json", tmp_path / "pdp.csv"
        D.save_csv(synth_dataset("counts", n_years=1, nx=3, ny=3, seed=1), data)
        assert run(tmp_path, "train", "--config", write_config(tmp_path, data),
                   "--out", str(model)) == 0
        pdp = ["pdp", "--model", str(model), "--data", str(data), "--points", "8",
               "--n-sub", "5", "--out", str(out)]
        assert run(tmp_path, *pdp, "--features", "x1,lon") == 0
        out.unlink()
        capsys.readouterr()
        assert run(tmp_path, *pdp, "--features", "x1,x2") == 1
        _one_line(capsys.readouterr().err, "config error: --points 8 over 2 features makes "
                  "64 grid points; at most the 63 rows of --data")
        assert not out.exists()


# the keys of [data], [loss], [train] and [cv] that are not read as numbers
_NOT_FLOAT_KEYS = {"train", "missing", "season", "kind", "n_trees", "max_leaves",
                   "n_quantile_bins", "seed"}
_FLOAT_KEYS = sorted((section, key) for section in ("data", "loss", "train", "cv")
                     for key in cli._SECTION_KEYS[section] - _NOT_FLOAT_KEYS)


@pytest.fixture(scope="module")
def tiny_sizes_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("config_values") / "sizes.csv"
    D.save_csv(synth_dataset("sizes", n_years=1, nx=3, ny=3, seed=2), path)
    return str(path)


class TestNonFiniteConfigValues:
    """Every number a config section holds is checked where it is read: a
    value that is not finite, or outside its range, is one ``config error:``
    line with exit 1, no warning and no output. ``train`` reads [data],
    [loss] and [train]; ``cvfolds`` reads [cv]."""

    @pytest.mark.parametrize("section, key, value",
                             [(s, k, v) for s, k in _FLOAT_KEYS for v in ("nan", "inf", "-inf")]
                             + [("loss", "u", "-5")]
                             + [("cv", "nu", v) for v in ("120", "150", "200")])
    def test_bad_value_is_one_config_error(self, tmp_path, tiny_sizes_csv, section, key,
                                           value, capsys):
        cfg = tmp_path / "run.ini"
        body = {"data": f"train = {tiny_sizes_csv}\n", "loss": "kind = dgpd\n",
                "train": "n_trees = 1\n", "cv": ""}
        body[section] += f"{key} = {value}\n"
        cfg.write_text("".join(f"[{s}]\n{text}\n" for s, text in body.items()), encoding="utf-8")
        out = tmp_path / "out"
        command = "cvfolds" if section == "cv" else "train"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run(tmp_path, command, "--config", str(cfg), "--out", str(out))
        assert status == 1 and not caught and not out.exists()
        err = capsys.readouterr().err
        _one_line(err, "config error:")
        assert ("[loss] u" if key == "u" else "r" if key == "range" else key) in err

    @pytest.mark.parametrize("intercepts", ["calibrated", "given"])
    @pytest.mark.parametrize("key, value", [("sigma_gp", "1e200"), ("beta", "1e300")])
    def test_overflowing_variance_is_one_numerical_failure(self, tmp_path, tiny_sizes_csv,
                                                           key, value, intercepts, capsys):
        """A finite ``sigma_gp`` or ``beta`` whose masking-predictor variance
        overflows is exit 3, whether or not the intercepts are calibrated."""
        given = "beta0_cnt = 0\nbeta0_ba = 0\n" if intercepts == "given" else ""
        cfg, out = tmp_path / "run.ini", tmp_path / "folds.csv"
        cfg.write_text(f"[data]\ntrain = {tiny_sizes_csv}\n\n[cv]\n{given}{key} = {value}\n",
                       encoding="utf-8")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status = run(tmp_path, "cvfolds", "--config", str(cfg), "--out", str(out))
        assert status == 3 and not caught and not out.exists()
        _one_line(capsys.readouterr().err,
                  "numerical failure: the masking predictor's variance overflows")
