"""Golden files: training on a fixed dataset must reproduce the committed
``booster.dumps`` output byte for byte, for every loss kind, fold
generation must reproduce the committed ``save_folds`` export, and the CLI
must reproduce its committed model and prediction files.

The dataset has missing covariates, tied values and a constant column, and
the models sample 70% of the features per round, so split search, default
directions and column sampling are all pinned.  The folds come from a
synthetic grid with masked responses and some (cell, month) rows dropped,
with intercepts calibrated to its masking rate.  The CLI files come from
``synth``, ``train``, ``predict``, ``cvfolds``, ``cv``, ``tune``, ``pdp`` and
``importance`` on small synthetic grids, so CSV reading, the feature matrix
and every output writer are pinned; ``save_csv`` is pinned on a dataset with
missing responses, integral and missing covariates and a header name that
holds a comma.  Regenerate the files (only for a deliberate, documented
format change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evtboost import booster, cli, dataset, losses, mixture, recipes, spatialcv, synth

GOLDEN = Path(__file__).resolve().parent / "golden"

# count thresholds for ``predict --thresholds`` on the CLI dgpd model; 2.5
# pins the floor to the integer below
COUNT_THRESHOLDS_TEXT = "0\n1\n2.5\n5\n10\n"

SPECS = {
    "poisson": losses.LossSpec("poisson"),
    "dgpd": losses.LossSpec("dgpd", alpha=2.5),
    "trgamma": losses.LossSpec("trgamma", k_shape=1.5, u_trunc=40.0),
    "gpd": losses.LossSpec("gpd", xi=0.4, kappa=0.6),
    "cross_entropy": losses.LossSpec("cross_entropy"),
    "squared_log": losses.LossSpec("squared_log"),
}

# the sizes grid, its config and the mixture parts of the CLI mixture golden
SIZES_SYNTH = ["synth", "--kind", "sizes", "--nx", "4", "--ny", "4", "--years", "2",
               "--mask-rate", "0.1", "--seed", "29"]
SIZES_INI = ("[loss]\nu = 200.0\nxi = 0.8\nkappa = 0.5\nk_shape = 1.2\n\n"
             "[train]\nn_trees = 3\nmax_leaves = 4\nseed = 7\n")
MIXTURE_PARTS = {"classifier": "cross_entropy", "bulk": "trgamma", "tail": "gpd"}

PARAMS = booster.TrainParams(n_trees=5, learning_rate=0.3, max_leaves=6, lambda_reg=1.0,
                             colsample=0.7, n_quantile_bins=16, seed=11)


def golden_data(n: int = 400):
    """Covariates with ties, a constant column and missing values, plus one
    response array per loss kind."""
    rng = np.random.default_rng(20261018)
    x0 = rng.normal(size=n)
    x1 = np.round(rng.normal(size=n), 1)          # ties
    x2 = rng.integers(0, 5, size=n).astype(float)  # heavy ties
    x3 = rng.uniform(size=n)
    x4 = np.full(n, 2.0)                           # constant: no candidates
    x5 = rng.normal(size=n)
    X = np.column_stack([x0, x1, x2, x3, x4, x5])
    mu = np.exp(0.4 + 0.6 * x0 - 0.3 * x2 / 4 + 0.5 * (x3 > 0.5))
    ys = {
        "poisson": rng.poisson(mu).astype(float),
        "dgpd": np.floor(rng.pareto(2.5, size=n) * mu),
        "trgamma": np.clip(rng.gamma(1.5, mu), 1e-3, 40.0),
        "gpd": rng.pareto(2.5, size=n) * mu + 1e-3,
        "cross_entropy": np.digitize(x0 + 0.5 * x3 + rng.normal(scale=0.5, size=n),
                                     [-0.3, 0.7]).astype(float),
        "squared_log": rng.poisson(2.0 * mu).astype(float),
    }
    X[rng.uniform(size=X.shape) < 0.08] = np.nan
    X[rng.uniform(size=n) < 0.3, 5] = np.nan
    return X, ys


def golden_text(kind: str) -> str:
    X, ys = golden_data()
    names = [f"x{j}" for j in range(X.shape[1])]
    return booster.dumps(booster.fit(X, ys[kind], SPECS[kind], PARAMS, feature_names=names))


def golden_folds_text() -> str:
    ds = synth.synth_dataset("sizes", n_years=2, nx=5, ny=4, seed=17, mask_rate=0.15)
    keep = np.random.default_rng(18).uniform(size=ds.n_rows) > 0.1
    ds = ds.subset(np.flatnonzero(keep))
    params = spatialcv.calibrate_intercepts(
        ds, spatialcv.MaskModelParams(sigma_gp=1.0, phi=0.1))
    folds = spatialcv.generate_folds(ds, params, n_folds=3, seed=19)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "folds.csv"
        spatialcv.save_folds(folds, ds, path)
        return path.read_text(encoding="utf-8")


def golden_dataset_text() -> str:
    ds = synth.synth_dataset("counts", n_years=1, nx=3, ny=3, seed=31, mask_rate=0.3)
    k = np.arange(ds.n_rows) % 4 - 1.0
    k[::5] = np.nan
    frac = np.linspace(-1.0, 1.0, ds.n_rows)
    frac[1::4] = np.nan
    ds = replace(ds, covariates=np.column_stack([ds.covariates, k, frac]),
                 covariate_names=ds.covariate_names + ["k,int", "frac"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        dataset.save_csv(ds, path)
        return path.read_text(encoding="utf-8")


def golden_cli_texts() -> dict[str, str]:
    """The text of each golden CLI output, written by :func:`run_golden_cli`
    in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return {golden: made.read_text(encoding="utf-8")
                for golden, made in run_golden_cli(Path(tmp)).items()}


def run_golden_cli(tmp: Path) -> dict[str, Path]:
    """Run the golden CLI sequence in ``tmp`` and map each golden file name
    to the file it wrote: a dgpd ``train`` on a count grid with
    masked responses (``counts.csv``, ``counts.ini``), ``predict`` with that
    model (raw and mean, and P(CNT <= t) at a few thresholds), ``cv``,
    ``tune``, a two-feature ``pdp`` and ``importance`` on the same grid, and
    ``predict`` with a mixture of three CLI-trained components at a few
    thresholds (``sizes.csv``, ``sizes.ini``, ``mix.json``)."""
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--runlog", str(tmp / "runs.log"), *argv]) == 0

    def config(name, data, body):
        (tmp / name).write_text(f"[data]\ntrain = {tmp / data}\n\n{body}", encoding="utf-8")
        return str(tmp / name)

    run("synth", "--kind", "counts", "--nx", "4", "--ny", "4", "--years", "2",
        "--mask-rate", "0.2", "--seed", "23", "--out", str(tmp / "counts.csv"))
    counts_ini = config("counts.ini", "counts.csv", "[loss]\nkind = dgpd\nalpha = 4.0\n\n"
                        "[train]\nn_trees = 4\nmax_leaves = 4\ncolsample = 0.8\nseed = 5\n\n"
                        "[tune]\nlearning_rate = 0.05, 0.4\nmax_leaves = 2, 6\n")
    run("train", "--config", counts_ini, "--out", str(tmp / "dgpd.json"))
    run("predict", "--model", str(tmp / "dgpd.json"), "--data", str(tmp / "counts.csv"),
        "--out", str(tmp / "dgpd.csv"))
    (tmp / "counts_t.txt").write_text(COUNT_THRESHOLDS_TEXT, encoding="utf-8")
    run("predict", "--model", str(tmp / "dgpd.json"), "--data", str(tmp / "counts.csv"),
        "--thresholds", str(tmp / "counts_t.txt"), "--out", str(tmp / "dgpd_t.csv"))
    run("cvfolds", "--config", counts_ini, "--n-folds", "2", "--seed", "3",
        "--out", str(tmp / "folds.csv"))
    run("cv", "--config", counts_ini, "--folds", str(tmp / "folds.csv"),
        "--checkpoints", "1,2,4", "--out", str(tmp / "cv.csv"))
    run("tune", "--config", counts_ini, "--folds", str(tmp / "folds.csv"),
        "--max-iters", "3", "--seed", "4", "--out", str(tmp / "tune.csv"))
    run("pdp", "--model", str(tmp / "dgpd.json"), "--data", str(tmp / "counts.csv"),
        "--features", "x1,x2", "--points", "3", "--n-sub", "20", "--transform", "mean",
        "--out", str(tmp / "pdp.csv"))
    run("importance", "--model", str(tmp / "dgpd.json"), "--out", str(tmp / "imp.csv"))

    run(*SIZES_SYNTH, "--out", str(tmp / "sizes.csv"))
    sizes_ini = config("sizes.ini", "sizes.csv", SIZES_INI)
    for part, kind in MIXTURE_PARTS.items():
        run("train", "--config", sizes_ini, "--loss", kind, "--out", str(tmp / f"{part}.json"))
    (tmp / "mix.json").write_text(json.dumps(
        {"format_version": 1, "kind": "mixture", "threshold": 200.0,
         **{part: f"{part}.json" for part in MIXTURE_PARTS}}), encoding="utf-8")
    (tmp / "thresholds.txt").write_text("0\n25\n200\n1000\n", encoding="utf-8")
    run("predict", "--model", str(tmp / "mix.json"), "--data", str(tmp / "sizes.csv"),
        "--thresholds", str(tmp / "thresholds.txt"), "--out", str(tmp / "mix.csv"))

    return {golden: tmp / made for golden, made in
            (("cli_dgpd.json", "dgpd.json"), ("cli_dgpd_predict.csv", "dgpd.csv"),
             ("cli_dgpd_threshold_predict.csv", "dgpd_t.csv"),
             ("cli_mixture_predict.csv", "mix.csv"), ("cli_cv.csv", "cv.csv"),
             ("cli_tune.csv", "tune.csv"), ("cli_pdp.csv", "pdp.csv"),
             ("cli_importance.csv", "imp.csv"))}


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_model_matches_golden_file(kind):
    expected = (GOLDEN / f"{kind}.json").read_text(encoding="utf-8")
    assert golden_text(kind) == expected


def test_folds_match_golden_file():
    expected = (GOLDEN / "folds.csv").read_text(encoding="utf-8")
    assert golden_folds_text() == expected


def test_saved_dataset_matches_golden_file():
    expected = (GOLDEN / "dataset.csv").read_text(encoding="utf-8")
    assert golden_dataset_text() == expected


def test_cli_outputs_match_golden_files():
    for name, text in golden_cli_texts().items():
        assert text == (GOLDEN / name).read_text(encoding="utf-8"), name


def test_library_mixture_matches_cli_components(tmp_path):
    """``fit_mixture`` on the golden sizes grid, masked rows passed in, plus
    ``mixture.save`` write the bytes of the three CLI ``train`` runs."""
    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--runlog", str(tmp_path / "runs.log"), *argv]) == 0

    data, ini = tmp_path / "sizes.csv", tmp_path / "sizes.ini"
    run(*SIZES_SYNTH, "--out", str(data))
    ini.write_text(f"[data]\ntrain = {data}\n\n{SIZES_INI}", encoding="utf-8")
    for part, kind in MIXTURE_PARTS.items():
        run("train", "--config", str(ini), "--loss", kind, "--out", str(tmp_path / f"{part}.json"))

    cfg = cli.RunConfig(str(ini))
    ds = dataset.cross_fill_zeros(cfg.load_dataset())  # the rows ``train`` reads
    assert np.isnan(ds.ba).any()
    X, names = ds.feature_matrix()
    params = cfg.train_params()
    m = mixture.fit_mixture(X, ds.ba, u=200.0, xi=0.8, kappa=0.5, k_shape=1.2,
                            classifier_params=params, bulk_params=params,
                            tail_params=params, feature_names=names)
    mixture.save(m, tmp_path / "lib.json")
    for part in MIXTURE_PARTS:
        assert (tmp_path / f"lib.{part}.json").read_bytes() == \
            (tmp_path / f"{part}.json").read_bytes(), part


def test_cli_count_thresholds_match_library(tmp_path):
    """The golden count-threshold export is the library's CDF of the golden
    model's raw scores on the grid ``synth`` wrote, bit for bit."""
    ds = synth.synth_dataset("counts", n_years=2, nx=4, ny=4, seed=23, mask_rate=0.2)
    model = booster.load(GOLDEN / "cli_dgpd.json")
    X, names = ds.feature_matrix()
    raw = booster.predict_raw(model, dataset.align_features(X, names, model.feature_names))
    thresholds = [float(t) for t in COUNT_THRESHOLDS_TEXT.split()]
    probs = recipes.count_threshold_probs(model.loss, raw, thresholds)
    dataset.write_csv(tmp_path / "p.csv",
                      ["cell", "year", "month"] + [f"p_le_{t!r}" for t in thresholds],
                      ds.n_rows, lambda rows: [dataset.reprs(ds.cell_index[rows]),
                                               dataset.reprs(ds.year[rows]),
                                               dataset.reprs(ds.month[rows]),
                                               dataset.reprs(probs[rows])])
    expected = (GOLDEN / "cli_dgpd_threshold_predict.csv").read_text(encoding="utf-8")
    assert (tmp_path / "p.csv").read_text(encoding="utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for kind in sorted(SPECS):
        (GOLDEN / f"{kind}.json").write_text(golden_text(kind), encoding="utf-8")
    (GOLDEN / "folds.csv").write_text(golden_folds_text(), encoding="utf-8")
    (GOLDEN / "dataset.csv").write_text(golden_dataset_text(), encoding="utf-8")
    for name, text in golden_cli_texts().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
