"""The benchmark's workloads: inputs made from a seed, the CLI commands a
batch user runs on them, and a check of every command's output.

``setup(workdir, seed)`` writes the inputs into ``workdir`` and returns
the command steps.  Each step names the end-to-end metric its wall time
feeds, the files whose sha256 the run records, and a check that raises
``CheckError`` on a wrong output and returns accuracy values to report.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from evtboost import cli, synth
from evtboost import dataset as D

SEASON_MONTHS = len(synth.SEASON)

# fit_wide / predict_wide: the paper's width (x1, x2 and 33 noise covariates,
# plus lon/lat/year/month = 39 features) on a 30x20 grid over 3 seasons.
WIDE_NX, WIDE_NY, WIDE_YEARS = 30, 20, 3
WIDE_NOISE = 33
WIDE_MASK_RATE = 0.10        # share of each response masked
WIDE_MISSING_RATE = 0.05     # share of covariate values missing
WIDE_ROWS = WIDE_NX * WIDE_NY * WIDE_YEARS * SEASON_MONTHS
WIDE_TREES = 10
# predict_wide reads 10-tree models like fit_wide's, trained in set-up on a
# subsample with 4 leaves a tree: set-up is repeated, and split search costs
# per node and feature, not per row, at this size.
PRETRAIN_ROWS, PRETRAIN_LEAVES = 1500, 4
CV_CHECKPOINTS = "2,4,6,8,10"
# pdp sends 30 grid points x 5000 sampled rows through dgpd_mean, so reading
# models dominates predict_wide; the default --n-sub 10000 fails like predict_full
PDP_POINTS, PDP_N_SUB = 30, 5000
DEFAULT_BA_THRESHOLDS = 28

# Failures the benchmark expects at the parent code:
# (workload, step) -> (text the exception or stderr must name, cause).
KNOWN_FAILURES = {
    ("predict_wide", "predict_full"): (
        "MemoryError",
        "losses.dgpd_mean allocates rows x 4096 float64 blocks for the mean column, "
        "which exceeds the memory cap at the full prediction set"),
}


def known_failure(workload: str, label: str, exc: str | None, stderr: str) -> str | None:
    """The cause of a failure the benchmark expects, or None.  A failure is
    known only when it is the expected error, not any failure of that step."""
    marker, cause = KNOWN_FAILURES.get((workload, label), (None, None))
    if marker is None or (marker not in (exc or "") and marker not in stderr):
        return None
    return f"{marker}: {cause}"


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass
class Step:
    label: str
    args: list[str]
    metric: str | None                  # end-to-end metric fed by the wall time
    outputs: tuple[str, ...]            # files hashed into the run's digests
    check: Callable[[Path, str], dict]  # (workdir, stdout) -> accuracy values
    probe: bool = False                 # runs first in every pass; feeds no metric


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_table(path: Path, header: list[str] | None, n_rows: int | None):
    """Rows of a CSV output after checking its header and row count."""
    _expect(path.exists(), f"{path.name} was not written")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _expect(bool(rows), f"{path.name} is empty")
    if header is not None:
        _expect(rows[0] == header, f"{path.name} header {rows[0]} != {header}")
    if n_rows is not None:
        _expect(len(rows) - 1 == n_rows, f"{path.name} has {len(rows) - 1} rows, want {n_rows}")
    return rows[0], rows[1:]


def numbers(rows, cols, name: str) -> np.ndarray:
    """Float matrix of the given columns, required to be finite."""
    vals = np.array([[float(r[c]) for c in cols] for r in rows], dtype=float)
    vals = vals.reshape(len(rows), len(cols))
    _expect(bool(np.isfinite(vals).all()), f"{name}: non-finite values")
    return vals


def stdout_value(stdout: str, key: str) -> float:
    """Number printed as ``key=value``; numpy scalars print as np.float64(v)."""
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            text = line.split("=", 1)[1].strip()
            if text.startswith("np.float64(") and text.endswith(")"):
                text = text[len("np.float64("):-1]
            try:
                val = float(text)
            except ValueError:
                break
            _expect(math.isfinite(val), f"{key} is not finite: {text}")
            return val
    raise CheckError(f"stdout has no numeric {key}=")


def check_model(name: str, n_trees: int):
    def check(workdir: Path, stdout: str) -> dict:
        _expect((workdir / name).exists(), f"{name} was not written")
        doc = json.loads((workdir / name).read_text(encoding="utf-8"))
        _expect(len(doc.get("trees", [])) == n_trees,
                f"{name} has {len(doc.get('trees', []))} trees, want {n_trees}")
        stdout_value(stdout, "train_loss")
        return {}
    return check


def check_dgpd_predict(name: str, n_rows: int):
    def check(workdir: Path, stdout: str) -> dict:
        _, rows = read_table(workdir / name, ["cell", "year", "month", "raw", "mean"], n_rows)
        vals = numbers(rows, [3, 4], name)
        _expect(bool((vals[:, 1] >= 0).all()), f"{name}: negative mean")
        return {}
    return check


def check_mixture_predict(name: str, n_rows: int, n_thresholds: int):
    def check(workdir: Path, stdout: str) -> dict:
        header, rows = read_table(workdir / name, None, n_rows)
        _expect(header[:3] == ["cell", "year", "month"] and len(header) == 3 + n_thresholds
                and all(h.startswith("p_le_") for h in header[3:]),
                f"{name}: unexpected header {header[:5]}...")
        p = numbers(rows, range(3, 3 + n_thresholds), name)
        _expect(bool(((p >= 0) & (p <= 1)).all()), f"{name}: probability outside [0, 1]")
        _expect(bool((np.diff(p, axis=1) >= 0).all()),
                f"{name}: probabilities decrease across thresholds")
        return {}
    return check


def check_folds(name: str, n_folds: int):
    def check(workdir: Path, stdout: str) -> dict:
        keys = int(stdout_value(stdout, "validation_keys"))
        _, rows = read_table(workdir / name,
                             ["fold", "response", "lon", "lat", "year", "month"], keys)
        _expect(keys > 0, f"{name}: no validation keys")
        _expect({int(r[0]) for r in rows} <= set(range(n_folds)), f"{name}: bad fold index")
        return {}
    return check


def check_cv(name: str, n_checkpoints: int, n_folds: int):
    def check(workdir: Path, stdout: str) -> dict:
        header = ["n_trees", "mean_score", "se"] + [f"fold{f}" for f in range(n_folds)]
        _, rows = read_table(workdir / name, header, n_checkpoints)
        numbers(rows, range(len(header)), name)
        return {"cv_score": stdout_value(stdout, "min_mean_score")}
    return check


def check_score(workdir: Path, stdout: str) -> dict:
    score = stdout_value(stdout, "score")
    _expect(score >= 0, f"threshold score {score} is negative")
    return {"mix_score": score}


def check_pdp(name: str, feature: str, points: int):
    def check(workdir: Path, stdout: str) -> dict:
        _, rows = read_table(workdir / name, [feature, "estimate", "lo", "hi"], None)
        _expect(1 <= len(rows) <= points, f"{name}: {len(rows)} grid points")
        vals = numbers(rows, [0, 1, 2, 3], name)
        _expect(bool((vals[:, 2] <= vals[:, 3]).all()), f"{name}: lo > hi")
        return {}
    return check


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# fit_wide and predict_wide: data at the paper's width
# ---------------------------------------------------------------------------

def wide_dataset(seed: int) -> D.GridDataset:
    """The synth sizes grid (its counts are the synth counts draws) widened
    with noise covariates, with masked responses and missing covariates."""
    ds = synth.synth_dataset("sizes", n_years=WIDE_YEARS, nx=WIDE_NX, ny=WIDE_NY,
                             seed=seed, mask_rate=WIDE_MASK_RATE)
    rng = np.random.default_rng([seed, 1])
    noise = np.round(rng.standard_normal((ds.n_rows, WIDE_NOISE)), 3)
    covs = np.column_stack([ds.covariates, noise])
    covs[rng.uniform(size=covs.shape) < WIDE_MISSING_RATE] = np.nan
    names = ds.covariate_names + [f"z{j:02d}" for j in range(WIDE_NOISE)]
    return dataclasses.replace(ds, covariates=covs, covariate_names=names)


WIDE_INI = f"""[data]
train = {{train}}

[loss]
kind = dgpd
alpha = 5.0
u = 200.0
xi = 0.8
kappa = 0.5
k_shape = 1.2

[train]
n_trees = {WIDE_TREES}
max_leaves = {{max_leaves}}
seed = 3
"""

MIXTURE_COMPONENTS = (("cross_entropy", "cls"), ("trgamma", "bulk"), ("gpd", "tail"))


def _write_wide(workdir: Path, seed: int) -> D.GridDataset:
    ds = wide_dataset(seed)
    D.save_csv(ds, workdir / "wide.csv")
    (workdir / "wide.ini").write_text(WIDE_INI.format(train="wide.csv", max_leaves=8),
                                      encoding="utf-8")
    return ds


def setup_fit_wide(workdir: Path, seed: int) -> list[Step]:
    _write_wide(workdir, seed)
    steps = [Step("train_dgpd", ["train", "--config", "wide.ini", "--loss", "dgpd",
                                 "--out", "model.json"],
                  "train_s", ("model.json",), check_model("model.json", WIDE_TREES))]
    for kind, name in MIXTURE_COMPONENTS:
        trees = WIDE_TREES * (3 if kind == "cross_entropy" else 1)
        steps.append(Step(f"train_{name}", ["train", "--config", "wide.ini", "--loss", kind,
                                            "--out", f"{name}.json"],
                          "train_mix_s", (f"{name}.json",), check_model(f"{name}.json", trees)))
    n_checkpoints = len(CV_CHECKPOINTS.split(","))
    steps += [
        Step("cvfolds", ["cvfolds", "--config", "wide.ini", "--n-folds", "3", "--seed", "7",
                         "--out", "folds.csv"],
             "cvfolds_s", ("folds.csv",), check_folds("folds.csv", 3)),
        Step("cv", ["cv", "--config", "wide.ini", "--folds", "folds.csv", "--loss", "dgpd",
                    "--checkpoints", CV_CHECKPOINTS, "--out", "cv.csv"],
             "cv_s", ("cv.csv",), check_cv("cv.csv", n_checkpoints, 3)),
    ]
    return steps


def setup_predict_wide(workdir: Path, seed: int) -> list[Step]:
    ds = _write_wide(workdir, seed)
    last = ds.year == ds.year.max()
    D.save_csv(ds.subset(np.flatnonzero(last)), workdir / "year.csv")
    rng = np.random.default_rng([seed, 2])
    sub = np.sort(rng.choice(ds.n_rows, size=PRETRAIN_ROWS, replace=False))
    D.save_csv(ds.subset(sub), workdir / "pretrain.csv")
    (workdir / "pretrain.ini").write_text(
        WIDE_INI.format(train="pretrain.csv", max_leaves=PRETRAIN_LEAVES), encoding="utf-8")
    # the models are trained through the CLI's own train command, in-process
    for kind, name in (("dgpd", "model"),) + MIXTURE_COMPONENTS:
        argv = ["--runlog", "setup.log", "train", "--config", "pretrain.ini",
                "--loss", kind, "--out", f"{name}.json"]
        with contextlib.chdir(workdir), contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"set-up training of {kind} failed with exit {status}")
    (workdir / "mix.json").write_text(json.dumps({
        "format_version": 1, "kind": "mixture", "threshold": 200.0,
        "classifier": "cls.json", "bulk": "bulk.json", "tail": "tail.json"},
        sort_keys=True) + "\n", encoding="utf-8")
    n_year = int(last.sum())
    return [
        Step("predict_full", ["predict", "--model", "model.json", "--data", "wide.csv",
                              "--out", "preds_full.csv"],
             None, ("preds_full.csv",), check_dgpd_predict("preds_full.csv", WIDE_ROWS),
             probe=True),
        Step("predict_dgpd", ["predict", "--model", "model.json", "--data", "year.csv",
                              "--out", "preds.csv"],
             "predict_s", ("preds.csv",), check_dgpd_predict("preds.csv", n_year)),
        Step("predict_mix", ["predict", "--model", "mix.json", "--data", "wide.csv",
                             "--out", "mixpred.csv"],
             "predict_mix_s", ("mixpred.csv",),
             check_mixture_predict("mixpred.csv", WIDE_ROWS, DEFAULT_BA_THRESHOLDS)),
        Step("score", ["score", "--pred", "mixpred.csv", "--data", "wide.csv",
                       "--response", "ba"], "score_s", (), check_score),
        Step("pdp", ["pdp", "--model", "model.json", "--data", "wide.csv", "--features", "x1",
                     "--points", str(PDP_POINTS), "--n-sub", str(PDP_N_SUB),
                     "--transform", "mean", "--seed", "2", "--out", "pdp.csv"],
             "pdp_s", ("pdp.csv",), check_pdp("pdp.csv", "x1", PDP_POINTS)),
    ]


# Each workload's "why" is in BENCHMARK.json.
WORKLOADS = {"fit_wide": setup_fit_wide, "predict_wide": setup_predict_wide}
