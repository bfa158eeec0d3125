"""Batch command-line interface.

Subcommands: train, predict, cvfolds, tune, score, pdp, importance, synth.
Configuration is an INI file with sections data/schema/loss/train/cv/score/
tune; unknown sections or keys are rejected.  Every run appends one line to
a plaintext run log (config hash, seed, wall time, exit status).  Exit
codes: 0 ok, 1 configuration error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import time
from dataclasses import replace
from functools import partialmethod

import numpy as np

from . import booster as B
from . import dataset as D
from . import evaluate as E
from . import interpret as I
from . import losses as L
from . import mixture as M
from . import recipes as R
from . import spatialcv as S
from . import synth
from .errors import ConfigError, DataError, NumericalError, open_text

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3

_SECTION_KEYS = {
    "data": {"train", "spacing", "missing", "season"},
    "schema": {"lon", "lat", "year", "month", "cnt", "ba", "covariates"},
    "loss": {"kind", "alpha", "xi", "kappa", "k_shape", "u"},
    "train": {"n_trees", "learning_rate", "max_leaves", "lambda_reg", "eta",
              "colsample", "n_quantile_bins", "seed"},
    "cv": {"n_folds", "seed", "beta0_cnt", "beta0_ba", "beta", "range",
           "sigma_gp", "nu", "phi"},
    "score": {"weights", "response"},
    "tune": {"learning_rate", "max_leaves", "lambda_reg", "eta", "colsample",
             "alpha", "xi", "k_shape"},
}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


class RunConfig:
    """Parsed INI configuration with strict key checking."""

    def __init__(self, path: str | None):
        cp = configparser.ConfigParser()
        if path is not None:
            if not os.path.exists(path):
                raise ConfigError(f"config file {path!r} does not exist")
            with open(path, "rb") as fh:
                raw = fh.read()
            try:
                cp.read_string(raw.decode("utf-8"))
            except (configparser.Error, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
            for section in cp.sections():
                if section not in _SECTION_KEYS:
                    raise ConfigError(f"unknown config section [{section}]")
                unknown = set(cp[section]) - _SECTION_KEYS[section]
                if unknown:
                    raise ConfigError(
                        f"unknown keys in [{section}]: {sorted(unknown)}")
        self.cp = cp

    def get(self, section, key, default=None):
        if self.cp.has_option(section, key):
            return self.cp.get(section, key)
        return default

    def _get_as(self, parse, what, section, key, default=None):
        val = self.get(section, key)
        if val is None:
            return default
        try:
            return parse(val)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {what}, got {val!r}") from None

    getfloat = partialmethod(_get_as, float, "a number")
    getint = partialmethod(_get_as, int, "an integer")
    getseed = partialmethod(_get_as, _seed, "an integer >= 0")

    # -- builders ----------------------------------------------------------

    def load_dataset(self, path: str | None = None) -> D.GridDataset:
        """The data CSV at ``path`` (default: ``[data] train``), read with
        this config's schema, marker, season and grid spacing."""
        spacing = self.getfloat("data", "spacing", 0.5)
        if not 0.0 < spacing < np.inf:
            raise ConfigError(f"[data] spacing must be finite and > 0, got {spacing!r}")
        path = path or self.get("data", "train")
        if path is None:
            raise ConfigError("config needs [data] train = <csv path>")
        if not os.path.exists(path):
            raise ConfigError(f"data file {path!r} does not exist")
        schema = {role: self.get("schema", role, D.DEFAULT_SCHEMA[role])
                  for role in D.DEFAULT_SCHEMA}
        season_text = self.get("data", "season", "3-9")
        try:
            lo, hi = (int(t) for t in season_text.split("-"))
            if not 1 <= lo <= hi <= 12:
                raise ValueError
        except ValueError:
            raise ConfigError(f"[data] season must be 'lo-hi' months with "
                              f"1 <= lo <= hi <= 12, got {season_text!r}") from None
        cov_text = self.get("schema", "covariates")
        covs = [t.strip() for t in cov_text.split(",")] if cov_text else None
        return D.load_csv(
            path,
            schema=schema,
            missing_marker=self.get("data", "missing", "NA"),
            season=tuple(range(lo, hi + 1)),
            spacing=spacing,
            covariate_columns=covs,
        )

    def loss_spec(self, kind: str | None = None) -> L.LossSpec:
        kind = kind or self.get("loss", "kind")
        if kind is None:
            raise ConfigError("loss kind required (--loss or [loss] kind)")
        return _build(
            L.LossSpec,
            kind=kind,
            alpha=self.getfloat("loss", "alpha", 1.0),
            xi=self.getfloat("loss", "xi", 0.8),
            kappa=self.getfloat("loss", "kappa", 0.5),
            k_shape=self.getfloat("loss", "k_shape", 1.0),
            u_trunc=float(np.log1p(self.threshold_u())),
        )

    def threshold_u(self) -> float:
        return self.getfloat("loss", "u", 200.0)

    def train_params(self) -> B.TrainParams:
        return _build(
            B.TrainParams,
            n_trees=self.getint("train", "n_trees", 100),
            learning_rate=self.getfloat("train", "learning_rate", 0.1),
            max_leaves=self.getint("train", "max_leaves", 8),
            lambda_reg=self.getfloat("train", "lambda_reg", 1.0),
            eta=self.getfloat("train", "eta", 0.0),
            colsample=self.getfloat("train", "colsample", 1.0),
            n_quantile_bins=self.getint("train", "n_quantile_bins", 32),
            seed=self.getseed("train", "seed", 0),
        )

    def mask_params(self, ds: D.GridDataset) -> S.MaskModelParams:
        given = {key: self.getfloat("cv", key) for key in ("beta0_cnt", "beta0_ba")
                 if self.get("cv", key) is not None}
        params = _build(
            S.MaskModelParams,
            **given,
            beta=self.getfloat("cv", "beta", 0.42),
            r=self.getfloat("cv", "range", 2.0),
            sigma_gp=self.getfloat("cv", "sigma_gp", 1.0),
            nu=self.getfloat("cv", "nu", 1.0),
            phi=self.getfloat("cv", "phi", 0.25),
        )
        # each intercept the config leaves unset is calibrated to the
        # dataset's observed masking rate
        if len(given) < 2:
            params = replace(S.calibrate_intercepts(ds, params), **given)
        return params


def _build(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a :class:`DataError` raised as a :class:`ConfigError`."""
    try:
        return make(*args, **kwargs)
    except DataError as exc:
        raise ConfigError(str(exc)) from exc


def _read_numbers(path) -> np.ndarray:
    if not os.path.exists(path):
        raise ConfigError(f"file {path!r} does not exist")
    vals = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(float(line))
            except ValueError:
                vals.append(np.nan)
            if not np.isfinite(vals[-1]):
                raise DataError(f"{path}:{lineno}: not a finite number: {line!r}")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _training_setup(args):
    """(config, train params, cross-filled dataset, loss) for train, cv and tune."""
    cfg = RunConfig(args.config)
    params = cfg.train_params()
    ds = D.cross_fill_zeros(cfg.load_dataset())
    return cfg, params, ds, cfg.loss_spec(args.loss)


def cmd_train(args) -> int:
    cfg, params, ds, loss = _training_setup(args)
    if args.seed is not None:
        params = _build(replace, params, seed=args.seed)
    X, y, names = R.training_matrix(ds, loss, cfg.threshold_u())
    del ds  # the fit keeps only the training rows' features alive
    model = B.fit(X, y, loss, params, feature_names=names)
    B.save(model, args.out)
    print(f"rounds={model.n_rounds}")
    print(f"train_loss={model.train_losses[-1]!r}")
    print(f"model={args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    ds = RunConfig(args.config).load_dataset(args.data)
    X, names = ds.feature_matrix()
    keys = [ds.cell_index, ds.year, ds.month]
    del ds   # its covariates are copied into X
    model = M.load(args.model)
    thresholds = _read_numbers(args.thresholds) if args.thresholds else None
    if isinstance(model, M.MixtureModel) and thresholds is None:
        thresholds = E.BA_THRESHOLDS
    if thresholds is not None:
        # the rule score applies to the columns this writes
        thresholds = E.ThresholdScoreSpec(thresholds).thresholds
        header = [f"p_le_{float(t)!r}" for t in thresholds]
    if isinstance(model, M.MixtureModel):
        values = M.threshold_probs(model, X, thresholds, names=names)
    else:
        if model.loss.multiclass and model.loss.n_classes != 3:
            raise DataError(f"cross_entropy model has {model.loss.n_classes} classes; "
                            f"predict writes the 3 size classes")
        raw = B.predict_raw(model, D.align_features(X, names, model.feature_names))
        if thresholds is not None:
            values = R.count_threshold_probs(model.loss, raw, thresholds)
        elif model.loss.multiclass:
            header, values = ["p_zero", "p_med", "p_large"], L.softmax(raw)
        elif model.loss.kind == "dgpd" and model.loss.alpha > 1.0:
            header = ["raw", "mean"]
            values = np.column_stack([raw, L.dgpd_mean(raw, model.loss.alpha)])
        else:
            header, values = ["raw"], raw[:, None]
    D.write_csv(args.out, ["cell", "year", "month"] + header, [*keys, *values.T])
    return EXIT_OK


def cmd_cvfolds(args) -> int:
    cfg = RunConfig(args.config)
    n_folds = args.n_folds if args.n_folds is not None else cfg.getint("cv", "n_folds", 5)
    seed = args.seed if args.seed is not None else cfg.getseed("cv", "seed", 0)
    ds = cfg.load_dataset()
    if not 1 <= n_folds <= ds.n_rows:
        raise ConfigError(f"the fold count must lie in [1, {ds.n_rows}] (the data's rows), "
                          f"got {n_folds}")
    params = cfg.mask_params(ds)
    folds = S.generate_folds(ds, params, n_folds=n_folds, seed=seed)
    S.save_folds(folds, ds, args.out)
    total = int(folds.masks.sum())
    print(f"n_folds={n_folds}")
    print(f"validation_keys={total}")
    print(f"folds={args.out}")
    return EXIT_OK


def cmd_tune(args) -> int:
    if args.max_iters < 1:
        raise ConfigError("--max-iters must be at least 1")
    cfg, base_params, ds, loss = _training_setup(args)
    seed = args.seed if args.seed is not None else base_params.seed

    box: dict[str, tuple[float, float]] = {}
    if cfg.cp.has_section("tune"):
        for key in cfg.cp["tune"]:
            text = cfg.get("tune", key)
            try:
                lo, hi = map(float, text.split(","))
            except ValueError:
                lo = hi = np.nan
            if not (np.isfinite([lo, hi]).all() and lo < hi):
                raise ConfigError(f"[tune] {key} must be two finite numbers 'lo, hi' "
                                  f"with lo < hi, got {text!r}")
            box[key] = (lo, hi)
    if not box:
        box = {"learning_rate": (0.02, 0.3), "max_leaves": (2, 16),
               "lambda_reg": (0.0, 10.0)}

    int_params = {"max_leaves"}
    loss_params = {"alpha", "xi", "k_shape"}

    def setup(point: dict) -> tuple[B.TrainParams, L.LossSpec]:
        kwargs, lkw = {}, {}
        for key, val in point.items():
            if key in int_params:
                kwargs[key] = int(round(val))
            elif key in loss_params:
                lkw[key] = float(val)
            else:
                kwargs[key] = float(val)
        params = _build(replace, base_params, **kwargs)
        spec = loss if not lkw else _build(L.LossSpec, **{**loss.hyperparams(), **lkw})
        return params, spec

    # each parameter check is a range, so valid corners make the whole box valid
    for corner in (0, 1):
        setup({key: bounds[corner] for key, bounds in box.items()})
    folds = S.load_folds(args.folds, ds)

    def objective(point: dict) -> float:
        params, spec = setup(point)
        recipe = R.BoosterRecipe(loss=spec, params=params, u=cfg.threshold_u())
        cv = E.run_cv(ds, folds, recipe, checkpoints=[params.n_trees])
        return float(cv.mean[0])

    history = E.tune_loop(objective, box, n_iters=args.max_iters, seed=seed)
    names = list(box)
    table = np.array([[p[k] for k in names] + [s] for p, s in history])
    D.write_csv(args.out, ["iteration"] + names + ["score"],
                [range(len(history)), *table.T.tolist()])
    best = min(history, key=lambda hs: hs[1])
    for k in names:
        print(f"best_{k}={best[0][k]!r}")
    print(f"best_score={best[1]!r}")
    print(f"log={args.out}")
    return EXIT_OK


def cmd_cv(args) -> int:
    try:
        checkpoints = sorted({int(t) for t in args.checkpoints.split(",")})
        if checkpoints[0] < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--checkpoints must be comma-separated integers >= 0, "
                          f"got {args.checkpoints!r}") from None
    cfg, params, ds, loss = _training_setup(args)
    folds = S.load_folds(args.folds, ds)
    params = _build(replace, params, n_trees=max(checkpoints))
    recipe = R.BoosterRecipe(loss=loss, params=params, u=cfg.threshold_u())
    cv = E.run_cv(ds, folds, recipe, checkpoints=checkpoints)
    E.save_cv_report(cv, args.out)
    selected = E.one_se_select(cv, direction=args.direction)
    print(f"selected_n_trees={selected}")
    print(f"min_mean_score={float(cv.mean.min())!r}")
    print(f"report={args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    cfg = RunConfig(args.config)
    response = args.response or cfg.get("score", "response", "ba")
    ds = cfg.load_dataset(args.data)
    prob_cols, rows, probs = _read_predictions(args.pred, ds)
    if args.thresholds:
        thresholds = _read_numbers(args.thresholds)
    else:
        try:
            thresholds = np.array([float(c.removeprefix("p_le_")) for c in prob_cols])
        except ValueError:
            raise DataError("cannot infer thresholds from prediction header; "
                            "pass --thresholds") from None
    weights_path = cfg.get("score", "weights")
    weights = _read_numbers(weights_path) if weights_path else None
    spec = E.ThresholdScoreSpec(thresholds, weights)
    if spec.thresholds.size != len(prob_cols):
        raise DataError("threshold count does not match prediction columns")
    score = E.threshold_score(probs, (ds.cnt if response == "cnt" else ds.ba)[rows], spec)
    print(f"score={score!r}")
    return EXIT_OK


def _read_predictions(path, ds: D.GridDataset):
    """(probability column names, data row of each prediction row, (n, J)
    probabilities) of a prediction export that covers every row of ``ds``
    once, matched by (cell, year, month)."""
    with D.open_table(path) as (header, n, blocks):
        if header is None or header[:3] != ["cell", "year", "month"]:
            raise DataError(f"{path}: not a prediction export")
        keys, probs = np.empty((n, 3)), np.empty((n, len(header) - 3))

        def check(v, missing):
            outside = (v[:, 3:] < 0) | (v[:, 3:] > 1)
            return D.first_fault([
                (D.not_integer(v[:, :3]).any(axis=1),
                 lambda i: "cell, year and month must be integers"),
                (outside.any(axis=1),
                 lambda i: f"probability {v[i, 3 + np.argmax(outside[i])]:g} outside [0, 1]"),
            ])

        for o, v in blocks(check):
            keys[o:o + len(v)], probs[o:o + len(v)] = v[:, :3], v[:, 3:]
    keys = keys.astype(np.int64)
    rows = ds.rows_of(*keys.T)
    bad = (rows < 0) | (D.match_rows((rows,), (rows,)) != np.arange(n))
    if bad.any():
        i = int(np.argmax(bad))
        what = "no data row" if rows[i] < 0 else "a repeated key"
        raise DataError(f"{path}:{i + 2}: {what} for (cell, year, month) = "
                        f"{tuple(keys[i].tolist())}")
    if n != ds.n_rows:
        raise DataError("prediction rows do not match data rows")
    return header[3:], rows, probs


def _single_model(args) -> B.BoostedModel:
    """The model at ``--model``, which must not be a mixture manifest."""
    model = M.load(args.model)
    if isinstance(model, M.MixtureModel):
        raise DataError(f"{args.command} needs a single model, got the mixture {args.model}")
    return model


def cmd_pdp(args) -> int:
    if args.points < 1 or args.n_sub < 1:
        raise ConfigError("--points and --n-sub must be at least 1")
    model = _single_model(args)
    ds = RunConfig(None).load_dataset(args.data)
    if args.points > ds.n_rows:
        raise ConfigError(f"--points must be at most the {ds.n_rows} rows of --data")
    X, names = ds.feature_matrix()
    del ds   # its covariates are copied into X
    Xa = D.align_features(X, names, model.feature_names)
    feats = [f.strip() for f in args.features.split(",")]
    idx = []
    for f in feats:
        if f not in model.feature_names:
            raise DataError(f"model has no feature {f!r}")
        idx.append(model.feature_names.index(f))
    grids = []
    for j in idx:
        col = Xa[:, j]
        col = col[~np.isnan(col)]
        grids.append(np.unique(np.quantile(col, np.linspace(0.0, 1.0, args.points))))
    mesh = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=-1)

    transform = None
    if args.transform == "mean":
        if model.loss.kind != "dgpd" or model.loss.alpha <= 1.0:
            raise DataError("--transform mean needs a dgpd model with alpha > 1")
        transform = lambda raw: L.dgpd_mean(raw, model.loss.alpha)
    elif args.transform != "none":
        raise ConfigError(f"unknown transform {args.transform!r}")

    res = I.partial_dependence(model, Xa, idx, mesh, n_sub=args.n_sub,
                               transform=transform, seed=args.seed)
    D.write_csv(args.out, feats + ["estimate", "lo", "hi"],
                [*res.grid.T.tolist(), res.estimate.tolist(), res.lo.tolist(), res.hi.tolist()])
    print(f"points={res.grid.shape[0]}")
    print(f"pdp={args.out}")
    return EXIT_OK


def cmd_importance(args) -> int:
    model = _single_model(args)
    imp = I.importance(model, metric=args.metric)
    D.write_csv(args.out, ["feature", "proportion"],
                [list(imp), [float(v) for v in imp.values()]])
    for k, v in imp.items():
        print(f"{k}={v!r}")
    print(f"importance={args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if min(args.years, args.nx, args.ny) < 1 or not 0.0 <= args.mask_rate <= 1.0:
        raise ConfigError("--years, --nx and --ny must be at least 1 and "
                          "--mask-rate must lie in [0, 1]")
    if not 0.0 < args.alpha < np.inf:
        raise ConfigError(f"--alpha must be finite and > 0, got {args.alpha!r}")
    ds = synth.synth_dataset(args.kind, n_years=args.years, nx=args.nx, ny=args.ny,
                             seed=args.seed, alpha=args.alpha,
                             mask_rate=args.mask_rate)
    D.save_csv(ds, args.out)
    print(f"rows={ds.n_rows}")
    print(f"data={args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evtboost",
                                     description="Extreme-value gradient boosting")
    parser.add_argument("--runlog", default="runs.log",
                        help="plaintext run log to append to")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a single-loss model")
    p.add_argument("--config", required=True)
    p.add_argument("--loss", default=None, choices=list(L.LOSS_KINDS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict with a model or mixture manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--thresholds", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cvfolds", help="generate spatial validation folds")
    p.add_argument("--config", required=True)
    p.add_argument("--n-folds", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cvfolds)

    p = sub.add_parser("cv", help="tree-count curve over spatial folds")
    p.add_argument("--config", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--loss", default=None, choices=list(L.LOSS_KINDS))
    p.add_argument("--checkpoints", default="25,50,100,200",
                   help="comma-separated tree counts to score")
    p.add_argument("--direction", default="largest", choices=["largest", "smallest"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("tune", help="Bayesian-optimization hyperparameter search")
    p.add_argument("--config", required=True)
    p.add_argument("--folds", required=True)
    p.add_argument("--loss", default=None, choices=list(L.LOSS_KINDS))
    p.add_argument("--max-iters", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("score", help="threshold-score a prediction export")
    p.add_argument("--pred", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--response", default=None, choices=["cnt", "ba"])
    p.add_argument("--thresholds", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("pdp", help="partial dependence export")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--features", required=True, help="comma-separated feature names")
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--n-sub", type=int, default=10000)
    p.add_argument("--transform", default="none", help="none or mean")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pdp)

    p = sub.add_parser("importance", help="covariate importance export")
    p.add_argument("--model", required=True)
    p.add_argument("--metric", default="gain", choices=["gain", "coverage"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("synth", help="write a synthetic dataset")
    p.add_argument("--kind", required=True, choices=["counts", "sizes"])
    p.add_argument("--years", type=int, default=2)
    p.add_argument("--nx", type=int, default=6)
    p.add_argument("--ny", type=int, default=6)
    p.add_argument("--alpha", type=float, default=5.0)
    p.add_argument("--mask-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def _append_runlog(path, command, config_hash, seed, wall, status) -> None:
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"cmd={command} config_hash={config_hash} seed={seed} "
                     f"wall_time={wall:.3f}s status={status}\n")
    except OSError:
        pass  # the run log must never break the run


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that is a configuration error here
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG

    t0 = time.perf_counter()
    status = EXIT_OK
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        status = args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        status = EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        status = EXIT_NUMERIC
    finally:
        cfg_path = getattr(args, "config", None)
        if cfg_path and os.path.exists(cfg_path):
            with open(cfg_path, "rb") as fh:
                cfg_hash = hashlib.sha256(fh.read()).hexdigest()[:12]
        else:
            cfg_hash = hashlib.sha256(b"").hexdigest()[:12]
        seed = getattr(args, "seed", None)
        _append_runlog(args.runlog, args.command, cfg_hash,
                       seed if seed is not None else "NA",
                       time.perf_counter() - t0, status)
    return status


if __name__ == "__main__":
    sys.exit(main())
