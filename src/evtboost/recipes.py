"""Concrete train-and-score recipes for cross-validation and tuning.

A recipe owns the mapping from a GridDataset split to model inputs: which
rows are in the loss's domain, which response/transform to use, and how to
turn raw scores into the quantities being scored.  Enrichers (model
imputation of the other response) are fitted on the training split only
and applied to both splits, so no validation information leaks into
training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import booster as B
from . import dataset as D
from . import losses as L
from . import mixture as M
from .errors import DataError
from .evaluate import ThresholdScoreSpec, threshold_score


def response_rows(ds: D.GridDataset, loss_kind: str, response: str, u: float):
    """(row mask, y) of the observations a loss kind can train on."""
    if response == "cnt":
        obs = ~np.isnan(ds.cnt)
        if loss_kind not in ("poisson", "dgpd"):
            raise DataError(f"loss {loss_kind!r} does not model counts")
        return obs, ds.cnt[obs]
    if response != "ba":
        raise DataError(f"unknown response {response!r}")
    obs = ~np.isnan(ds.ba)
    ba = ds.ba
    if loss_kind == "squared_log":
        return obs, ba[obs]
    if loss_kind == "trgamma":
        rows = obs & (ba > 0) & (ba <= u)
        return rows, np.log1p(ba[rows])
    if loss_kind == "gpd":
        rows = obs & (ba > u)
        return rows, ba[rows] - u
    if loss_kind == "cross_entropy":
        return obs, D.ba_class_labels(ba[obs], u)
    raise DataError(f"loss {loss_kind!r} does not model burned areas")


def count_threshold_probs(loss: L.LossSpec, theta, thresholds) -> np.ndarray:
    """Matrix of P(Y <= u_j) from the raw scores ``theta`` of a count model
    (dgpd or poisson)."""
    from scipy import special
    theta = np.asarray(theta, dtype=float)[:, None]
    ks = np.floor(np.asarray(thresholds, dtype=float))[None, :]
    if loss.kind == "dgpd":
        return 1.0 - L.dgpd_survival(ks + 1.0, theta, loss.alpha)
    if loss.kind == "poisson":
        return special.pdtr(ks, np.exp(theta))
    raise DataError(f"loss {loss.kind!r} has no count CDF")


def balanced_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights: n / (C * count of the row's class)."""
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels, minlength=n_classes).astype(float)
    counts[counts == 0] = 1.0
    return labels.size / (n_classes * counts[labels])


@dataclass
class Fitted:
    model: object  # BoostedModel or MixtureModel
    enrichers: list
    residual_sd: float | None = None  # squared_log only


@dataclass
class BoosterRecipe:
    """Single boosted model on one response subset.

    ``metric`` is "nll" (mean loss on the validation rows inside the loss's
    domain) or "threshold" (threshold score from the model-implied CDF;
    count losses and squared_log).  ``enrichers`` are objects with
    fit(train)/transform(ds), fitted on the training split only.
    """

    loss: L.LossSpec
    params: B.TrainParams
    response: str = "cnt"
    u: float = 200.0
    metric: str = "nll"
    score_spec: ThresholdScoreSpec | None = None
    balance_classes: bool = False
    enrichers: list = field(default_factory=list)

    def fit(self, train: D.GridDataset) -> Fitted:
        for e in self.enrichers:
            e.fit(train)
            train = e.transform(train)
        rows, y = response_rows(train, self.loss.kind, self.response, self.u)
        if not rows.any():
            raise DataError("no trainable rows for this loss")
        X, names = train.feature_matrix()
        weights = None
        if self.loss.multiclass and self.balance_classes:
            weights = balanced_weights(y, self.loss.n_classes)
        model = B.fit(X[rows], y, self.loss, self.params, feature_names=names,
                      weights=weights)
        fitted = Fitted(model=model, enrichers=list(self.enrichers))
        if self.loss.kind == "squared_log":
            resid = np.log1p(y) - B.predict_raw(model, X[rows])
            fitted.residual_sd = float(max(resid.std(), 1e-6))
        return fitted

    def score(self, fitted: Fitted, valid: D.GridDataset, checkpoints) -> np.ndarray:
        """Validation score after each checkpointed number of rounds."""
        if self.metric not in ("nll", "threshold"):
            raise DataError(f"unknown metric {self.metric!r}")
        spec = self.score_spec
        if self.metric == "threshold" and spec is None:
            raise DataError("threshold metric requires a score spec")
        for e in fitted.enrichers:
            valid = e.transform(valid)
        rows, y = response_rows(valid, self.loss.kind, self.response, self.u)
        if not rows.any():
            raise DataError("no scorable validation rows")
        X, _ = valid.feature_matrix()
        if self.loss.multiclass:
            y = B._one_hot(y, self.loss.n_classes)
        scores = []
        for theta in B.predict_raw_staged(fitted.model, X[rows], checkpoints):
            if self.metric == "nll":
                v, _, _ = L.evaluate_loss(self.loss, y, theta)
                scores.append(float(v.mean()))
            elif self.loss.kind == "squared_log":
                from scipy import special
                z = (np.log1p(spec.thresholds)[None, :] - theta[:, None])
                probs = special.ndtr(z / fitted.residual_sd)
                scores.append(threshold_score(probs, y, spec))
            else:
                probs = count_threshold_probs(self.loss, theta, spec.thresholds)
                scores.append(threshold_score(probs, y, spec))
        return np.array(scores)


@dataclass
class MixtureRecipe:
    """Three-component burned-area mixture scored by the threshold score.

    ``vary`` names the component whose round count the CV checkpoints
    stage (the other components keep their full tree lists).
    """

    classifier_params: B.TrainParams
    bulk_params: B.TrainParams
    tail_params: B.TrainParams
    u: float = 200.0
    xi: float = 0.8
    kappa: float = 0.5
    k_shape: float = 1.0
    score_spec: ThresholdScoreSpec | None = None
    vary: str = "classifier"
    enrichers: list = field(default_factory=list)

    def fit(self, train: D.GridDataset):
        for e in self.enrichers:
            e.fit(train)
            train = e.transform(train)
        rows = ~np.isnan(train.ba)
        X, names = train.feature_matrix()
        model = M.fit_mixture(
            X[rows], train.ba[rows], u=self.u, xi=self.xi, kappa=self.kappa,
            k_shape=self.k_shape, classifier_params=self.classifier_params,
            bulk_params=self.bulk_params, tail_params=self.tail_params,
            feature_names=names,
        )
        return Fitted(model=model, enrichers=list(self.enrichers))

    def score(self, fitted, valid: D.GridDataset, checkpoints) -> np.ndarray:
        """Validation threshold score after each checkpointed number of
        rounds of the ``vary`` component."""
        parts = ("classifier", "bulk", "tail")
        if self.vary not in parts:
            raise DataError(f"unknown component {self.vary!r}")
        spec = self.score_spec or _default_ba_spec()
        for e in fitted.enrichers:
            valid = e.transform(valid)
        rows = ~np.isnan(valid.ba)
        if not rows.any():
            raise DataError("no scorable validation rows")
        X, _ = valid.feature_matrix()
        X = X[rows]
        m = fitted.model
        raw = {name: B.predict_raw(getattr(m, name), X)
               for name in parts if name != self.vary}
        scores = []
        for theta in B.predict_raw_staged(getattr(m, self.vary), X, checkpoints):
            raw[self.vary] = theta
            probs = M.cdf_from_raw(m, [raw[name] for name in parts], spec.thresholds)
            scores.append(threshold_score(probs, valid.ba[rows], spec))
        return np.array(scores)


def _default_ba_spec() -> ThresholdScoreSpec:
    from .evaluate import default_score_spec

    return default_score_spec("ba")


@dataclass
class CntImputationEnricher:
    """Appends cnt_cov from a fold-local dGPD counts model (no BA inputs)."""

    alpha: float
    params: B.TrainParams
    _aux: B.BoostedModel | None = None

    def fit(self, train: D.GridDataset) -> None:
        rows = ~np.isnan(train.cnt)
        if not rows.any():
            raise DataError("no observed counts to fit the imputation model")
        X, names = train.feature_matrix()
        loss = L.LossSpec(kind="dgpd", alpha=self.alpha)
        self._aux = B.fit(X[rows], train.cnt[rows], loss, self.params,
                          feature_names=names)

    def transform(self, ds: D.GridDataset) -> D.GridDataset:
        return D.impute_cnt_covariate(ds, self._aux)


@dataclass
class BaClassImputationEnricher:
    """Appends p_zero/p_med/p_large from a fold-local size classifier."""

    u: float
    params: B.TrainParams
    _aux: B.BoostedModel | None = None

    def fit(self, train: D.GridDataset) -> None:
        rows = ~np.isnan(train.ba)
        if not rows.any():
            raise DataError("no observed burned areas to fit the classifier")
        X, names = train.feature_matrix()
        loss = L.LossSpec(kind="cross_entropy", n_classes=3)
        labels = D.ba_class_labels(train.ba[rows], self.u)
        self._aux = B.fit(X[rows], labels, loss, self.params, feature_names=names)

    def transform(self, ds: D.GridDataset) -> D.GridDataset:
        return D.impute_ba_class_covariates(ds, self._aux, u=self.u)
