"""Concrete train-and-score recipes for cross-validation and tuning.

A recipe takes a feature matrix and a response column (NaN = masked), as
:func:`booster.fit` does, and owns the rows and target each loss trains and
is scored on (the loss kind fixes both, see :func:`losses.training_rows`)
and how to turn raw scores into the quantities being scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import booster as B
from . import dataset as D
from . import losses as L
from . import mixture as M
from .errors import DataError
from .evaluate import BA_THRESHOLDS, ThresholdScoreSpec, threshold_score


def count_threshold_probs(loss: L.LossSpec, theta, thresholds) -> np.ndarray:
    """Matrix of P(Y <= u_j) from the raw scores ``theta`` of a count model
    (dgpd or poisson); ``thresholds`` is a 1-d array of u >= 0.  The (n, J)
    grid is evaluated a :func:`dataset.row_blocks` block of rows at a time."""
    from scipy import special
    thresholds = np.asarray(thresholds, dtype=float)
    if np.any(thresholds < 0):
        raise DataError("count threshold must be >= 0")
    if loss.response != "cnt":
        raise DataError(f"loss {loss.kind!r} has no count CDF")
    theta = np.asarray(theta, dtype=float)
    ks = np.floor(thresholds)[None, :]
    out = np.empty((theta.size, ks.size))
    for rows in D.row_blocks(theta.size, ks.size):
        t = theta[rows, None]
        out[rows] = (1.0 - L.dgpd_survival(ks + 1.0, t, loss.alpha) if loss.kind == "dgpd"
                     else special.pdtr(ks, np.exp(t)))
    return out


def training_matrix(X, y, loss: L.LossSpec, u: float):
    """(X, y): the rows of the feature matrix ``X`` and the target that
    ``loss`` trains on, from its response column ``y`` (NaN = masked)."""
    rows, y = L.training_rows(loss.kind, y, u)
    if not rows.any():
        raise DataError("no trainable rows for this loss")
    return X[rows], y


@dataclass
class Fitted:
    """What a recipe's ``fit`` hands to its ``score``; the traced benchmark
    sizes ``fit`` by ``model.trees``."""

    model: object  # BoostedModel or MixtureModel


@dataclass
class BoosterRecipe:
    """Single boosted model on one response subset, scored by the mean loss
    on the validation rows inside the loss's domain."""

    loss: L.LossSpec
    params: B.TrainParams
    u: float = 200.0

    @property
    def response(self) -> str:
        return self.loss.response

    def fit(self, X, y, names) -> Fitted:
        X, y = training_matrix(X, y, self.loss, self.u)
        return Fitted(B.fit(X, y, self.loss, self.params, feature_names=names))

    def score(self, fitted: Fitted, X, y, checkpoints) -> np.ndarray:
        """Validation score after each checkpointed number of rounds."""
        rows, y = L.training_rows(self.loss.kind, y, self.u)
        if not rows.any():
            raise DataError("no scorable validation rows")
        if self.loss.multiclass:
            y = B._one_hot(y)
        scores = []
        for theta in B.predict_raw_staged(fitted.model, X[rows], checkpoints):
            v, _, _ = L.evaluate_loss(self.loss, y, theta)
            scores.append(float(v.mean()))
        return np.array(scores)


@dataclass
class MixtureRecipe:
    """Three-component burned-area mixture scored by the threshold score;
    the CV checkpoints stage the classifier's rounds (the bulk and tail
    models keep their full tree lists)."""

    response = "ba"  # a class attribute, not a field
    classifier_params: B.TrainParams
    bulk_params: B.TrainParams
    tail_params: B.TrainParams
    u: float = 200.0
    xi: float = 0.8
    kappa: float = 0.5
    k_shape: float = 1.0
    score_spec: ThresholdScoreSpec | None = None

    def fit(self, X, y, names) -> Fitted:
        return Fitted(M.fit_mixture(
            X, y, u=self.u, xi=self.xi, kappa=self.kappa,
            k_shape=self.k_shape, classifier_params=self.classifier_params,
            bulk_params=self.bulk_params, tail_params=self.tail_params,
            feature_names=names,
        ))

    def score(self, fitted: Fitted, X, y, checkpoints) -> np.ndarray:
        """Validation threshold score after each checkpointed number of
        classifier rounds."""
        spec = self.score_spec or ThresholdScoreSpec(BA_THRESHOLDS)
        rows = ~np.isnan(y)
        if not rows.any():
            raise DataError("no scorable validation rows")
        X = X[rows]
        m = fitted.model
        bulk, tail = B.predict_raw(m.bulk, X), B.predict_raw(m.tail, X)
        scores = []
        for cls in B.predict_raw_staged(m.classifier, X, checkpoints):
            probs = M.threshold_probs(m, (cls, bulk, tail), spec.thresholds)
            scores.append(threshold_score(probs, y[rows], spec))
        return np.array(scores)
