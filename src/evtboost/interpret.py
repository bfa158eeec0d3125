"""Partial dependence and covariate importance for boosted models.

Partial dependence marginalizes the model over the complement covariates
by Monte Carlo: grid values are substituted into a seeded sample of
training rows (:func:`sample_rows`) and the per-sample evaluations are
averaged.  Uncertainty bands are the empirical 5%/95% pointwise quantiles
of those per-sample evaluations (after any output transform, which is
applied per sample).

Importance metrics: ``gain`` sums the recorded split gains per feature;
``coverage`` sums the hessian mass of the nodes split on the feature.
Both are normalized to proportions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import booster as B
from .errors import DataError, NumericalError


@dataclass
class PdpResult:
    grid: np.ndarray        # (G, |S|) evaluated points
    estimate: np.ndarray    # (G,)
    lo: np.ndarray          # (G,) empirical 5% quantile
    hi: np.ndarray          # (G,) empirical 95% quantile


def sample_rows(n: int, n_sub: int, seed: int) -> np.ndarray:
    """The rows to average partial dependence over: ``n_sub`` of the ``n``
    rows, drawn without replacement by a generator seeded with ``seed``, or
    every row in order when ``n_sub >= n``."""
    if n_sub >= n:
        return np.arange(n)
    return np.random.default_rng(seed).choice(n, size=n_sub, replace=False)


def partial_dependence(model: B.BoostedModel, X: np.ndarray, features, grid,
                       transform=None) -> PdpResult:
    """Monte Carlo partial dependence of the model on ``features``, averaged
    over every row of ``X`` (draw a subsample with :func:`sample_rows`).

    ``grid`` has one row per evaluation point with one column per feature
    in ``features`` (a 1-d grid is accepted for a single feature).
    ``transform`` maps raw per-sample outputs before averaging (e.g. the
    dGPD mean for count models); multiclass raw outputs require one.  The
    columns of interest of a writable ``X`` are overwritten in place and
    restored before the call returns; a read-only ``X`` is copied.
    """
    X = np.asarray(X, dtype=float)
    features = [int(f) for f in np.atleast_1d(features)]
    if not features:
        raise DataError("the feature set of interest must be nonempty")
    if len(set(features)) != len(features):
        raise DataError("duplicate features in the set of interest")
    p = X.shape[1]
    if any(f < 0 or f >= p for f in features):
        raise DataError("feature index out of range")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.shape[1] != len(features):
        raise DataError("grid width must match the number of features of interest")

    estimates = np.empty(grid.shape[0])
    lo = np.empty(grid.shape[0])
    hi = np.empty(grid.shape[0])
    work = X if X.flags.writeable else X.copy()
    saved = work[:, features]   # indexing with a list copies
    try:
        for gi in range(grid.shape[0]):
            work[:, features] = grid[gi]
            raw = B.predict_raw(model, work)
            vals = raw if transform is None else np.asarray(transform(raw), dtype=float)
            if vals.ndim != 1:
                raise DataError("model output is multi-dimensional; supply a transform "
                                "reducing it to one value per sample")
            estimates[gi] = vals.mean()
            lo[gi] = np.quantile(vals, 0.05)
            hi[gi] = np.quantile(vals, 0.95)
    finally:
        work[:, features] = saved
    return PdpResult(grid=grid, estimate=estimates, lo=lo, hi=hi)


def importance(model: B.BoostedModel, metric: str = "gain") -> dict[str, float]:
    """Per-feature importance proportions; empty when the model has no split."""
    if metric not in ("gain", "coverage"):
        raise DataError("metric must be 'gain' or 'coverage'")
    totals: dict[int, float] = {}
    for tree in model.trees:
        for node in tree.nodes:
            if node.is_leaf:
                continue
            amount = node.gain if metric == "gain" else node.cover
            totals[node.feature] = totals.get(node.feature, 0.0) + amount
    if not totals:
        return {}
    grand = sum(totals.values())
    if not math.isfinite(grand):
        raise NumericalError(f"the {metric} total over the model's splits is {grand!r}")
    if grand <= 0:
        # degenerate (all recorded amounts zero); spread uniformly
        return {model.feature_names[j]: 1.0 / len(totals) for j in sorted(totals)}
    return {model.feature_names[j]: v / grand for j, v in sorted(totals.items())}
