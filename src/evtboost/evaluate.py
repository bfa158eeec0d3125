"""Scoring, cross-validation orchestration, tree-count selection, tuning.

The threshold score is a transparent stand-in for competition-style
weighted ranked probability metrics: a weighted Brier sum over a ladder of
thresholds, with user-pluggable thresholds and weights.  Cross-validation
scores checkpointed tree counts by evaluating prefixes of one fitted tree
list in one staged prediction pass (no refits), and the tree count is then
chosen by the one-standard-error rule.  Hyperparameter search is sequential Bayesian
optimization with a Gaussian-process surrogate and expected improvement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .spatialcv import FoldSet
from .dataset import GridDataset, reprs, row_blocks, write_csv


@dataclass
class ThresholdScoreSpec:
    """Score thresholds (at least one, strictly ascending) and nonnegative
    weights."""

    thresholds: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        if self.weights is None:
            self.weights = np.ones_like(self.thresholds)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.thresholds.ndim != 1 or self.weights.shape != self.thresholds.shape:
            raise DataError("thresholds and weights must be 1-d and the same length")
        if self.thresholds.size == 0:
            raise DataError("the threshold ladder is empty")
        if np.any(np.diff(self.thresholds) <= 0):
            raise DataError("thresholds must be strictly ascending")
        if np.any(self.weights < 0):
            raise DataError("weights must be >= 0")


# the default 28-threshold burned-area ladder (a documented stand-in)
BA_THRESHOLDS = np.concatenate([[0.0], np.geomspace(1.0, 50000.0, 27)])
BA_THRESHOLDS.flags.writeable = False


def threshold_score(probs, ys, spec: ThresholdScoreSpec) -> float:
    """Mean weighted Brier sum over the rows whose response is observed
    (a NaN in ``ys`` marks a masked row, which is not scored):
    sum_i sum_j w_j (1{y_i <= u_j} - p_ij)^2 / n_observed.

    The observed rows' weighted squared errors are computed one block of
    rows at a time into one (n_observed, J) array, which is summed once: a
    sum per block would round differently.
    """
    probs = np.asarray(probs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if probs.ndim != 2 or probs.shape != (ys.size, spec.thresholds.size):
        raise DataError(
            f"probs shape {probs.shape} does not match "
            f"(n={ys.size}, J={spec.thresholds.size})"
        )
    observed = ~np.isnan(ys)
    n_observed = int(observed.sum())
    if n_observed == 0:
        raise DataError("no observed response to score")
    sq = np.empty((n_observed, spec.thresholds.size))
    at = 0
    for rows in row_blocks(ys.size, spec.thresholds.size):
        keep = observed[rows]
        p, y = probs[rows][keep], ys[rows][keep]
        if np.any(p < 0) or np.any(p > 1):
            raise DataError("probabilities must lie in [0, 1]")
        indicator = (y[:, None] <= spec.thresholds[None, :]).astype(float)
        np.multiply((indicator - p) ** 2, spec.weights[None, :], out=sq[at:at + y.size])
        at += y.size
    return float(sq.sum() / n_observed)


@dataclass
class CvResult:
    """Validation scores per (fold, checkpointed tree count)."""

    checkpoints: np.ndarray           # (K,) tree counts
    scores: np.ndarray                # (n_folds, K)
    mean: np.ndarray = field(init=False)
    se: np.ndarray = field(init=False)

    def __post_init__(self):
        self.checkpoints = np.asarray(self.checkpoints, dtype=int)
        self.scores = np.asarray(self.scores, dtype=float)
        n_folds = self.scores.shape[0]
        self.mean = self.scores.mean(axis=0)
        if n_folds > 1:
            self.se = self.scores.std(axis=0, ddof=1) / np.sqrt(n_folds)
        else:
            self.se = np.zeros_like(self.mean)


def run_cv(ds: GridDataset, folds: FoldSet, recipe, checkpoints) -> CvResult:
    """Train the recipe once per fold and score tree-count prefixes.

    Every fold shares one feature matrix: the recipe fits its ``response``
    with the fold's validation rows masked (NaN), then scores the fit with
    the other rows masked, at every checkpoint from one staged prediction.
    """
    checkpoints = np.asarray(checkpoints, dtype=int)
    if checkpoints.size == 0:
        raise DataError("at least one tree-count checkpoint is required")
    X, names = ds.feature_matrix()
    y = getattr(ds, recipe.response)
    scores = np.empty((folds.n_folds, checkpoints.size))
    for f in range(folds.n_folds):
        valid = folds.validation_rows(ds, f, recipe.response)
        if not valid.any():
            raise DataError(f"fold {f} has an empty validation set")
        fitted = recipe.fit(X, np.where(valid, np.nan, y), names)
        scores[f] = recipe.score(fitted, X, np.where(valid, y, np.nan), checkpoints)
    return CvResult(checkpoints=checkpoints, scores=scores)


def one_se_select(cv: CvResult, direction: str = "largest") -> int:
    """Tree count by the one-standard-error rule.

    ``largest`` returns the largest checkpoint whose mean score is within
    one SE of the minimum; ``smallest`` the usual parsimony convention.
    """
    if direction not in ("largest", "smallest"):
        raise DataError("direction must be 'largest' or 'smallest'")
    best = int(np.argmin(cv.mean))
    bound = cv.mean[best] + cv.se[best]
    within = np.flatnonzero(cv.mean <= bound)
    pick = within.max() if direction == "largest" else within.min()
    return int(cv.checkpoints[pick])


# ---------------------------------------------------------------------------
# Bayesian optimization
# ---------------------------------------------------------------------------

def _normalize(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return (points - lo) / (hi - lo)


def _sq_exp_kernel(A: np.ndarray, B: np.ndarray, lengthscale: float) -> np.ndarray:
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-0.5 * d2 / lengthscale ** 2)


def expected_improvement(mu, sd, best):
    """EI for minimization: E[max(best - f, 0)] under N(mu, sd^2)."""
    from scipy import special
    mu = np.asarray(mu, dtype=float)
    sd = np.asarray(sd, dtype=float)
    imp = best - mu
    out = np.where(imp > 0.0, imp, 0.0)
    pos = sd > 0.0
    z = np.zeros_like(mu)
    np.divide(imp, sd, out=z, where=pos)
    pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
    ei = imp * special.ndtr(z) + sd * pdf
    return np.where(pos, ei, out)


def bo_suggest(history, box: dict, seed: int) -> dict:
    """Next hyperparameter point by GP expected improvement.

    ``history`` is a list of (point dict, score) pairs; ``box`` maps each
    parameter to (lo, hi) bounds.  Inputs are min-max normalized; the GP is
    zero-mean on centred scores with a squared-exponential kernel of
    length-scale 1/4 of each (normalized) box width, output scale equal
    to the score variance and noise variance 1e-6.  The next point is the
    best of 1024 scrambled Sobol candidates.  With an empty history a seeded
    uniform draw is returned.  Scores are minimized.
    """
    names = list(box)
    if not names:
        raise DataError("box must contain at least one parameter")
    lo = np.array([box[k][0] for k in names], dtype=float)
    hi = np.array([box[k][1] for k in names], dtype=float)
    if np.any(hi <= lo):
        raise DataError("box bounds must satisfy lo < hi in every dimension")

    if not history:
        rng = np.random.default_rng(seed)
        draw = lo + (hi - lo) * rng.uniform(size=lo.size)
        return dict(zip(names, draw.tolist()))

    pts = np.array([[p[k] for k in names] for p, _ in history], dtype=float)
    ys = np.array([s for _, s in history], dtype=float)
    if np.any(pts < lo - 1e-12) or np.any(pts > hi + 1e-12):
        raise DataError("history contains points outside the box")
    Xn = _normalize(pts, lo, hi)
    y_mean = ys.mean()
    yc = ys - y_mean
    out_scale = float(yc.var())
    if out_scale <= 0.0:
        out_scale = 1.0

    K = out_scale * _sq_exp_kernel(Xn, Xn, 0.25) + 1e-6 * np.eye(len(ys))
    try:
        L_chol = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        L_chol = np.linalg.cholesky(K + 1e-10 * out_scale * np.eye(len(ys)))
    alpha = np.linalg.solve(L_chol.T, np.linalg.solve(L_chol, yc))

    from scipy.stats import qmc  # scipy.stats is slow to import; only tuning needs it

    sampler = qmc.Sobol(d=lo.size, scramble=True, seed=seed)
    cand = sampler.random(1024)
    Kstar = out_scale * _sq_exp_kernel(cand, Xn, 0.25)
    mu = Kstar @ alpha + y_mean
    v = np.linalg.solve(L_chol, Kstar.T)
    var = np.maximum(out_scale - (v ** 2).sum(axis=0), 0.0)
    ei = expected_improvement(mu, np.sqrt(var), ys.min())
    bestc = cand[int(np.argmax(ei))]
    return dict(zip(names, (lo + (hi - lo) * bestc).tolist()))


def save_cv_report(cv: CvResult, path) -> None:
    """CV report CSV: tree count, mean score, SE, then one column per fold."""
    table = np.column_stack([cv.mean, cv.se, cv.scores.T])
    write_csv(path, ["n_trees", "mean_score", "se"]
              + [f"fold{f}" for f in range(cv.scores.shape[0])], len(table),
              lambda rows: [reprs(cv.checkpoints[rows]), reprs(table[rows])])


def tune_loop(objective, box: dict, n_iters: int, seed: int):
    """Sequential BO: suggest, evaluate, append; returns the history list.

    ``objective`` maps a point dict to a scalar score (minimized).  Each
    iteration derives its suggestion seed as seed + iteration so the whole
    loop is a pure function of (objective, box, n_iters, seed).
    """
    history: list[tuple[dict, float]] = []
    for it in range(n_iters):
        point = bo_suggest(history, box, seed=seed + it)
        history.append((point, float(objective(point))))
    return history
