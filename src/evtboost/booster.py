"""Gradient boosting training loop and model (de)serialization.

The model is a base score plus an ordered list of trees; each round fits
one tree (one per class for the multiclass cross-entropy loss) to the
first- and second-order derivatives of the loss at the current estimate,
then applies shrinkage.  Feature subsampling per round is a pure function
of (seed, round) through a counter-based Philox generator, so training is
bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import losses as L
from .errors import DataError, NumericalError, open_text, publish
from .tree import Tree, bin_features, grow, is_finite_number

FORMAT_VERSION = 1

# Losses like trgamma are not globally convex, so per-row hessians are
# floored at this value before a tree is grown.
HESS_FLOOR = 1e-6


@dataclass
class TrainParams:
    n_trees: int = 100
    learning_rate: float = 0.1
    max_leaves: int = 8
    lambda_reg: float = 1.0
    eta: float = 0.0
    colsample: float = 1.0
    n_quantile_bins: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 0:
            raise DataError("n_trees must be >= 0")
        if self.max_leaves < 2:
            raise DataError("max_leaves must be >= 2")
        if not 0.0 < self.colsample <= 1.0:
            raise DataError("colsample must lie in (0, 1]")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DataError("learning_rate must lie in (0, 1]")
        for name in ("lambda_reg", "eta"):   # written so that NaN fails it
            if not 0.0 <= getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and >= 0")
        if not 2 <= self.n_quantile_bins <= 255:
            raise DataError("n_quantile_bins must lie in [2, 255]")
        if not 0 <= self.seed < 2 ** 64:  # one 64-bit word of the Philox key
            raise DataError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class BoostedModel:
    """Fitted boosting model: loss metadata, base score and trees.

    ``trees`` is round-major, with ``loss.n_scores`` consecutive trees per
    round (one per class for cross_entropy).  ``train_losses`` holds the
    total training loss before each round plus after the last (length
    n_rounds + 1); it is not serialized.
    """

    loss: L.LossSpec
    base_score: float | np.ndarray
    trees: list[Tree]
    params: TrainParams
    feature_names: list[str]
    train_losses: list[float] = field(default_factory=list, repr=False)

    @property
    def n_rounds(self) -> int:
        return len(self.trees) // self.loss.n_scores


def _round_feature_subset(seed: int, round_idx: int, n_features: int, colsample: float):
    """Feature subset for one boosting round; pure in (seed, round)."""
    if colsample >= 1.0:
        return None
    n_pick = max(1, int(round(colsample * n_features)))
    rng = np.random.Generator(np.random.Philox(key=np.uint64([seed, round_idx])))
    return np.sort(rng.choice(n_features, size=n_pick, replace=False))


def _one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.size, L.N_CLASSES))
    out[np.arange(labels.size), labels.astype(int)] = 1.0
    return out


def initial_estimate(ys, loss: L.LossSpec):
    """Constant score minimizing the total loss (Newton with bisection, to a
    total gradient of 1e-10 per row within 100 steps).

    Returns a scalar, or a per-class vector for the cross-entropy loss
    (cyclic per-class Newton on the coupled softmax system).
    """
    ys = np.asarray(ys, dtype=float)
    if ys.size == 0:
        raise DataError("initial estimate needs at least one response")

    if loss.multiclass:
        y = _one_hot(ys)
        n_total = float(y.shape[0])
        mass = y.sum(axis=0)  # count per class
        theta = np.zeros(L.N_CLASSES)
        scale = max(1.0, n_total)
        for _ in range(100):
            # cyclic per-class updates; with the other scores fixed the
            # stationary point of one score solves softmax_c = mass_c / total
            for c in range(L.N_CLASSES):
                others = np.exp(np.delete(theta, c)).sum()
                target = mass[c] / n_total
                if target <= 0.0:
                    theta[c] = -30.0
                elif target >= 1.0:
                    theta[c] = 30.0
                else:
                    theta[c] = np.clip(np.log(others * target / (1.0 - target)),
                                       -30.0, 30.0)
            g_tot = n_total * L.softmax(theta) - mass
            if np.abs(g_tot).max() < 1e-10 * scale:
                return theta - theta.mean()  # pin the softmax shift invariance
        raise NumericalError("initial estimate did not converge (cross_entropy)")

    def total_grad(t):
        _, g, _ = L.evaluate_loss(loss, ys, np.full_like(ys, t))
        return float(g.sum())

    def total_grad_hess(t):
        _, g, h = L.evaluate_loss(loss, ys, np.full_like(ys, t))
        return float(g.sum()), float(h.sum())

    # bracket a sign change of the total gradient
    lo, hi, step = 0.0, 0.0, 1.0
    g_lo = g_hi = total_grad(0.0)
    while g_lo > 0.0:
        lo -= step
        step *= 2.0
        if lo < -700.0:
            raise NumericalError("initial estimate did not converge (no bracket)")
        g_lo = total_grad(lo)
    step = 1.0
    while g_hi < 0.0:
        hi += step
        step *= 2.0
        if hi > 700.0:
            raise NumericalError("initial estimate did not converge (no bracket)")
        g_hi = total_grad(hi)

    theta = 0.5 * (lo + hi)
    scale = max(1.0, ys.size)
    for _ in range(100):
        g, h = total_grad_hess(theta)
        if abs(g) < 1e-10 * scale:
            return float(theta)
        if g > 0:
            hi = theta
        else:
            lo = theta
        if h > 0:
            candidate = theta - g / h
        else:
            candidate = np.nan
        if not np.isfinite(candidate) or not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)  # bisection fallback
        if abs(candidate - theta) < 1e-14 * max(1.0, abs(theta)):
            return float(candidate)
        theta = candidate
    raise NumericalError("initial estimate did not converge")


def _grow_step(binned, g, h, theta, params: TrainParams, subset) -> Tree:
    """Grow one tree and add its shrunken leaf weights to ``theta`` (a view
    it updates in place) over the rows ``grow`` sent to each leaf, the rows
    ``Tree.predict`` routes there, so the sums equal ``lr * t.predict(X)``."""
    leaves = {}
    t = grow(binned, g, h, params.max_leaves, params.lambda_reg, params.eta,
             feature_subset=subset, leaf_rows=leaves)
    for nid, rows in leaves.items():
        theta[rows] += params.learning_rate * t.nodes[nid].weight
    return t


def fit(X, ys, loss: L.LossSpec, params: TrainParams, feature_names=None) -> BoostedModel:
    """Train a boosted model on a feature matrix and responses.

    ``ys`` is a 1-d response array (class labels 0..C-1 for cross-entropy).
    Loss domain violations surface with the offending row index.
    """
    X = np.asarray(X, dtype=float)
    n, p = X.shape
    if feature_names is None:
        feature_names = [f"x{j}" for j in range(p)]
    if len(feature_names) != p:
        raise DataError("feature_names length must match column count")

    y = _one_hot(ys) if loss.multiclass else np.asarray(ys, dtype=float)
    if y.shape[0] != n:
        raise DataError("response length must match row count")

    base = initial_estimate(ys, loss)
    theta = np.tile(base, (n, 1))   # (n, n_scores)
    model = BoostedModel(loss=loss, base_score=base, trees=[], params=params,
                         feature_names=list(feature_names))
    binned = bin_features(X, params.n_quantile_bins)  # once per fit, for every tree
    for round_idx in range(params.n_trees):
        subset = _round_feature_subset(params.seed, round_idx, p, params.colsample)
        v, g, h = L.evaluate_loss(loss, y, theta.reshape(y.shape))
        model.train_losses.append(float(v.sum()))
        g, h = g.reshape(theta.shape), np.maximum(h, HESS_FLOOR).reshape(theta.shape)
        for c in range(loss.n_scores):
            model.trees.append(_grow_step(binned, g[:, c], h[:, c], theta[:, c],
                                          params, subset))
    v, _, _ = L.evaluate_loss(loss, y, theta.reshape(y.shape))
    model.train_losses.append(float(v.sum()))
    return model


def predict_raw_staged(model: BoostedModel, X, checkpoints) -> list[np.ndarray]:
    """Raw boosting estimates after each checkpointed number of rounds.

    One pass adds the trees in model order and snapshots the running sum
    at every checkpoint, so each snapshot equals the prefix prediction bit
    for bit.  Checkpoints count rounds (multiclass rounds, not individual
    trees), may come in any order, and are capped at the model's rounds;
    None means the full model.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise DataError(
            f"feature mismatch: model expects {len(model.feature_names)} features, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix'}"
        )
    stops = [model.n_rounds if k is None else min(int(k), model.n_rounds)
             for k in checkpoints]
    if min(stops, default=0) < 0:
        raise DataError(f"checkpoints must be >= 0, got {min(stops)}")
    lr, n_scores = model.params.learning_rate, model.loss.n_scores
    base = np.asarray(model.base_score, dtype=float)
    out = np.tile(base, (X.shape[0], 1))   # (n, n_scores)
    snapshots = {}
    done = 0
    for stop in sorted(set(stops)):
        for r in range(done, stop):
            for c in range(n_scores):
                out[:, c] += lr * model.trees[r * n_scores + c].predict(X)
        done = stop
        snapshots[stop] = out.reshape(X.shape[:1] + base.shape).copy()
    return [snapshots[stop] for stop in stops]


def predict_raw(model: BoostedModel, X) -> np.ndarray:
    """Raw boosting estimate: base score plus the sum of every tree."""
    return predict_raw_staged(model, X, [None])[0]


# ---------------------------------------------------------------------------
# Serialization: versioned canonical JSON
# ---------------------------------------------------------------------------

def to_doc(model: BoostedModel) -> dict:
    base = model.base_score
    if isinstance(base, np.ndarray):
        base = [float(b) for b in base]
    else:
        base = float(base)
    return {
        "format_version": FORMAT_VERSION,
        "loss": model.loss.hyperparams(),
        "base_score": base,
        "feature_names": list(model.feature_names),
        "params": asdict(model.params),
        "trees": [t.to_doc() for t in model.trees],
    }


def from_doc(doc: dict) -> BoostedModel:
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise DataError("not a model document")
    if doc["format_version"] != FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc['format_version']!r}")
    missing = {"loss", "base_score", "feature_names", "params", "trees"} - set(doc)
    if missing:
        raise DataError(f"model document missing fields: {sorted(missing)}")
    loss = L.loss_spec_from_dict(doc["loss"])
    base = doc["base_score"]
    if loss.multiclass:
        ok = isinstance(base, list) and len(base) == L.N_CLASSES \
            and all(map(is_finite_number, base))
    else:
        ok = is_finite_number(base)
    if not ok:
        raise DataError("base_score must be a finite number, one per class for cross_entropy")
    if loss.multiclass:
        base = np.asarray(base, dtype=float)
    try:
        params = TrainParams(**doc["params"])
    except (TypeError, DataError) as exc:
        raise DataError(f"bad training params in model document: {exc}") from exc
    if not isinstance(doc["trees"], list) or not isinstance(doc["feature_names"], list):
        raise DataError("trees and feature_names must be lists")
    seen = set()
    for name in doc["feature_names"]:
        if not isinstance(name, str):
            raise DataError(f"feature name {name!r} is not a string")
        if name in seen:
            raise DataError(f"feature_names repeats {name!r}")
        seen.add(name)
    trees = [Tree.from_doc(t) for t in doc["trees"]]
    n_features = len(doc["feature_names"])
    for i, t in enumerate(trees):
        for node in t.nodes:
            if not node.is_leaf and node.feature >= n_features:
                raise DataError(f"tree {i} node {node.id}: feature {node.feature} is "
                                f"outside the model's {n_features} features")
    return BoostedModel(
        loss=loss,
        base_score=base,
        trees=trees,
        params=params,
        feature_names=list(doc["feature_names"]),
    )


def dumps(model: BoostedModel) -> str:
    """Canonical serialization: sorted keys, shortest round-trip decimals."""
    return json.dumps(to_doc(model), sort_keys=True, separators=(",", ":")) + "\n"


def parse(text: str):
    """The JSON document in ``text``; invalid JSON is a :class:`DataError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"model document is not valid JSON: {exc}") from exc


def loads(text: str) -> BoostedModel:
    return from_doc(parse(text))


def save(model: BoostedModel, path) -> None:
    text = dumps(model)
    with publish(path) as fh:
        fh.write(text)


def load(path) -> BoostedModel:
    with open_text(path) as fh:
        return loads(fh.read())
