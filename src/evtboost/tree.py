"""Single regression tree grown on gradient/hessian pairs.

Split candidates are per-feature empirical quantiles of the training
values (order statistics, so routing is invariant under strictly monotone
feature transformations).  Growth is best-first: the leaf whose best
candidate split has the highest positive gain is split until the leaf cap
is reached or no split improves the objective.  Rows with a missing value
in the split feature follow a learned default direction.

Features are binned once per fit: ``bin_features`` stores each value's
candidate index as a one-byte code, feature-major so that each feature's
codes are one contiguous row, and every tree of the fit reuses them.  A
node's split search builds the g, h and count histograms of its features
with one bincount each per feature on a node of ``_PER_FEATURE_MIN_ROWS``
rows or more, and one per block of features on a smaller node.  Either
way the sums add in the same order as a per-feature scan of raw values,
so the trees are bit-identical to it.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericalError


def is_finite_number(value) -> bool:
    """A JSON number (an int or float, not a bool) within the float range;
    an int beyond it overflows math.isfinite."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def leaf_weight(g_sum: float, h_sum: float, lambda_reg: float) -> float:
    """Optimal leaf score -G / (H + lambda)."""
    denom = h_sum + lambda_reg
    if denom <= 0.0:
        raise NumericalError(f"degenerate leaf denominator {denom:g}")
    return -g_sum / denom


def split_gain(g_left, h_left, g_right, h_right, lambda_reg, eta):
    """Objective reduction of a split: half the gain of separating the
    children minus the per-leaf penalty eta."""
    parent_g = g_left + g_right
    parent_h = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lambda_reg)
        + g_right * g_right / (h_right + lambda_reg)
        - parent_g * parent_g / (parent_h + lambda_reg)
    ) - eta


@dataclass
class TreeNode:
    """Either a branch (feature/threshold/children) or a leaf (weight).

    ``cover`` is the sum of hessians over the node's training instances;
    ``gain`` is the objective reduction of the node's split (branches only).
    Routing sends x[feature] <= threshold to ``left``; missing values follow
    ``default_left``.
    """

    id: int
    feature: int | None = None
    threshold: float | None = None
    default_left: bool | None = None
    left: int | None = None
    right: int | None = None
    gain: float | None = None
    weight: float | None = None
    cover: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_doc(self) -> dict:
        doc = {"id": self.id, "cover": self.cover}
        if self.is_leaf:
            doc["weight"] = self.weight
        else:
            doc.update(
                feature=self.feature,
                threshold=self.threshold,
                default_left=self.default_left,
                left=self.left,
                right=self.right,
                gain=self.gain,
            )
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TreeNode":
        known = {"id", "feature", "threshold", "default_left", "left", "right",
                 "gain", "weight", "cover"}
        if not isinstance(doc, dict) or "id" not in doc:
            raise DataError("tree node must be an object with an id")
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown tree node fields: {sorted(unknown)}")
        node = cls(**doc)
        problem = None
        if node.left is None and node.right is None:
            if not is_finite_number(node.weight):
                problem = "leaf weight must be a finite number"
        elif node.left is None or node.right is None:
            problem = "branch needs both a left and a right child"
        elif type(node.feature) is not int or node.feature < 0:
            problem = f"feature must be a non-negative integer, got {node.feature!r}"
        elif not is_finite_number(node.threshold):
            problem = f"threshold must be a finite number, got {node.threshold!r}"
        elif not isinstance(node.default_left, bool) or not is_finite_number(node.gain):
            problem = "branch needs a boolean default_left and a finite numeric gain"
        if problem is None and not is_finite_number(node.cover):
            problem = f"cover must be a finite number, got {node.cover!r}"
        if problem:
            raise DataError(f"tree node {node.id}: {problem}")
        return node


@dataclass
class Tree:
    nodes: list[TreeNode] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight of the region each row falls into."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            nid, rows = stack.pop()
            node = self.nodes[nid]
            if node.is_leaf:
                out[rows] = node.weight
                continue
            x = X[rows, node.feature]
            missing = np.isnan(x)
            go_left = (x <= node.threshold) | (missing & node.default_left)
            stack.append((node.left, rows[go_left]))
            stack.append((node.right, rows[~go_left]))
        return out

    def to_doc(self) -> dict:
        return {"nodes": [n.to_doc() for n in self.nodes]}

    @classmethod
    def from_doc(cls, doc: dict) -> "Tree":
        """Rebuild a tree, rejecting documents that cannot route a row: every
        child id lies above its parent's id, so routing always terminates."""
        if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list) \
                or not doc["nodes"]:
            raise DataError("tree document needs a non-empty node list")
        nodes = [TreeNode.from_doc(d) for d in doc["nodes"]]
        if [n.id for n in nodes] != list(range(len(nodes))):
            raise DataError("tree node ids must be 0..n-1 in order")
        for n in nodes:
            for child in () if n.is_leaf else (n.left, n.right):
                if type(child) is not int or not n.id < child < len(nodes):
                    raise DataError(f"tree node {n.id}: child id {child!r} must lie "
                                    f"in ({n.id}, {len(nodes)})")
        return cls(nodes)


def quantile_candidates(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Candidate thresholds: order-statistic quantiles of the non-missing
    feature values, excluding the maximum (which cannot separate rows).

    The values are ``np.quantile(x, levels, method="lower")``, read from one
    sort at numpy's own index for that method.  Only the sign of a zero can
    tell them apart, where the column holds both -0.0 and 0.0: np.quantile's
    partition picks one, and np.sort may write either sign over both.  So
    such a column with a zero among its candidates takes np.quantile itself.
    """
    x = x[~np.isnan(x)]
    if x.size == 0:
        return np.empty(0)
    levels = np.arange(1, n_bins) / n_bins
    s = np.sort(x)
    cand = np.unique(s[np.floor((s.size - 1) * levels).astype(np.intp)])
    if (cand == 0.0).any():
        zeros = np.signbit(x[x == 0.0])
        if zeros.any() and not zeros.all():
            cand = np.unique(np.quantile(x, levels, method="lower"))
    return cand[cand < s[-1]]


# A node of at least this many rows builds each feature's histograms with
# its own bincounts; a smaller one fills them a block of features at a time,
# since there numpy's per-call cost outweighs the work of a call.
_PER_FEATURE_MIN_ROWS = 1000

# Small nodes' histograms are built for blocks of features holding about
# this many (feature, row) cells, so a block's int64 index and float64
# weight temporaries (512 KB each) stay in cache.
_HIST_BLOCK_CELLS = 1 << 16

# numpy's ``.sum()`` adds fewer values than this left to right, from 0.0, as
# ``bincount`` does; it sums longer arrays pairwise.
_PAIRWISE_MIN = 8


@dataclass
class BinnedFeatures:
    """A feature matrix binned once against its quantile candidates.

    ``codes`` is feature-major, (features, rows), so that a feature's codes
    are one contiguous row: ``codes[j, i]`` is ``searchsorted(candidates[j],
    X[i, j], side="left")``, and ``codes[j] <= t`` routes exactly as
    ``X[:, j] <= candidates[j][t]``.  Missing values get the code ``n_bins``,
    above every candidate index, and ``missing[j]`` lists the rows missing
    feature ``j`` in ascending order.  ``n_candidates[j]`` is the size of
    ``candidates[j]``.
    """

    codes: np.ndarray
    candidates: list[np.ndarray]
    n_bins: int
    missing: list[np.ndarray]
    n_candidates: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, features), the shape of the binned matrix."""
        return self.codes.shape[::-1]


def bin_features(X, n_bins: int) -> BinnedFeatures:
    """Quantile candidates and one-byte codes of every column of ``X``; the
    bound on ``n_bins`` keeps the missing code ``n_bins`` within a byte."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-dimensional")
    if not 2 <= n_bins <= 255:
        raise DataError("n_quantile_bins must lie in [2, 255]")
    codes = np.empty(X.shape[::-1], dtype=np.uint8)
    candidates, missing = [], []
    for j in range(X.shape[1]):
        x = X[:, j]
        cand = quantile_candidates(x, n_bins)
        nan = np.isnan(x)
        codes[j] = np.where(nan, n_bins, np.searchsorted(cand, x, side="left"))
        candidates.append(cand)
        missing.append(np.flatnonzero(nan))
    n_candidates = np.array([c.size for c in candidates], dtype=np.intp)
    return BinnedFeatures(codes, candidates, n_bins, missing, n_candidates)


@dataclass
class _Split:
    gain: float
    feature: int
    threshold: float
    default_left: bool
    bin: int


def _node_histograms(binned, g, h, rows, features):
    """g, h and count histograms, (features x slots), of the node's ``rows``
    (ascending) over the sampled ``features``; slot ``n_bins`` holds the
    missing rows.

    A node of ``_PER_FEATURE_MIN_ROWS`` rows or more runs the g, h and count
    bincounts of each feature over its codes at the node's rows.  A smaller
    node runs them once per block of features, over the block's flattened
    (feature, row) codes, each feature's codes offset to its own slots.
    Either way each bin adds its rows in ascending row order, as a
    per-feature bincount would.  The missing slot holds the missing rows'
    sums as ``.sum()`` takes them: bincount's own below ``_PAIRWISE_MIN``
    rows, and a pairwise sum of the rows gathered from ``binned.missing``
    for a longer run.
    """
    n_feat = features.size
    n_slots = binned.n_bins + 1  # observed codes 0..n_bins-1, missing n_bins
    gn, hn = g[rows], h[rows]
    g_hist = np.empty((n_feat, n_slots))
    h_hist = np.empty((n_feat, n_slots))
    n_hist = np.empty((n_feat, n_slots), dtype=np.intp)
    if rows.size >= _PER_FEATURE_MIN_ROWS:
        for k, j in enumerate(features):
            codes = binned.codes[j][rows].astype(np.intp)
            g_hist[k] = np.bincount(codes, gn, n_slots)
            h_hist[k] = np.bincount(codes, hn, n_slots)
            n_hist[k] = np.bincount(codes, minlength=n_slots)
    else:
        codes = binned.codes[:, rows][features]
        step = max(1, _HIST_BLOCK_CELLS // rows.size)
        for lo in range(0, n_feat, step):
            block = codes[lo:lo + step]
            nb = block.shape[0]
            flat = (block + np.arange(0, nb * n_slots, n_slots)[:, None]).ravel()
            size = nb * n_slots
            g_hist[lo:lo + nb] = np.bincount(flat, np.tile(gn, nb), size).reshape(nb, n_slots)
            h_hist[lo:lo + nb] = np.bincount(flat, np.tile(hn, nb), size).reshape(nb, n_slots)
            n_hist[lo:lo + nb] = np.bincount(flat, minlength=size).reshape(nb, n_slots)

    long_runs = np.flatnonzero(n_hist[:, binned.n_bins] >= _PAIRWISE_MIN)
    if long_runs.size:
        in_node = np.zeros(g.size, dtype=bool)
        in_node[rows] = True
        for k in long_runs:
            missing = binned.missing[features[k]]
            missing = missing[in_node[missing]]
            g_hist[k, binned.n_bins] = np.add.reduce(g[missing])
            h_hist[k, binned.n_bins] = np.add.reduce(h[missing])
    return g_hist, h_hist, n_hist


def _best_split_for_node(binned, g, h, rows, features, lambda_reg, eta):
    """Scan the sampled features with histogram prefix sums; return the
    best _Split or None.  ``rows`` is ascending.  Ties break on lowest
    feature index then lowest threshold (then default_left=True).

    Both default directions are scanned in one vectorised pass over
    (direction x features x thresholds).
    """
    n_cand = binned.n_candidates[features]
    n_thr = int(n_cand.max(initial=0))
    if n_thr == 0:
        return None
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    g_hist, h_hist, n_hist = _node_histograms(binned, g, h, rows, features)
    g_miss, h_miss, n_miss = (a[:, binned.n_bins] for a in (g_hist, h_hist, n_hist))

    g_left = np.cumsum(g_hist[:, :n_thr], axis=1)
    h_left = np.cumsum(h_hist[:, :n_thr], axis=1)
    n_left = np.cumsum(n_hist[:, :n_thr], axis=1)
    # axis 0 routes the missing rows left, then right
    gl = np.stack([g_left + g_miss[:, None], g_left])
    hl = np.stack([h_left + h_miss[:, None], h_left])
    nl = np.stack([n_left + n_miss[:, None], n_left])
    valid = (np.arange(n_thr) < n_cand[:, None]) & (nl > 0) & (nl < rows.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = split_gain(gl, hl, g_total - gl, h_total - hl, lambda_reg, eta)
    gains = np.where(valid, gains, -np.inf)
    bins = np.argmax(gains, axis=2)
    # (feature, direction) in scan order; the first finite maximum wins
    best_gains = np.take_along_axis(gains, bins[:, :, None], axis=2)[:, :, 0].T
    finite = np.isfinite(best_gains)
    if not finite.any():
        return None
    top = best_gains[finite].max()
    k, d = divmod(int(np.flatnonzero(finite & (best_gains == top))[0]), 2)
    j, t = int(features[k]), int(bins[d, k])
    return _Split(float(best_gains[k, d]), j, float(binned.candidates[j][t]), d == 0, t)


def grow(
    X: BinnedFeatures,
    g: np.ndarray,
    h: np.ndarray,
    max_leaves: int,
    lambda_reg: float = 1.0,
    eta: float = 0.0,
    feature_subset: np.ndarray | None = None,
    leaf_rows: dict | None = None,
) -> Tree:
    """Grow one tree best-first on the given gradient pairs.

    ``X`` is the ``bin_features`` result that every tree of a fit reuses.
    ``feature_subset`` restricts candidate features (the booster draws it
    per iteration); None means all features.  Growth stops when the best
    candidate gain is <= 0 or the leaf count reaches ``max_leaves``.
    A ``leaf_rows`` dict receives each leaf's node id and its training rows,
    which are the rows ``Tree.predict`` sends to that leaf.
    """
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    n, p = X.shape
    if n == 0:
        raise DataError("cannot grow a tree on an empty dataset")
    if g.shape != (n,) or h.shape != (n,):
        raise DataError("gradient/hessian length must match row count")
    if max_leaves < 2:
        raise DataError("max_leaves must be >= 2")
    features = np.arange(p) if feature_subset is None else np.unique(feature_subset)

    tree = Tree()
    root_rows = np.arange(n)
    tree.nodes.append(TreeNode(
        id=0,
        weight=leaf_weight(g.sum(), h.sum(), lambda_reg),
        cover=float(h.sum()),
    ))
    node_rows = {0: root_rows}

    heap: list[tuple[float, int]] = []
    pending: dict[int, _Split] = {}

    def consider(nid: int):
        split = _best_split_for_node(
            X, g, h, node_rows[nid], features, lambda_reg, eta
        )
        if split is not None:
            pending[nid] = split
            heapq.heappush(heap, (-split.gain, nid))

    consider(0)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        neg_gain, nid = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break
        split = pending.pop(nid)
        rows = node_rows.pop(nid)
        code = X.codes[split.feature][rows]
        go_left = (code <= split.bin) | ((code == X.n_bins) & split.default_left)
        left_rows, right_rows = rows[go_left], rows[~go_left]

        node = tree.nodes[nid]
        node.feature = split.feature
        node.threshold = split.threshold
        node.default_left = split.default_left
        node.gain = split.gain
        node.weight = None
        for child_rows in (left_rows, right_rows):
            cid = len(tree.nodes)
            tree.nodes.append(TreeNode(
                id=cid,
                weight=leaf_weight(g[child_rows].sum(), h[child_rows].sum(), lambda_reg),
                cover=float(h[child_rows].sum()),
            ))
            node_rows[cid] = child_rows
        node.left = tree.nodes[-2].id
        node.right = tree.nodes[-1].id
        n_leaves += 1
        if n_leaves < max_leaves:
            consider(node.left)
            consider(node.right)
    if leaf_rows is not None:
        leaf_rows.update(node_rows)
    return tree
