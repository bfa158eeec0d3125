"""Single regression tree grown on gradient/hessian pairs.

Split candidates are per-feature empirical quantiles of the training
values (order statistics, so routing is invariant under strictly monotone
feature transformations).  Growth is best-first: the leaf whose best
candidate split has the highest positive gain is split until the leaf cap
is reached or no split improves the objective.  Rows with a missing value
in the split feature follow a learned default direction.

Features are binned once per fit: ``bin_features`` stores each value's
candidate index as a one-byte code, feature-major so that each feature's
codes are one contiguous row, and counts each code over all rows, the
count histogram of every tree's root; every tree of the fit reuses them.
A node's split search fills its g and h histograms together, with one
``np.add.at`` of the complex weights g + ih per feature on a node of
``_PER_FEATURE_MIN_ROWS`` rows or more and one per block of features on a
smaller node.  The smaller child of a split counts its rows; the larger
child's counts are its parent's less the smaller's, exact in integers.
The g and h sums add in the same order as a per-feature scan of raw
values, so the trees are bit-identical to it.
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
# its own ``add.at``; a smaller one fills them a block of features at a time,
# since there numpy's per-call cost outweighs the work of a call.
_PER_FEATURE_MIN_ROWS = 1000

# Small nodes' histograms are built for blocks of features holding about
# this many (feature, row) cells, so a block's temporaries stay in cache:
# the int64 index (8 bytes a cell, 512 KB) and the tiled complex128 g + ih
# weights (16 bytes a cell, 1 MB).
_HIST_BLOCK_CELLS = 1 << 16

# numpy's ``.sum()`` adds fewer values than this left to right, from 0.0, as
# ``bincount`` and ``add.at`` do; it sums longer arrays pairwise.
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
    ``candidates[j]``.  ``root_counts[j]`` counts each code of feature ``j``
    over all rows: the count histogram of every tree's root.
    """

    codes: np.ndarray
    candidates: list[np.ndarray]
    n_bins: int
    missing: list[np.ndarray]
    n_candidates: np.ndarray
    root_counts: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, features), the shape of the binned matrix."""
        return self.codes.shape[::-1]


def _count_below(cand: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``searchsorted(cand, x, side="left")`` for the non-missing ``x``, by a
    branch-free search: ``cand`` padded with +inf to a power of two, and one
    vectorised halving step per bit.  On unsorted keys ``searchsorted``'s
    binary search spends most of its time in mispredicted branches."""
    size = 1 << cand.size.bit_length()  # the least power of two above cand.size
    padded = np.full(size, np.inf)
    padded[:cand.size] = cand
    idx = np.zeros(x.size, dtype=np.intp)
    step = size >> 1
    while step:
        idx += (padded[idx + (step - 1)] < x) * step
        step >>= 1
    return idx


def bin_features(X, n_bins: int) -> BinnedFeatures:
    """Quantile candidates and one-byte codes of every column of ``X``; the
    bound on ``n_bins`` keeps the missing code ``n_bins`` within a byte."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("feature matrix must be 2-dimensional")
    if not 2 <= n_bins <= 255:
        raise DataError("n_quantile_bins must lie in [2, 255]")
    codes = np.empty(X.shape[::-1], dtype=np.uint8)
    root_counts = np.empty((X.shape[1], n_bins + 1), dtype=np.intp)
    candidates, missing = [], []
    for j in range(X.shape[1]):
        x = np.ascontiguousarray(X[:, j])  # _count_below reads it once a step
        cand = quantile_candidates(x, n_bins)
        nan = np.flatnonzero(np.isnan(x))
        codes[j] = _count_below(cand, x)
        codes[j, nan] = n_bins
        root_counts[j] = np.bincount(codes[j], minlength=n_bins + 1)
        candidates.append(cand)
        missing.append(nan)
    n_candidates = np.array([c.size for c in candidates], dtype=np.intp)
    return BinnedFeatures(codes, candidates, n_bins, missing, n_candidates, root_counts)


@dataclass
class _Split:
    gain: float
    feature: int
    threshold: float
    default_left: bool
    bin: int


def _complex_weights(g, h):
    """g and h as the real and imaginary parts of one complex array, set by
    assignment: ``g + 1j * h`` would make an infinite h's real part NaN
    (0 x inf)."""
    gh = np.empty(g.size, dtype=np.complex128)
    gh.real = g
    gh.imag = h
    return gh


def _node_histograms(binned, gh, rows, features, n_hist=None):
    """(g + ih, count) histograms, (features x slots), of the node's ``rows``
    (ascending) over the sampled ``features``; slot ``n_bins`` holds the
    missing rows.  ``gh`` is ``_complex_weights(g, h)``; ``n_hist``, when
    given, is the node's count histogram, found by the caller.

    The g and h sums are one complex ``np.add.at``: it adds in index order,
    and a complex sum adds the real and imaginary parts apart, so each bin
    is the left-to-right sum from 0.0 that a weighted ``bincount`` makes.
    A node of ``_PER_FEATURE_MIN_ROWS`` rows or more adds each feature's
    codes at the node's rows; the root, which holds every row, reads the
    codes without a gather.  A smaller node adds once per block of
    features, over the block's flattened (feature, row) codes, each
    feature's codes offset to its own slots.  Either way each bin adds its
    rows in ascending row order.  Counts not given are bincounts beside
    the sums, except at the root, whose counts are ``binned.root_counts``.
    The missing slot holds the missing rows' sums as ``.sum()`` takes
    them: ``add.at``'s own below ``_PAIRWISE_MIN`` rows, and a pairwise sum
    of the rows gathered from ``binned.missing`` for a longer run.
    """
    n_feat = features.size
    n_slots = binned.n_bins + 1  # observed codes 0..n_bins-1, missing n_bins
    root = rows.size == gh.size
    if root:
        n_hist = binned.root_counts[features]
    count = n_hist is None
    if count:
        n_hist = np.empty((n_feat, n_slots), dtype=np.intp)
    gh_hist = np.zeros((n_feat, n_slots), dtype=np.complex128)
    ghn = gh if root else gh[rows]
    # add.at flags inf - inf and overflow, which bincount sums silently
    with np.errstate(invalid="ignore", over="ignore"):
        if rows.size >= _PER_FEATURE_MIN_ROWS:
            for k, j in enumerate(features):
                codes = (binned.codes[j] if root else binned.codes[j][rows]).astype(np.intp)
                np.add.at(gh_hist[k], codes, ghn)
                if count:
                    n_hist[k] = np.bincount(codes, minlength=n_slots)
        else:
            codes = binned.codes[:, rows][features]
            step = max(1, _HIST_BLOCK_CELLS // rows.size)
            for lo in range(0, n_feat, step):
                block = codes[lo:lo + step]
                nb = block.shape[0]
                flat = (block + np.arange(0, nb * n_slots, n_slots)[:, None]).ravel()
                np.add.at(gh_hist[lo:lo + nb].reshape(-1), flat, np.tile(ghn, nb))
                if count:
                    n_hist[lo:lo + nb] = np.bincount(flat, minlength=nb * n_slots).reshape(nb, n_slots)

    long_runs = np.flatnonzero(n_hist[:, binned.n_bins] >= _PAIRWISE_MIN)
    if long_runs.size:
        in_node = np.zeros(gh.size, dtype=bool)
        in_node[rows] = True
        for k in long_runs:
            missing = binned.missing[features[k]]
            missing = missing[in_node[missing]]
            gh_hist[k, binned.n_bins] = complex(np.add.reduce(gh.real[missing]),
                                                np.add.reduce(gh.imag[missing]))
    return gh_hist, n_hist


def _best_split_for_node(binned, g, h, rows, features, lambda_reg, eta, hists):
    """Scan the sampled features with histogram prefix sums; return the
    best _Split or None.  ``rows`` is ascending; ``hists`` is the node's
    ``_node_histograms``.  Ties break on lowest feature index then lowest
    threshold (then default_left=True).

    Both default directions are scanned in one vectorised pass over
    (direction x features x thresholds).
    """
    n_cand = binned.n_candidates[features]
    n_thr = int(n_cand.max(initial=0))
    if n_thr == 0:
        return None
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    gh_hist, n_hist = hists
    g_hist, h_hist = gh_hist.real, gh_hist.imag
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

    gh = _complex_weights(g, h)
    heap: list[tuple[float, int]] = []
    pending: dict[int, tuple[_Split, np.ndarray]] = {}  # split, node's counts

    def consider(nid: int, n_hist=None) -> np.ndarray:
        """Queue the node's best split; return its count histogram."""
        rows = node_rows[nid]
        hists = _node_histograms(X, gh, rows, features, n_hist)
        split = _best_split_for_node(X, g, h, rows, features, lambda_reg, eta, hists)
        if split is not None:
            pending[nid] = split, hists[1]
            heapq.heappush(heap, (-split.gain, nid))
        return hists[1]

    consider(0)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        neg_gain, nid = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break
        split, n_parent = pending.pop(nid)
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
            # counts are integers, so parent - smaller child is the larger
            # child's exactly; heap ties break on node id, not on this order
            small, large = sorted((node.left, node.right), key=lambda c: node_rows[c].size)
            consider(large, n_parent - consider(small))
    if leaf_rows is not None:
        leaf_rows.update(node_rows)
    return tree
