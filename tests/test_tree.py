import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import traced_peak
from evtboost import tree
from evtboost.errors import DataError, NumericalError


class TestLeafWeight:
    def test_zero_gradient(self):
        assert tree.leaf_weight(0.0, 5.0, 1.0) == 0.0

    def test_hand_values(self):
        assert tree.leaf_weight(2.0, 1.0, 1.0) == pytest.approx(-1.0)
        assert tree.leaf_weight(-3.0, 2.0, 0.0) == pytest.approx(1.5)

    def test_degenerate_denominator(self):
        with pytest.raises(NumericalError):
            tree.leaf_weight(1.0, 0.0, 0.0)


class TestSplitGain:
    def test_hand_value(self):
        assert tree.split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 0.0) == pytest.approx(4.0)

    def test_zero_gradients_cost_eta(self):
        assert tree.split_gain(0.0, 1.0, 0.0, 2.0, 0.5, 0.7) == pytest.approx(-0.7)

    def test_proportional_children_add_nothing(self):
        # gl/hl = gr/hr with lambda = 0 gives gain exactly -eta
        assert tree.split_gain(2.0, 4.0, 3.0, 6.0, 0.0, 0.3) == pytest.approx(-0.3)

    def test_equals_objective_drop(self, rng):
        # adding a split with gain G lowers the plugged-in objective by G + eta
        g = rng.normal(size=30)
        h = rng.uniform(0.5, 2.0, size=30)
        left = rng.uniform(size=30) < 0.5
        lam, eta = 0.7, 0.2

        def node_obj(gs, hs):
            return -0.5 * gs.sum() ** 2 / (hs.sum() + lam)

        before = node_obj(g, h) + eta
        after = node_obj(g[left], h[left]) + node_obj(g[~left], h[~left]) + 2 * eta
        gain = tree.split_gain(g[left].sum(), h[left].sum(),
                               g[~left].sum(), h[~left].sum(), lam, eta)
        assert before - after == pytest.approx(gain, rel=1e-12)


def _exhaustive_best_split(X, g, h, lam, eta):
    """Brute-force oracle over every (feature, observed value) threshold."""
    best = None
    for j in range(X.shape[1]):
        for v in np.unique(X[:, j]):
            left = X[:, j] <= v
            if left.all() or not left.any():
                continue
            gain = tree.split_gain(g[left].sum(), h[left].sum(),
                                   g[~left].sum(), h[~left].sum(), lam, eta)
            if best is None or gain > best[0]:
                best = (gain, j, v, left)
    return best


class TestGrow:
    def test_all_zero_gradients_single_leaf(self, rng):
        X = rng.normal(size=(25, 2))
        t = tree.grow(tree.bin_features(X, 32), np.zeros(25), np.ones(25), max_leaves=4)
        assert len(t.nodes) == 1
        assert t.nodes[0].weight == 0.0

    def test_stump_recovers_step(self, rng):
        X = rng.normal(size=(20, 3))
        y = (X[:, 0] > 0).astype(float)
        # squared-loss gradients at the mean prediction
        g = y.mean() - y
        h = np.ones(20)
        t = tree.grow(tree.bin_features(X, 32), g, h, max_leaves=2, lambda_reg=0.0)
        oracle = _exhaustive_best_split(X, g, h, 0.0, 0.0)
        root = t.nodes[0]
        assert root.feature == oracle[1] == 0
        left = X[:, root.feature] <= root.threshold
        assert np.array_equal(left, oracle[3])

    def test_chosen_gain_dominates_all_candidates(self, rng):
        for _ in range(5):
            X = rng.normal(size=(50, 3))
            g = rng.normal(size=50)
            h = rng.uniform(0.5, 2.0, size=50)
            t = tree.grow(tree.bin_features(X, 64), g, h, max_leaves=2, lambda_reg=1.0)
            oracle = _exhaustive_best_split(X, g, h, 1.0, 0.0)
            assert not t.nodes[0].is_leaf
            assert t.nodes[0].gain == pytest.approx(oracle[0], rel=1e-9)

    def test_leaf_cap(self, rng):
        X = rng.normal(size=(100, 3))
        g = rng.normal(size=100)
        h = np.ones(100)
        for L in (2, 4, 7):
            t = tree.grow(tree.bin_features(X, 32), g, h, max_leaves=L, lambda_reg=1.0)
            assert oracles.n_leaves(t) <= L

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            tree.grow(tree.bin_features(np.empty((0, 2)), 32), np.empty(0), np.empty(0),
                      max_leaves=2)

    def test_monotone_transformation_invariance(self, rng):
        # order statistics as thresholds make routing invariant under
        # strictly increasing maps of a feature
        X = rng.normal(size=(40, 2))
        g = rng.normal(size=40)
        h = np.ones(40)
        t1 = tree.grow(tree.bin_features(X, 32), g, h, max_leaves=4, lambda_reg=1.0)

        Xt = X.copy()
        Xt[:, 0] = np.exp(X[:, 0])
        t2 = tree.grow(tree.bin_features(Xt, 32), g, h, max_leaves=4, lambda_reg=1.0)

        queries = rng.normal(size=(200, 2))
        queries_t = queries.copy()
        queries_t[:, 0] = np.exp(queries[:, 0])
        np.testing.assert_array_equal(t1.predict(queries), t2.predict(queries_t))

    def test_missing_values_follow_learned_default(self, rng):
        X = rng.normal(size=(60, 1))
        y = (X[:, 0] > 0).astype(float)
        # gradients pulling positives up; missing rows carry the positive signal
        g = 0.5 - y
        h = np.ones(60)
        X_missing = X.copy()
        hot = y == 1
        X_missing[np.flatnonzero(hot)[:10], 0] = np.nan
        t = tree.grow(tree.bin_features(X_missing, 32), g, h, max_leaves=2, lambda_reg=0.0)
        root = t.nodes[0]
        assert not root.is_leaf
        # the ten missing rows had y=1, so the default side must be the high side
        assert root.default_left is False
        pred_missing = t.predict(np.array([[np.nan]]))
        assert pred_missing[0] == t.nodes[root.right].weight


class TestPredict:
    def test_single_leaf(self):
        t = tree.Tree([tree.TreeNode(id=0, weight=0.7)])
        assert t.predict(np.array([[1.0, 2.0]]))[0] == 0.7

    def test_stump_routing(self):
        t = tree.Tree([
            tree.TreeNode(id=0, feature=0, threshold=0.0, default_left=True,
                          left=1, right=2, gain=1.0),
            tree.TreeNode(id=1, weight=-1.0),
            tree.TreeNode(id=2, weight=1.0),
        ])
        assert t.predict(np.array([[-5.0]]))[0] == -1.0
        assert t.predict(np.array([[5.0]]))[0] == 1.0

    def test_tie_routes_left(self):
        t = tree.Tree([
            tree.TreeNode(id=0, feature=0, threshold=0.0, default_left=True,
                          left=1, right=2, gain=1.0),
            tree.TreeNode(id=1, weight=-1.0),
            tree.TreeNode(id=2, weight=1.0),
        ])
        assert t.predict(np.array([[0.0]]))[0] == -1.0


class TestSerialization:
    def test_round_trip(self, rng):
        X = rng.normal(size=(50, 3))
        t = tree.grow(tree.bin_features(X, 32), rng.normal(size=50), np.ones(50), max_leaves=5,
                      lambda_reg=1.0)
        t2 = tree.Tree.from_doc(t.to_doc())
        np.testing.assert_array_equal(t.predict(X), t2.predict(X))

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError):
            tree.TreeNode.from_doc({"id": 0, "weight": 1.0, "bogus": 2})


# ---------------------------------------------------------------------------
# Binned engine against the per-feature scan it replaced
# ---------------------------------------------------------------------------

def _reference_best_split(X, g, h, rows, features, candidates, lambda_reg, eta):
    """Per-feature searchsorted/bincount scan over raw values (the engine
    before features were binned once per fit)."""
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    best = None
    for j in features:
        cand = candidates[j]
        if cand.size == 0:
            continue
        x = X[rows, j]
        missing = np.isnan(x)
        obs = ~missing
        if not obs.any():
            continue
        bucket = np.searchsorted(cand, x[obs], side="left")
        n_slots = cand.size + 1
        g_left = np.cumsum(np.bincount(bucket, weights=g[rows][obs], minlength=n_slots))[:-1]
        h_left = np.cumsum(np.bincount(bucket, weights=h[rows][obs], minlength=n_slots))[:-1]
        n_left = np.cumsum(np.bincount(bucket, minlength=n_slots))[:-1]
        g_miss = g[rows][missing].sum()
        h_miss = h[rows][missing].sum()
        n_miss = int(missing.sum())
        for default_left in (True, False):
            gl = g_left + g_miss if default_left else g_left
            hl = h_left + h_miss if default_left else h_left
            nl = n_left + n_miss if default_left else n_left
            valid = (nl > 0) & (nl < rows.size)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = tree.split_gain(gl, hl, g_total - gl, h_total - hl, lambda_reg, eta)
            gains = np.where(valid, gains, -np.inf)
            t = int(np.argmax(gains))
            if np.isfinite(gains[t]) and (best is None or gains[t] > best[0]):
                best = (float(gains[t]), int(j), float(cand[t]), default_left)
    return best


def _reference_grow(X, g, h, max_leaves, lambda_reg, eta, n_bins, feature_subset):
    """Best-first growth routing raw values on ``x <= threshold``."""
    p = X.shape[1]
    features = np.arange(p) if feature_subset is None else np.sort(feature_subset)
    candidates = {int(j): tree.quantile_candidates(X[:, j], n_bins) for j in features}
    t = tree.Tree([tree.TreeNode(id=0, weight=tree.leaf_weight(g.sum(), h.sum(), lambda_reg),
                                 cover=float(h.sum()))])
    node_rows = {0: np.arange(X.shape[0])}
    heap, pending = [], {}

    def consider(nid):
        split = _reference_best_split(X, g, h, node_rows[nid], features, candidates,
                                      lambda_reg, eta)
        if split is not None:
            pending[nid] = split
            heapq.heappush(heap, (-split[0], nid))

    consider(0)
    n_leaves = 1
    while n_leaves < max_leaves and heap:
        neg_gain, nid = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break
        gain, feature, threshold, default_left = pending.pop(nid)
        rows = node_rows.pop(nid)
        x = X[rows, feature]
        go_left = (x <= threshold) | (np.isnan(x) & default_left)
        node = t.nodes[nid]
        node.feature, node.threshold, node.default_left = feature, threshold, default_left
        node.gain, node.weight = gain, None
        for child_rows in (rows[go_left], rows[~go_left]):
            cid = len(t.nodes)
            t.nodes.append(tree.TreeNode(
                id=cid, cover=float(h[child_rows].sum()),
                weight=tree.leaf_weight(g[child_rows].sum(), h[child_rows].sum(), lambda_reg)))
            node_rows[cid] = child_rows
        node.left, node.right = t.nodes[-2].id, t.nodes[-1].id
        n_leaves += 1
        if n_leaves < max_leaves:
            consider(node.left)
            consider(node.right)
    return t


@st.composite
def _feature_matrices(draw):
    """Columns with NaNs, ties, constants and all-NaN columns, plus a seed."""
    n = draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(["normal", "ties", "constant", "all_nan"]),
                          min_size=1, max_size=6))
    nan_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    cols = []
    for kind in kinds:
        if kind == "normal":
            x = rng.normal(size=n)
        elif kind == "ties":
            x = rng.integers(0, 4, size=n).astype(float)
        elif kind == "constant":
            x = np.full(n, 1.5)
        else:
            x = np.full(n, np.nan)
        x[rng.uniform(size=n) < nan_rate] = np.nan
        cols.append(x)
    return np.column_stack(cols), seed


def _outcome(fn):
    """to_doc() of the grown tree, or the type of the error it raised."""
    try:
        return fn().to_doc()
    except (NumericalError, DataError) as exc:
        return type(exc)


class TestBinnedEngine:
    @settings(max_examples=80, deadline=None)
    @given(data=_feature_matrices(), n_bins=st.sampled_from([2, 3, 8, 32]))
    def test_codes_route_like_raw_thresholds(self, data, n_bins):
        X, _ = data
        binned = tree.bin_features(X, n_bins)
        assert binned.shape == X.shape
        assert binned.codes.dtype == np.uint8
        for j in range(X.shape[1]):
            x, codes, cand = X[:, j], binned.codes[:, j], binned.candidates[j]
            np.testing.assert_array_equal(cand, tree.quantile_candidates(x, n_bins))
            missing = codes == n_bins
            np.testing.assert_array_equal(missing, np.isnan(x))
            for t in range(cand.size):
                np.testing.assert_array_equal((codes <= t) & ~missing, x <= cand[t])

    @settings(max_examples=80, deadline=None)
    @given(data=_feature_matrices(),
           n_bins=st.sampled_from([2, 3, 8, 32]),
           max_leaves=st.integers(2, 8),
           lambda_reg=st.sampled_from([0.0, 1.0]),
           eta=st.sampled_from([0.0, 0.05]),
           colsample=st.sampled_from([0.4, 0.7, 1.0]),
           zero_hessians=st.booleans(),
           block_cells=st.sampled_from([5, 64, tree._HIST_BLOCK_CELLS, 1 << 20]))
    def test_matches_per_feature_scan(self, data, n_bins, max_leaves, lambda_reg, eta,
                                      colsample, zero_hessians, block_cells):
        X, seed = data
        n, p = X.shape
        rng = np.random.default_rng(seed + 1)
        g = np.round(rng.normal(size=n), 1)  # ties in the gradients too
        h = rng.uniform(0.1, 2.0, size=n)
        if zero_hessians:
            h[rng.uniform(size=n) < 0.5] = 0.0
        subset = None
        if colsample < 1.0:
            subset = np.sort(rng.choice(p, size=max(1, round(colsample * p)), replace=False))
        args = (g, h, max_leaves, lambda_reg, eta)
        expected = _outcome(lambda: _reference_grow(X, *args, n_bins, subset))
        with mock.patch.object(tree, "_HIST_BLOCK_CELLS", block_cells):
            assert _outcome(lambda: tree.grow(tree.bin_features(X, n_bins), *args,
                                              subset)) == expected

    def test_too_few_bins_rejected(self):
        with pytest.raises(DataError, match="n_quantile_bins"):
            tree.bin_features(np.zeros((3, 1)), 1)

    def test_too_many_bins_rejected(self):
        with pytest.raises(DataError, match="n_quantile_bins"):
            tree.bin_features(np.zeros((3, 1)), 256)

    def test_most_bins_fit_one_byte(self, rng):
        X = rng.normal(size=(600, 2))
        X[::7, 1] = np.nan
        binned = tree.bin_features(X, 255)
        assert binned.codes.dtype == np.uint8
        np.testing.assert_array_equal(binned.codes[:, 1] == 255, np.isnan(X[:, 1]))
        assert binned.codes[:, 0].max() == binned.candidates[0].size


class TestMissingRowSums:
    """A node's missing-row g and h sums equal the per-feature scan's
    ``.sum()`` bit for bit: read from the histogram's missing slot below
    ``_PAIRWISE_MIN`` rows, gathered from ``BinnedFeatures.missing`` and
    summed pairwise from there on (numpy's pairwise blocks hold 128)."""

    COUNTS = (0, 1, 7, 8, 9, 128, 129, 300)
    N_BINS = 32

    def _data(self, negative_zero):
        """Feature j misses ``COUNTS[j]`` of the even rows (the tested node)
        and as many odd rows; g and h have full mantissas over 16 decades,
        so the order of a sum shows in its bits."""
        rng = np.random.default_rng(7)
        n, p = 2400, len(self.COUNTS)
        X = rng.normal(size=(n, p))
        start = 0
        for j, m in enumerate(self.COUNTS):
            block = 2 * np.arange(start, start + m)
            X[block, j] = np.nan
            X[block + 1, j] = np.nan
            start += m
        g = rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        h = rng.uniform(0.1, 2.0, size=n) * 10.0 ** rng.integers(-8, 9, size=n)
        if negative_zero:
            g[np.isnan(X).any(axis=1)] = -0.0
        return X, g, h

    @staticmethod
    def _rows(node, n):
        return np.arange(n) if node == "root" else np.arange(0, n, 2)

    @pytest.mark.parametrize("negative_zero", [False, True])
    @pytest.mark.parametrize("node", ["root", "even rows"])
    @pytest.mark.parametrize("features", [None, [1, 4, 5, 7]])
    def test_missing_slot_is_the_sum_of_the_missing_rows(self, negative_zero, node,
                                                         features):
        X, g, h = self._data(negative_zero)
        rows = self._rows(node, X.shape[0])
        features = np.arange(X.shape[1]) if features is None else np.array(features)
        binned = tree.bin_features(X, self.N_BINS)
        hists = tree._node_histograms(binned, g, h, rows, features)
        order_shows = False
        for k, j in enumerate(features):
            missing = np.isnan(X[rows, j])
            assert hists[2][k, self.N_BINS] == missing.sum()
            for hist, w in zip(hists, (g, h)):
                expect = w[rows][missing].sum()
                assert hist[k, self.N_BINS].tobytes() == expect.tobytes(), (j, missing.sum())
                left_to_right = np.bincount(np.zeros(missing.sum(), dtype=int),
                                            w[rows][missing], 1)[0]
                order_shows |= left_to_right != expect
        # the data tells a pairwise sum from a left-to-right one
        assert order_shows

    @pytest.mark.parametrize("negative_zero", [False, True])
    @pytest.mark.parametrize("node", ["root", "even rows"])
    def test_best_split_matches_the_reference_scan(self, negative_zero, node):
        X, g, h = self._data(negative_zero)
        rows = self._rows(node, X.shape[0])
        binned = tree.bin_features(X, self.N_BINS)
        candidates = dict(enumerate(binned.candidates))
        for features in [np.array([j]) for j in range(X.shape[1])] + [np.arange(X.shape[1])]:
            split = tree._best_split_for_node(binned, g, h, rows, features, 1.0, 0.0)
            expect = _reference_best_split(X, g, h, rows, features, candidates, 1.0, 0.0)
            assert (split.gain, split.feature, split.threshold, split.default_left) == expect

    def test_missing_index_lists_each_features_rows(self):
        X, _, _ = self._data(False)
        binned = tree.bin_features(X, self.N_BINS)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(binned.missing[j], np.flatnonzero(np.isnan(X[:, j])))


class TestLeafRows:
    def test_leaf_rows_partition_the_rows_as_predict_routes_them(self, rng):
        X = rng.normal(size=(300, 4))
        X[rng.uniform(size=X.shape) < 0.1] = np.nan
        leaves = {}
        t = tree.grow(tree.bin_features(X, 16), rng.normal(size=300), np.ones(300),
                      max_leaves=6, leaf_rows=leaves)
        assert sorted(leaves) == [n.id for n in t.nodes if n.is_leaf]
        np.testing.assert_array_equal(np.sort(np.concatenate(list(leaves.values()))),
                                      np.arange(300))
        pred = t.predict(X)
        for nid, rows in leaves.items():
            assert (pred[rows] == t.nodes[nid].weight).all()


def test_grow_working_memory_is_below_one_copy_of_the_matrix():
    """Split search fills histograms in blocks of ``_HIST_BLOCK_CELLS`` and
    gathers missing rows from the per-fit index, so growing a tree needs less
    memory than one float64 copy of the feature matrix."""
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20_000, 39))
    X[rng.uniform(size=X.shape) < 0.05] = np.nan
    binned = tree.bin_features(X, 32)
    g, h = rng.normal(size=20_000), rng.uniform(0.5, 2.0, size=20_000)
    _, peak = traced_peak(tree.grow, binned, g, h, max_leaves=8)
    assert peak < X.nbytes
