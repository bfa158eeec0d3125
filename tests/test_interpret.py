import numpy as np
import pytest

from evtboost import booster, cli, interpret, losses, tree
from evtboost.errors import DataError


def stump(feature, threshold, w_left, w_right, gain=1.0, cover=2.0):
    return tree.Tree([
        tree.TreeNode(id=0, feature=feature, threshold=threshold, default_left=True,
                      left=1, right=2, gain=gain, cover=cover),
        tree.TreeNode(id=1, weight=w_left, cover=cover / 2),
        tree.TreeNode(id=2, weight=w_right, cover=cover / 2),
    ])


def model_from_trees(trees, n_features=2):
    return booster.BoostedModel(
        loss=losses.LossSpec(kind="squared_log"),
        base_score=0.0,
        trees=trees,
        params=booster.TrainParams(learning_rate=1.0),
        feature_names=[f"x{j}" for j in range(n_features)],
    )


class TestPartialDependence:
    def test_constant_model(self, rng):
        m = model_from_trees([tree.Tree([tree.TreeNode(id=0, weight=0.4, cover=1.0)])])
        X = rng.normal(size=(50, 2))
        res = interpret.partial_dependence(m, X, [0], np.linspace(-1, 1, 5))
        np.testing.assert_allclose(res.estimate, 0.4)
        np.testing.assert_allclose(res.lo, 0.4)
        np.testing.assert_allclose(res.hi, 0.4)

    def test_additive_model_closed_form(self, rng):
        # a(x0) + b(x1) as two stumps; PDP on x0 is a(x) + mean_i b(x_i1)
        a = stump(0, 0.0, -1.0, 1.0)
        b = stump(1, 0.5, 2.0, 5.0)
        m = model_from_trees([a, b])
        X = rng.normal(size=(200, 2))
        grid = np.array([-2.0, -0.5, 0.5, 2.0])
        res = interpret.partial_dependence(m, X, [0], grid)
        b_mean = np.where(X[:, 1] <= 0.5, 2.0, 5.0).mean()
        expect = np.where(grid <= 0.0, -1.0, 1.0) + b_mean
        np.testing.assert_allclose(res.estimate, expect, rtol=1e-12)

    def test_exact_when_all_features_in_set(self, rng):
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)])
        X = rng.normal(size=(100, 2))
        grid = np.array([[-1.0, 0.0], [1.0, 1.0]])
        res = interpret.partial_dependence(m, X, [0, 1], grid)
        expect = np.array([-1.0 + 2.0, 1.0 + 5.0])
        np.testing.assert_allclose(res.estimate, expect)
        np.testing.assert_allclose(res.lo, res.estimate)
        np.testing.assert_allclose(res.hi, res.estimate)

    def test_transform_applied_per_sample(self, rng):
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)])
        X = rng.normal(size=(100, 2))
        grid = np.array([0.5])
        res = interpret.partial_dependence(m, X, [0], grid, transform=np.exp)
        raw = 1.0 + np.where(X[:, 1] <= 0.5, 2.0, 5.0)
        assert res.estimate[0] == pytest.approx(np.exp(raw).mean())
        assert res.estimate[0] != pytest.approx(np.exp(raw.mean()))

    def test_subsample_is_seeded(self, rng):
        """``sample_rows`` draws distinct rows fixed by the seed, and every
        row in order when asked for as many as there are."""
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)])
        X = rng.normal(size=(500, 2))
        grid = np.array([0.0])
        rows = [interpret.sample_rows(500, 50, seed) for seed in (3, 3, 4)]
        assert rows[0].tobytes() == rows[1].tobytes()
        assert np.unique(rows[0]).size == 50 and 0 <= rows[0].min() <= rows[0].max() < 500
        r1, r2, r3 = (interpret.partial_dependence(m, X[r], [0], grid) for r in rows)
        assert r1.estimate[0] == r2.estimate[0]
        assert r1.estimate[0] != r3.estimate[0]
        np.testing.assert_array_equal(interpret.sample_rows(40, 40, 3), np.arange(40))
        np.testing.assert_array_equal(interpret.sample_rows(40, 50, 3), np.arange(40))

    def test_every_row_sample_leaves_x_as_it_came(self, rng):
        """A writable X is worked on in place: it comes back unchanged,
        after a failing transform too, and gives the estimates of a
        read-only copy, which is worked on in a copy of its own."""
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)])
        X = rng.normal(size=(40, 2))
        X[3, 0] = np.nan
        frozen = X.copy()
        frozen.flags.writeable = False
        grid = np.linspace(-2, 2, 7)
        res = interpret.partial_dependence(m, X, [0], grid)
        assert X.tobytes() == frozen.tobytes()
        want = interpret.partial_dependence(m, frozen, [0], grid)
        for got, expect in ((res.estimate, want.estimate), (res.lo, want.lo), (res.hi, want.hi)):
            assert got.tobytes() == expect.tobytes()

        def failing(raw):
            raise ValueError("transform failed")
        with pytest.raises(ValueError):
            interpret.partial_dependence(m, X, [0], grid, transform=failing)
        assert X.tobytes() == frozen.tobytes()

    def test_band_ordering(self, rng):
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)])
        X = rng.normal(size=(300, 2))
        res = interpret.partial_dependence(m, X, [0], np.linspace(-2, 2, 7))
        assert np.all(res.lo <= res.estimate + 1e-12)
        assert np.all(res.estimate <= res.hi + 1e-12)

    def test_default_subsample_size(self):
        args = cli.build_parser().parse_args(["pdp", "--model", "m.json", "--data", "d.csv",
                                              "--features", "x0", "--out", "p.csv"])
        assert args.n_sub == 10000

    def test_empty_feature_set_rejected(self, rng):
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0)])
        with pytest.raises(DataError):
            interpret.partial_dependence(m, rng.normal(size=(10, 2)), [],
                                         np.zeros((1, 0)))


class TestImportance:
    def test_single_split_owns_everything(self):
        m = model_from_trees([stump(0, 0.0, -1.0, 1.0, gain=2.5, cover=7.0)])
        assert interpret.importance(m, "gain") == {"x0": 1.0}
        assert interpret.importance(m, "coverage") == {"x0": 1.0}

    def test_hand_normalization(self):
        m = model_from_trees([stump(0, 0.0, -1, 1, gain=3.0, cover=1.0),
                              stump(1, 0.0, -1, 1, gain=1.0, cover=1.0)])
        imp = interpret.importance(m, "gain")
        assert imp["x0"] == pytest.approx(0.75)
        assert imp["x1"] == pytest.approx(0.25)

    def test_symmetric_stumps_split_evenly(self):
        m = model_from_trees([stump(0, 0.0, -1, 1, gain=2.0, cover=4.0),
                              stump(1, 0.0, -1, 1, gain=2.0, cover=4.0)])
        for metric in ("gain", "coverage"):
            imp = interpret.importance(m, metric)
            assert imp["x0"] == pytest.approx(0.5)
            assert imp["x1"] == pytest.approx(0.5)

    def test_proportions_sum_to_one(self, rng):
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 6, size=200).astype(float)
        m = booster.fit(X, y, losses.LossSpec(kind="poisson"),
                        booster.TrainParams(n_trees=10, max_leaves=5, seed=1))
        for metric in ("gain", "coverage"):
            imp = interpret.importance(m, metric)
            assert sum(imp.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(v >= 0 for v in imp.values())

    def test_no_split_empty_map(self):
        m = model_from_trees([tree.Tree([tree.TreeNode(id=0, weight=0.0, cover=1.0)])])
        assert interpret.importance(m) == {}

    def test_pdp_invariant_to_tree_order(self, rng):
        t1, t2 = stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)
        X = rng.normal(size=(100, 2))
        grid = np.linspace(-1, 1, 4)
        r12 = interpret.partial_dependence(model_from_trees([t1, t2]), X, [0], grid)
        r21 = interpret.partial_dependence(model_from_trees([t2, t1]), X, [0], grid)
        np.testing.assert_allclose(r12.estimate, r21.estimate)
