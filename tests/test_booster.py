import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evtboost import booster, losses, tree
from evtboost.errors import DataError
from evtboost.synth import sample_dgpd


def _spec(kind, **kw):
    return losses.LossSpec(kind=kind, **kw)


class TestInitialEstimate:
    def test_squared_log_is_mean_of_transform(self):
        # responses whose log1p transform is {0, 2, 4}
        ys = np.expm1([0.0, 2.0, 4.0])
        est = booster.initial_estimate(ys, _spec("squared_log"))
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_poisson_log_mean(self):
        est = booster.initial_estimate([1, 2, 3], _spec("poisson"))
        assert est == pytest.approx(math.log(2), abs=1e-9)

    def test_cross_entropy_uniform(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        est = booster.initial_estimate(labels, _spec("cross_entropy", n_classes=3))
        np.testing.assert_allclose(losses.softmax(est), [1 / 3] * 3, atol=1e-9)

    def test_matches_grid_search(self, rng):
        ys = rng.integers(0, 12, size=200).astype(float)
        spec = _spec("dgpd", alpha=3.0)
        est = booster.initial_estimate(ys, spec)
        grid = np.linspace(est - 0.5, est + 0.5, 2001)
        vals = [losses.dgpd_eval(ys, np.full_like(ys, t), 3.0)[0].sum() for t in grid]
        assert abs(grid[int(np.argmin(vals))] - est) < 1e-3


class TestFit:
    def test_zero_rounds_is_base_score(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 5, size=30).astype(float)
        m = booster.fit(X, y, _spec("poisson"), booster.TrainParams(n_trees=0))
        np.testing.assert_allclose(booster.predict_raw(m, X), m.base_score)

    def test_step_function_converges(self, rng):
        X = rng.normal(size=(200, 2))
        y = np.expm1((X[:, 0] > 0).astype(float))  # log1p(y) = indicator
        params = booster.TrainParams(n_trees=50, learning_rate=0.3, max_leaves=2,
                                     lambda_reg=0.0, seed=1)
        m = booster.fit(X, y, _spec("squared_log"), params)
        mse = np.mean((booster.predict_raw(m, X) - np.log1p(y)) ** 2)
        assert mse < 0.01

    def test_bit_identical_reruns(self, rng):
        X = rng.normal(size=(100, 3))
        y = rng.integers(0, 6, size=100).astype(float)
        params = booster.TrainParams(n_trees=20, colsample=0.7, seed=11)
        m1 = booster.fit(X, y, _spec("dgpd", alpha=4.0), params)
        m2 = booster.fit(X, y, _spec("dgpd", alpha=4.0), params)
        assert booster.dumps(m1) == booster.dumps(m2)

    def test_one_round_equals_best_stump(self, rng):
        X = rng.normal(size=(20, 3))
        y = np.expm1((X[:, 1] > 0.2).astype(float))
        spec = _spec("squared_log")
        params = booster.TrainParams(n_trees=1, learning_rate=1.0, max_leaves=2,
                                     lambda_reg=0.0, seed=0)
        m = booster.fit(X, y, spec, params)

        base = booster.initial_estimate(y, spec)
        _, g, h = losses.squared_log_eval(y, np.full(20, base))
        h = np.maximum(h, booster.HESS_FLOOR)
        best = None
        for j in range(3):
            for v in np.unique(X[:, j]):
                left = X[:, j] <= v
                if left.all() or not left.any():
                    continue
                gain = tree.split_gain(g[left].sum(), h[left].sum(),
                                       g[~left].sum(), h[~left].sum(), 0.0, 0.0)
                if best is None or gain > best[0]:
                    best = (gain, j, left)
        _, j, left = best
        wl = tree.leaf_weight(g[left].sum(), h[left].sum(), 0.0)
        wr = tree.leaf_weight(g[~left].sum(), h[~left].sum(), 0.0)
        root = m.trees[0].nodes[0]
        assert root.feature == j
        assert np.array_equal(X[:, root.feature] <= root.threshold, left)
        assert m.trees[0].nodes[root.left].weight == wl
        assert m.trees[0].nodes[root.right].weight == wr

    def test_domain_error_carries_row(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.ones(10)
        y[7] = 25.0  # above the truncation point
        with pytest.raises(DataError, match="y=25"):
            booster.fit(X, y, _spec("trgamma", k_shape=1.0, u_trunc=10.0),
                        booster.TrainParams(n_trees=2))

    @pytest.mark.parametrize("n_bins", [-1, 0, 1])
    def test_too_few_quantile_bins_rejected(self, n_bins):
        with pytest.raises(DataError, match="n_quantile_bins"):
            booster.TrainParams(n_quantile_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [256, 10 ** 12])
    def test_too_many_quantile_bins_rejected(self, n_bins):
        with pytest.raises(DataError, match=r"n_quantile_bins must lie in \[2, 255\]"):
            booster.TrainParams(n_quantile_bins=n_bins)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1180591620717411303424])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DataError, match=r"seed must lie in \[0, 2\*\*64\)"):
            booster.TrainParams(colsample=0.5, seed=seed)

    def test_largest_seed_subsamples(self, rng):
        X, y = rng.normal(size=(40, 4)), rng.poisson(2.0, size=40).astype(float)
        m = booster.fit(X, y, _spec("poisson"),
                        booster.TrainParams(n_trees=2, max_leaves=2, colsample=0.5,
                                            seed=2 ** 64 - 1))
        assert len(m.trees) == 2

    def test_features_binned_once_per_fit(self, rng, monkeypatch):
        # 3 classes x 4 rounds = 12 trees on half the features each, but the
        # candidates of every feature are computed once
        X = rng.normal(size=(80, 6))
        X[rng.uniform(size=X.shape) < 0.1] = np.nan
        labels = rng.integers(0, 3, size=80)
        calls = []
        original = tree.quantile_candidates

        def counted(x, n_bins):
            calls.append(n_bins)
            return original(x, n_bins)

        monkeypatch.setattr(tree, "quantile_candidates", counted)
        m = booster.fit(X, labels, _spec("cross_entropy", n_classes=3),
                        booster.TrainParams(n_trees=4, max_leaves=4, colsample=0.5, seed=2))
        assert len(m.trees) == 12
        assert len(calls) == X.shape[1]

    @pytest.mark.parametrize("kind", ["poisson", "dgpd", "squared_log"])
    def test_training_loss_non_increasing(self, kind, rng):
        X = rng.normal(size=(300, 3))
        theta = 0.3 - 0.9 * X[:, 0]
        y = sample_dgpd(theta, 5.0, rng)
        spec = _spec(kind, alpha=5.0)
        params = booster.TrainParams(n_trees=40, learning_rate=0.3, eta=0.0, seed=5)
        m = booster.fit(X, y, spec, params)
        assert np.all(np.diff(m.train_losses) <= 1e-8)


class TestPredictRaw:
    def test_additivity(self):
        leaf = lambda w: tree.Tree([tree.TreeNode(id=0, weight=w)])
        m = booster.BoostedModel(
            loss=_spec("squared_log"), base_score=0.5, trees=[leaf(0.2), leaf(0.3)],
            params=booster.TrainParams(learning_rate=1.0), feature_names=["a"])
        np.testing.assert_allclose(booster.predict_raw(m, np.zeros((3, 1))), 1.0)

    def test_prefix_evaluation(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 4, size=50).astype(float)
        m = booster.fit(X, y, _spec("poisson"), booster.TrainParams(n_trees=10, seed=2))
        full = booster.predict_raw(m, X)
        prefix = booster.predict_raw(m, X, n_trees=4)
        m4 = booster.fit(X, y, _spec("poisson"), booster.TrainParams(n_trees=4, seed=2))
        np.testing.assert_allclose(prefix, booster.predict_raw(m4, X))
        assert not np.allclose(full, prefix)

    def test_feature_mismatch(self, rng):
        X = rng.normal(size=(10, 2))
        y = rng.integers(0, 4, size=10).astype(float)
        m = booster.fit(X, y, _spec("poisson"), booster.TrainParams(n_trees=1))
        with pytest.raises(DataError, match="feature mismatch"):
            booster.predict_raw(m, np.zeros((5, 3)))

    def test_multiclass_shift_invariance(self, rng):
        X = rng.normal(size=(80, 2))
        labels = rng.integers(0, 3, size=80)
        m = booster.fit(X, labels, _spec("cross_entropy", n_classes=3),
                        booster.TrainParams(n_trees=5, seed=3))
        raw = booster.predict_raw(m, X)
        p1 = losses.softmax(raw)
        p2 = losses.softmax(raw + 3.3)
        np.testing.assert_allclose(p1, p2, atol=1e-12)


@functools.cache
def _staged_models():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 3))
    counts = rng.poisson(2.0, size=60).astype(float)
    labels = rng.integers(0, 3, size=60)
    params = booster.TrainParams(n_trees=6, max_leaves=4, seed=3)
    return X, {
        "scalar": booster.fit(X, counts, _spec("poisson"), params),
        "multiclass": booster.fit(X, labels, _spec("cross_entropy", n_classes=3), params),
    }


def _prefix_sum(m, X, n_rounds):
    """Base score plus the trees of the first rounds, added one at a time."""
    C = m.loss.n_classes if m.loss.multiclass else 1
    out = np.tile(np.asarray(m.base_score, dtype=float), (X.shape[0], 1))
    for i, t in enumerate(m.trees[: n_rounds * C]):
        out[:, i % C] += m.params.learning_rate * t.predict(X)
    return out if m.loss.multiclass else out[:, 0]


class TestPredictRawStaged:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["scalar", "multiclass"]),
           checkpoints=st.lists(st.one_of(st.none(), st.integers(0, 9)),
                                min_size=1, max_size=6))
    def test_snapshots_equal_prefix_predictions(self, kind, checkpoints):
        X, models = _staged_models()
        m = models[kind]
        snaps = booster.predict_raw_staged(m, X, checkpoints)
        assert len(snaps) == len(checkpoints)
        for k, snap in zip(checkpoints, snaps):
            np.testing.assert_array_equal(snap, booster.predict_raw(m, X, n_trees=k))
            rounds = m.n_rounds if k is None else min(k, m.n_rounds)
            np.testing.assert_array_equal(snap, _prefix_sum(m, X, rounds))

    def test_negative_checkpoint_is_data_error(self):
        X, models = _staged_models()
        with pytest.raises(DataError, match="checkpoints must be >= 0, got -3"):
            booster.predict_raw_staged(models["scalar"], X, [2, -3])


class TestSerialization:
    def _model(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 5, size=60).astype(float)
        return booster.fit(X, y, _spec("dgpd", alpha=3.0),
                           booster.TrainParams(n_trees=5, seed=4)), X

    def test_save_load_save_byte_identical(self, rng, tmp_path):
        m, X = self._model(rng)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        booster.save(m, p1)
        booster.save(booster.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_predictions(self, rng):
        m, X = self._model(rng)
        m2 = booster.loads(booster.dumps(m))
        np.testing.assert_array_equal(booster.predict_raw(m, X),
                                      booster.predict_raw(m2, X))

    def test_unknown_version_rejected(self, rng):
        m, _ = self._model(rng)
        doc = booster.to_doc(m)
        doc["format_version"] = 99
        with pytest.raises(DataError, match="version"):
            booster.from_doc(doc)

    def test_hand_written_stump_document(self):
        doc = {
            "format_version": 1,
            "loss": {"kind": "squared_log"},
            "base_score": 0.0,
            "feature_names": ["a"],
            "params": {"n_trees": 1, "learning_rate": 1.0, "max_leaves": 2,
                       "lambda_reg": 0.0, "eta": 0.0, "colsample": 1.0,
                       "n_quantile_bins": 32, "seed": 0},
            "trees": [{"nodes": [
                {"id": 0, "feature": 0, "threshold": 0.5, "default_left": True,
                 "left": 1, "right": 2, "gain": 1.0, "cover": 4.0},
                {"id": 1, "weight": -2.0, "cover": 2.0},
                {"id": 2, "weight": 3.0, "cover": 2.0},
            ]}],
        }
        m = booster.from_doc(doc)
        X = np.array([[0.0], [0.5], [1.0]])
        np.testing.assert_allclose(booster.predict_raw(m, X), [-2.0, -2.0, 3.0])
