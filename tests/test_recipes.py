import numpy as np
import pytest

from conftest import block_boundary_cases
from evtboost import booster, dataset, evaluate, losses, recipes, spatialcv
from evtboost.errors import DataError
from evtboost.synth import synth_dataset


def masked_counts(seed=0):
    return synth_dataset("counts", n_years=2, nx=5, ny=5, seed=seed, mask_rate=0.15)


class TestResponseOf:
    def test_count_losses_model_cnt_and_the_rest_ba(self):
        assert {k: losses.LossSpec(kind=k).response for k in losses.LOSS_KINDS} == {
            "poisson": "cnt", "dgpd": "cnt", "trgamma": "ba", "gpd": "ba",
            "cross_entropy": "ba", "squared_log": "ba"}

    def test_recipes_carry_their_response(self):
        tp = booster.TrainParams(n_trees=1)
        for kind in losses.LOSS_KINDS:
            recipe = recipes.BoosterRecipe(loss=losses.LossSpec(kind=kind), params=tp)
            assert recipe.response == losses.LossSpec(kind=kind).response
        mix = recipes.MixtureRecipe(classifier_params=tp, bulk_params=tp, tail_params=tp)
        assert mix.response == "ba"


class TestResponseRows:
    def test_count_losses_need_cnt(self):
        ds = masked_counts()
        rows, y = losses.training_rows("dgpd", ds.cnt, 200.0)
        assert rows.sum() == y.size
        assert not np.isnan(y).any()

    def test_ba_subsets_partition(self):
        ds = synth_dataset("sizes", n_years=2, nx=5, ny=5, seed=1)
        bulk_rows, z = losses.training_rows("trgamma", ds.ba, 200.0)
        tail_rows, exc = losses.training_rows("gpd", ds.ba, 200.0)
        cls_rows, labels = losses.training_rows("cross_entropy", ds.ba, 200.0)
        assert not (bulk_rows & tail_rows).any()
        assert np.all(z > 0) and np.all(z <= np.log1p(200.0))
        assert np.all(exc > 0)
        assert (labels == 0).sum() + (labels == 1).sum() + (labels == 2).sum() == \
            cls_rows.sum()


class TestCountThresholdProbs:
    def test_dgpd_cdf_matches_survival(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 6, size=20).astype(float)
        m = booster.fit(X, y, losses.LossSpec(kind="dgpd", alpha=4.0),
                        booster.TrainParams(n_trees=3, seed=1))
        theta = booster.predict_raw(m, X)
        probs = recipes.count_threshold_probs(m.loss, theta, [0.0, 2.5, 10.0])
        for j, u in enumerate([0.0, 2.5, 10.0]):
            expect = 1.0 - losses.dgpd_survival(np.floor(u) + 1.0, theta, 4.0)
            np.testing.assert_allclose(probs[:, j], expect)

    def test_poisson_cdf_monotone_and_bounded(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 6, size=20).astype(float)
        m = booster.fit(X, y, losses.LossSpec(kind="poisson"),
                        booster.TrainParams(n_trees=3, seed=1))
        probs = recipes.count_threshold_probs(m.loss, booster.predict_raw(m, X),
                                              np.arange(12, dtype=float))
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all(np.diff(probs, axis=1) >= 0)

    @pytest.mark.parametrize("loss", [losses.LossSpec(kind="dgpd", alpha=4.0),
                                      losses.LossSpec(kind="poisson")], ids=["dgpd", "poisson"])
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_blocks_give_the_bytes_of_one_block(self, monkeypatch, loss, block, n):
        theta = np.random.default_rng(n).normal(0.5, 1.5, size=n)
        thresholds = [0.0, 1.0, 2.5, 7.0, 30.0, 1e4]
        whole = recipes.count_threshold_probs(loss, theta, thresholds)
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", block)
        blocked = recipes.count_threshold_probs(loss, theta, thresholds)
        assert blocked.shape == (n, len(thresholds))
        assert blocked.tobytes() == whole.tobytes()

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError, match="must be >= 0"):
            recipes.count_threshold_probs(losses.LossSpec(kind="poisson"), [0.0], [-1.0, 2.0])

    def test_size_loss_rejected(self):
        with pytest.raises(DataError, match="no count CDF"):
            recipes.count_threshold_probs(losses.LossSpec(kind="gpd"), [0.0], [1.0])


class TestMixtureRecipeCv:
    def test_cv_over_classifier_rounds(self):
        ds = synth_dataset("sizes", n_years=2, nx=5, ny=5, seed=5, mask_rate=0.15)
        params = spatialcv.calibrate_intercepts(
            ds, spatialcv.MaskModelParams(sigma_gp=1.0, phi=0.1))
        folds = spatialcv.generate_folds(ds, params, n_folds=2, seed=6)
        tp = booster.TrainParams(n_trees=8, max_leaves=4, seed=7)
        spec = evaluate.ThresholdScoreSpec(
            np.concatenate([[0.0], np.geomspace(1, 3000, 9)]))
        recipe = recipes.MixtureRecipe(classifier_params=tp, bulk_params=tp,
                                       tail_params=tp, score_spec=spec)
        cv = evaluate.run_cv(ds, folds, recipe, checkpoints=[1, 8])
        assert cv.scores.shape == (2, 2)
        assert np.isfinite(cv.scores).all()
        pick = evaluate.one_se_select(cv)
        assert pick in (1, 8)
