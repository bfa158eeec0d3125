from unittest import mock

import numpy as np
import pytest

from helpers import block_boundary_cases, traced_peak
from evtboost import booster, dataset, evaluate, losses, mixture, recipes, spatialcv
from evtboost.errors import DataError
from evtboost.synth import synth_dataset


class TestThresholdScore:
    def spec28(self):
        return evaluate.ThresholdScoreSpec(np.arange(28, dtype=float))

    def test_perfect_probabilities_score_zero(self):
        spec = self.spec28()
        ys = np.array([3.0, 10.0])
        probs = (ys[:, None] <= spec.thresholds[None, :]).astype(float)
        assert evaluate.threshold_score(probs, ys, spec) == 0.0

    def test_single_low_y_constant_half(self):
        spec = self.spec28()
        ys = np.array([-1.0])  # below every threshold
        probs = np.full((1, 28), 0.5)
        assert evaluate.threshold_score(probs, ys, spec) == pytest.approx(7.0)

    def test_weight_linearity(self, rng):
        thresholds = np.arange(5, dtype=float)
        ys = rng.uniform(0, 5, size=10)
        probs = rng.uniform(size=(10, 5))
        s1 = evaluate.threshold_score(probs, ys,
                                      evaluate.ThresholdScoreSpec(thresholds))
        s2 = evaluate.threshold_score(
            probs, ys, evaluate.ThresholdScoreSpec(thresholds, 2 * np.ones(5)))
        assert s2 == pytest.approx(2 * s1)

    def test_minimizing_constant_is_empirical_frequency(self, rng):
        # proper-score sanity: binary indicator target at one threshold
        spec = evaluate.ThresholdScoreSpec(np.array([10.0]))
        ys = rng.uniform(0, 20, size=200)
        freq = float((ys <= 10.0).mean())
        ps = np.linspace(0, 1, 2001)
        scores = [evaluate.threshold_score(np.full((200, 1), p), ys, spec) for p in ps]
        assert abs(ps[int(np.argmin(scores))] - freq) < 1e-3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            evaluate.threshold_score(np.zeros((3, 2)), np.zeros(3), self.spec28())

    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_blocks_give_the_bits_of_one_block(self, monkeypatch, block, n):
        """The weighted errors of every block are summed once, in one array:
        the sum of per-block sums would round differently.  With no rows
        there is nothing to score, blocked or not."""
        rng = np.random.default_rng(n)
        spec = evaluate.ThresholdScoreSpec(evaluate.BA_THRESHOLDS, rng.uniform(0, 2, size=28))
        ys, probs = rng.uniform(0, 300, size=n), rng.uniform(size=(n, 28))
        if n == 0:
            for cells in (dataset._BLOCK_CELLS, block * 28):
                monkeypatch.setattr(dataset, "_BLOCK_CELLS", cells)
                with pytest.raises(DataError, match="no observed response"):
                    evaluate.threshold_score(probs, ys, spec)
            return
        whole = evaluate.threshold_score(probs, ys, spec)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * 28)
        blocked = evaluate.threshold_score(probs, ys, spec)
        assert np.float64(blocked).tobytes() == np.float64(whole).tobytes()

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_masked_rows_are_not_scored(self, monkeypatch, block):
        """NaN responses are skipped: the score has the bits of scoring the
        observed rows alone, in any block size."""
        rng = np.random.default_rng(block)
        spec = evaluate.ThresholdScoreSpec(evaluate.BA_THRESHOLDS, rng.uniform(0, 2, size=28))
        ys, probs = rng.uniform(0, 300, size=200), rng.uniform(size=(200, 28))
        ys[rng.uniform(size=200) < 0.3] = np.nan
        observed = ~np.isnan(ys)
        alone = evaluate.threshold_score(probs[observed], ys[observed], spec)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * 28)
        masked = evaluate.threshold_score(probs, ys, spec)
        assert np.float64(masked).tobytes() == np.float64(alone).tobytes()

    def test_no_observed_response_is_a_data_error(self):
        with pytest.raises(DataError, match="no observed response to score"):
            evaluate.threshold_score(np.full((3, 28), 0.5), np.full(3, np.nan), self.spec28())

    @pytest.mark.parametrize("bad", [-1e-9, 1.5])
    def test_probability_outside_unit_interval_in_a_later_block(self, monkeypatch, bad):
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", 4 * 28)
        probs = np.full((10, 28), 0.5)
        probs[9, 27] = bad
        with pytest.raises(DataError, match=r"probabilities must lie in \[0, 1\]"):
            evaluate.threshold_score(probs, np.zeros(10), self.spec28())

    def test_working_memory_is_below_two_inputs(self, rng):
        """One (n, J) array of weighted errors and a block's temporaries (the
        grid-wide indicator and squares took about three inputs)."""
        probs = rng.uniform(size=(40_000, 28))
        ys = rng.uniform(0, 30, size=40_000)
        _, peak = traced_peak(evaluate.threshold_score, probs, ys, self.spec28())
        assert peak < 2 * probs.nbytes


class TestCvResult:
    def test_hand_mean_and_se(self):
        cv = evaluate.CvResult(checkpoints=[10], scores=[[4.0], [6.0]])
        assert cv.mean[0] == pytest.approx(5.0)
        assert cv.se[0] == pytest.approx(1.0)  # std sqrt(2) / sqrt(2)

    def test_identical_folds_zero_se(self):
        cv = evaluate.CvResult(checkpoints=[1, 2], scores=[[3.0, 2.0], [3.0, 2.0]])
        np.testing.assert_allclose(cv.se, 0.0)


class TestOneSeSelect:
    def test_hand_worked_example(self):
        # means {10, 8, 7, 7.1, 7.4}, SE at the minimum 0.5: bound 7.5,
        # largest checkpoint within bound is the last one
        means = np.array([10.0, 8.0, 7.0, 7.1, 7.4])
        scores = np.stack([means - 0.5 * np.array([1, 1, 1, -1, 1]),
                           means + 0.5 * np.array([1, 1, 1, -1, 1])])
        cv = evaluate.CvResult(checkpoints=[10, 20, 30, 40, 50], scores=scores)
        np.testing.assert_allclose(cv.mean, means)
        assert cv.se[2] == pytest.approx(0.5)
        assert evaluate.one_se_select(cv) == 50
        assert evaluate.one_se_select(cv, direction="smallest") == 30

    def test_all_equal_returns_largest(self):
        cv = evaluate.CvResult(checkpoints=[5, 10, 15], scores=[[2.0, 2.0, 2.0]])
        assert evaluate.one_se_select(cv) == 15

    def test_single_checkpoint(self):
        cv = evaluate.CvResult(checkpoints=[7], scores=[[1.0]])
        assert evaluate.one_se_select(cv) == 7

    def test_equals_argmin_when_se_zero(self):
        cv = evaluate.CvResult(checkpoints=[1, 2, 3],
                               scores=[[5.0, 3.0, 4.0], [5.0, 3.0, 4.0]])
        assert evaluate.one_se_select(cv) == 2


def _folds_and_data(seed=0, mask_rate=0.15):
    ds = synth_dataset("counts", n_years=2, nx=5, ny=5, seed=seed,
                       mask_rate=mask_rate)
    params = spatialcv.MaskModelParams(sigma_gp=1.0, phi=0.1)
    params = spatialcv.calibrate_intercepts(ds, params)
    folds = spatialcv.generate_folds(ds, params, n_folds=3, seed=seed + 1)
    return ds, folds


def _cli_spec(kind: str, u: float) -> losses.LossSpec:
    """The spec ``RunConfig.loss_spec`` builds (u_trunc = log1p(u))."""
    return losses.LossSpec(kind=kind, alpha=5.0, xi=0.8, kappa=0.5, k_shape=1.2,
                           u_trunc=float(np.log1p(u)))


_TP = booster.TrainParams(n_trees=6, max_leaves=4, colsample=0.8, seed=3)
_MIX = dict(classifier_params=_TP, bulk_params=_TP, tail_params=_TP, u=50.0, k_shape=1.2)
_REFERENCE_RECIPES = (
    [recipes.BoosterRecipe(loss=_cli_spec(kind, 50.0), params=_TP, u=50.0)
     for kind in losses.LOSS_KINDS]
    + [recipes.BoosterRecipe(loss=_cli_spec("gpd", 1e9), params=_TP, u=1e9),  # no tail rows
       recipes.MixtureRecipe(**_MIX),
       recipes.MixtureRecipe(**_MIX, score_spec=evaluate.ThresholdScoreSpec(
           [0.0, 1.0, 10.0, 100.0], [1.0, 2.0, 1.0, 0.5]))])
_REFERENCE_IDS = list(losses.LOSS_KINDS) + ["gpd-no-tail", "mixture", "mixture-spec"]


def _reference_cv(ds, folds, recipe, checkpoints) -> evaluate.CvResult:
    """Cross-validation as a copy of each fold's rows: the training and the
    validation rows are taken into datasets of their own, each builds its
    feature matrix, and the recipe's fit and score are spelled out."""
    scores = []
    for f in range(folds.n_folds):
        held_out = folds.validation_rows(ds, f, recipe.response)
        train = ds.subset(np.flatnonzero(~held_out))
        valid = ds.subset(np.flatnonzero(held_out))
        X, names = train.feature_matrix()
        Xv, _ = valid.feature_matrix()
        if isinstance(recipe, recipes.MixtureRecipe):
            m = mixture.fit_mixture(
                X, train.ba, u=recipe.u, xi=recipe.xi, kappa=recipe.kappa,
                k_shape=recipe.k_shape, classifier_params=recipe.classifier_params,
                bulk_params=recipe.bulk_params, tail_params=recipe.tail_params,
                feature_names=names)
            spec = recipe.score_spec or evaluate.ThresholdScoreSpec(evaluate.BA_THRESHOLDS)
            rows = ~np.isnan(valid.ba)
            if not rows.any():
                raise DataError("no scorable validation rows")
            Xv = Xv[rows]
            bulk, tail = booster.predict_raw(m.bulk, Xv), booster.predict_raw(m.tail, Xv)
            scores.append([
                evaluate.threshold_score(mixture.threshold_probs(m, (cls, bulk, tail),
                                                                spec.thresholds),
                                         valid.ba[rows], spec)
                for cls in booster.predict_raw_staged(m.classifier, Xv, checkpoints)])
            continue
        loss = recipe.loss
        rows, y = losses.training_rows(loss.kind, getattr(train, loss.response), recipe.u)
        if not rows.any():
            raise DataError("no trainable rows for this loss")
        model = booster.fit(X[rows], y, loss, recipe.params, feature_names=names)
        rows, y = losses.training_rows(loss.kind, getattr(valid, loss.response), recipe.u)
        if not rows.any():
            raise DataError("no scorable validation rows")
        if loss.multiclass:
            y = booster._one_hot(y)
        scores.append([float(losses.evaluate_loss(loss, y, theta)[0].mean())
                       for theta in booster.predict_raw_staged(model, Xv[rows], checkpoints)])
    return evaluate.CvResult(checkpoints=checkpoints, scores=scores)


class TestRunCv:
    def test_prefix_scores_decrease_then_flatten(self):
        ds, folds = _folds_and_data()
        recipe = recipes.BoosterRecipe(
            loss=losses.LossSpec(kind="dgpd", alpha=5.0),
            params=booster.TrainParams(n_trees=30, max_leaves=4, seed=3))
        cv = evaluate.run_cv(ds, folds, recipe, checkpoints=[0, 10, 30])
        assert cv.scores.shape == (3, 3)
        # fitting should help relative to the intercept-only prefix
        assert cv.mean[1] < cv.mean[0]

    def test_validation_rows_cannot_influence_training(self):
        ds, folds = _folds_and_data(seed=5)
        models = []

        class Recorded(recipes.BoosterRecipe):
            def fit(self, X, y, names):
                fitted = super().fit(X, y, names)
                models.append(fitted.model)
                return fitted

        recipe = Recorded(
            loss=losses.LossSpec(kind="dgpd", alpha=5.0),
            params=booster.TrainParams(n_trees=5, max_leaves=4, seed=3))
        valid0 = folds.validation_rows(ds, 0, "cnt")
        evaluate.run_cv(ds, folds, recipe, checkpoints=[5])
        m1 = models[0]

        poisoned = ds.subset(np.arange(ds.n_rows))
        poisoned.cnt[np.flatnonzero(valid0)[0]] = 10_000.0  # sentinel extreme
        evaluate.run_cv(poisoned, folds, recipe, checkpoints=[5])
        m2 = models[folds.n_folds]
        assert booster.dumps(m1) == booster.dumps(m2)

    def test_covariate_free_recipe_reduces_to_constant_model(self):
        ds, folds = _folds_and_data(seed=7)
        # zero rounds: the fitted model is the intercept-only constant
        recipe = recipes.BoosterRecipe(
            loss=losses.LossSpec(kind="poisson"),
            params=booster.TrainParams(n_trees=0))
        cv = evaluate.run_cv(ds, folds, recipe, checkpoints=[0])
        for f in range(folds.n_folds):
            valid = folds.validation_rows(ds, f, "cnt")
            train_cnt = ds.cnt[~valid]
            const = booster.initial_estimate(
                train_cnt[~np.isnan(train_cnt)], losses.LossSpec(kind="poisson"))
            y = ds.cnt[valid]
            y = y[~np.isnan(y)]
            expect, _, _ = losses.poisson_eval(y, np.full(y.size, const))
            assert cv.scores[f, 0] == pytest.approx(float(expect.mean()), rel=1e-12)

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("recipe", _REFERENCE_RECIPES, ids=_REFERENCE_IDS)
    def test_fold_scores_have_the_bits_of_a_copy_per_fold(self, recipe, seed):
        """Each fold's scores (or its error) equal those of fitting and
        scoring a copy of the fold's training and validation rows, each with
        its own feature matrix."""
        ds = synth_dataset("sizes", n_years=2, nx=8, ny=8, seed=seed, mask_rate=0.15)
        params = spatialcv.calibrate_intercepts(
            ds, spatialcv.MaskModelParams(sigma_gp=1.0, phi=0.1))
        folds = spatialcv.generate_folds(ds, params, n_folds=3, seed=seed + 1)
        checkpoints = [0, 2, 6]
        outcomes = []
        for run in (evaluate.run_cv, _reference_cv):
            try:
                outcomes.append(np.asarray(run(ds, folds, recipe, checkpoints).scores).tobytes())
            except DataError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_one_feature_matrix_per_call_and_no_row_copies(self):
        ds, folds = _folds_and_data()
        recipe = recipes.BoosterRecipe(loss=losses.LossSpec(kind="poisson"),
                                       params=booster.TrainParams(n_trees=1))
        cls = dataset.GridDataset
        with mock.patch.object(cls, "feature_matrix", autospec=True,
                               side_effect=cls.feature_matrix) as matrix, \
                mock.patch.object(cls, "subset", autospec=True) as subset:
            evaluate.run_cv(ds, folds, recipe, checkpoints=[1])
        assert matrix.call_count == 1 and subset.call_count == 0

    def test_empty_validation_fold_rejected(self):
        ds, _ = _folds_and_data()
        folds = spatialcv.FoldSet(np.zeros((1, 2, ds.n_rows), dtype=bool))
        recipe = recipes.BoosterRecipe(
            loss=losses.LossSpec(kind="poisson"),
            params=booster.TrainParams(n_trees=1))
        with pytest.raises(DataError, match="empty validation"):
            evaluate.run_cv(ds, folds, recipe, checkpoints=[1])


class TestBoSuggest:
    BOX = {"x": (0.0, 1.0)}

    def test_empty_history_uniform_and_deterministic(self):
        p1 = evaluate.bo_suggest([], self.BOX, seed=4)
        p2 = evaluate.bo_suggest([], self.BOX, seed=4)
        assert p1 == p2
        assert 0.0 <= p1["x"] <= 1.0
        assert evaluate.bo_suggest([], self.BOX, seed=5) != p1

    def test_degenerate_box_rejected(self):
        with pytest.raises(DataError):
            evaluate.bo_suggest([], {"x": (1.0, 1.0)}, seed=0)

    def test_ei_vanishes_at_observed_best_as_noise_vanishes(self):
        pts = np.array([[0.2], [0.8]])
        ys = np.array([1.0, 2.0])
        yc = ys - ys.mean()
        v = yc.var()

        def ei_at_best(noise):
            K = v * evaluate._sq_exp_kernel(pts, pts, 0.25) + noise * np.eye(2)
            L_chol = np.linalg.cholesky(K)
            alpha = np.linalg.solve(L_chol.T, np.linalg.solve(L_chol, yc))
            kstar = v * evaluate._sq_exp_kernel(np.array([[0.2]]), pts, 0.25)
            mu = float((kstar @ alpha)[0] + ys.mean())
            sd = float(np.sqrt(max(v - (np.linalg.solve(L_chol, kstar.T) ** 2).sum(),
                                   0.0)))
            return float(evaluate.expected_improvement(mu, sd, ys.min()))

        eis = [ei_at_best(n) for n in (1e-6, 1e-10, 1e-14)]
        assert eis[0] > eis[1] > eis[2]
        assert eis[2] < 1e-7

    def test_quadratic_convergence_across_seeds(self):
        for seed in range(5):
            history = evaluate.tune_loop(lambda p: (p["x"] - 0.3) ** 2,
                                         {"x": (0.0, 1.0)}, n_iters=20, seed=seed)
            best = min(history, key=lambda hs: hs[1])
            assert abs(best[0]["x"] - 0.3) < 0.05

    def test_suggestions_deterministic_given_history(self):
        history = [({"x": 0.1}, 0.04), ({"x": 0.9}, 0.36)]
        s1 = evaluate.bo_suggest(history, self.BOX, seed=11)
        s2 = evaluate.bo_suggest(history, self.BOX, seed=11)
        assert s1 == s2
