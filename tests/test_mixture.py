import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import block_boundary_cases, traced_peak
from evtboost import booster, dataset, evaluate, losses, mixture
from evtboost.errors import DataError
from evtboost.synth import synth_dataset


def constant_model(kind, base, feature_names, **kw):
    return booster.BoostedModel(
        loss=losses.LossSpec(kind=kind, **kw),
        base_score=base,
        trees=[],
        params=booster.TrainParams(n_trees=0),
        feature_names=feature_names,
    )


def toy_mixture(p=(0.9, 0.08, 0.02), u=200.0, theta_bulk=1.2, theta_tail=4.0,
                xi=0.8, kappa=0.5, k_shape=1.0):
    names = ["x1"]
    classifier = constant_model("cross_entropy", np.log(np.asarray(p)), names)
    bulk = constant_model("trgamma", theta_bulk, names, k_shape=k_shape,
                          u_trunc=float(np.log1p(u)))
    tail = constant_model("gpd", theta_tail, names, xi=xi, kappa=kappa)
    return mixture.MixtureModel(classifier=classifier, bulk=bulk, tail=tail, u=u)


X1 = np.array([[0.0]])


@functools.cache
def _fitted_mixture():
    ds = synth_dataset("sizes", n_years=1, nx=5, ny=5, seed=8)
    obs = ~np.isnan(ds.ba)
    X, names = ds.feature_matrix()
    params = booster.TrainParams(n_trees=4, max_leaves=4, seed=0)
    m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                            k_shape=1.2, classifier_params=params,
                            bulk_params=params, tail_params=params,
                            feature_names=names)
    return m, X[obs]


def _termwise_cdf(m, X, b):
    """P(BA <= b) term by term: no bulk term at b = 0, no tail term up to u."""
    p = oracles.component_probs(m, X)
    out = p[:, 0].copy()
    if b > 0:
        f_bulk = losses.trgamma_cdf(np.log1p(min(b, m.u)), booster.predict_raw(m.bulk, X),
                                    m.k_shape, np.log1p(m.u))
        out += p[:, 1] * f_bulk
    if b > m.u:
        sigma = mixture.tail_sigma(m, booster.predict_raw(m.tail, X))
        out += p[:, 2] * losses.gpd_cdf_excess(b - m.u, sigma, m.xi)
    return out


class TestComponentProbs:
    def test_uniform(self):
        m = toy_mixture(p=(1 / 3, 1 / 3, 1 / 3))
        np.testing.assert_allclose(oracles.component_probs(m, X1)[0], [1 / 3] * 3,
                                   atol=1e-12)

    def test_hand_softmax(self):
        m = toy_mixture(p=(1 / 6, 1 / 3, 1 / 2))  # raw scores log(1,2,3)/6
        np.testing.assert_allclose(oracles.component_probs(m, X1)[0],
                                   [1 / 6, 1 / 3, 1 / 2], atol=1e-12)

    def test_sums_to_one(self, rng):
        m = toy_mixture(p=tuple(np.exp(rng.normal(size=3)) /
                                np.exp(rng.normal(size=3)).sum()))
        assert oracles.component_probs(m, X1).sum() == pytest.approx(1.0, abs=1e-12)


class TestCdf:
    def test_at_zero_is_p1(self):
        m = toy_mixture(p=(0.9, 0.08, 0.02))
        assert mixture.cdf(m, X1, 0.0)[0] == pytest.approx(0.9, abs=1e-12)

    def test_tends_to_one(self):
        m = toy_mixture()
        assert mixture.cdf(m, X1, 1e12)[0] == pytest.approx(1.0, abs=1e-9)

    def test_hand_composition_exponential_bulk(self):
        # k = 1 makes the bulk an exponential truncated at log(1+u):
        # F2(b) = (1 - exp(-z_b/mu)) / (1 - exp(-z_u/mu))
        p, u, theta = (0.9, 0.08, 0.02), 200.0, 1.2
        m = toy_mixture(p=p, u=u, theta_bulk=theta, k_shape=1.0)
        mu = math.exp(theta)
        f2 = math.expm1(-math.log1p(100.0) / mu) / math.expm1(-math.log1p(u) / mu)
        assert mixture.cdf(m, X1, 100.0)[0] == pytest.approx(p[0] + p[1] * f2, rel=1e-12)

    def test_fixed_arithmetic_composition(self):
        # p = (0.9, 0.08, 0.02) and F2(100) = 0.75 gives cdf(100) = 0.96
        p1, p2, f2 = 0.9, 0.08, 0.75
        assert p1 + p2 * f2 == pytest.approx(0.96)

    def test_below_u_capped_by_p1_plus_p2(self):
        m = toy_mixture()
        p = oracles.component_probs(m, X1)[0]
        for b in (1.0, 50.0, 199.0, 200.0):
            assert mixture.cdf(m, X1, b)[0] <= p[0] + p[1] + 1e-12

    def test_no_jump_at_threshold(self):
        m = toy_mixture()
        below = mixture.cdf(m, X1, m.u - 1e-6)[0]
        above = mixture.cdf(m, X1, m.u + 1e-6)[0]
        p = oracles.component_probs(m, X1)[0]
        # the gap is at most the local density mass of either side
        assert above - below >= -1e-12
        assert above - below < p[2] * 1e-3 + 1e-6

    def test_monotone_in_b(self):
        m = toy_mixture()
        bs = np.concatenate([np.linspace(0, 200, 41), np.geomspace(201, 5000, 20)])
        vals = np.array([mixture.cdf(m, X1, b)[0] for b in bs])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError):
            mixture.cdf(toy_mixture(), X1, -1.0)


class TestThresholdProbs:
    def test_shape_and_monotone_rows(self):
        m = toy_mixture()
        X = np.array([[0.0], [1.0], [-1.0]])
        thresholds = np.concatenate([[0.0], np.geomspace(1, 3000, 27)])
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X), thresholds)
        assert probs.shape == (3, 28)
        assert np.all(np.diff(probs, axis=1) >= -1e-12)

    def test_first_column_is_p1_and_far_column_one(self):
        m = toy_mixture()
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X1), [0.0, 1e12])
        p = oracles.component_probs(m, X1)[0]
        assert probs[0, 0] == pytest.approx(p[0], abs=1e-12)
        assert probs[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_duplicated_threshold_duplicates_column(self):
        m = toy_mixture()
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X1), [50.0, 50.0])
        assert probs[0, 0] == probs[0, 1]

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            mixture.threshold_probs(toy_mixture(), _raw(1), [2.0, 1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.just(200.0), st.floats(0.0, 1e5)),
                    min_size=1, max_size=8).map(sorted))
    def test_columns_equal_cdf(self, thresholds):
        m, X = _fitted_mixture()
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X), thresholds)
        assert probs.shape == (X.shape[0], len(thresholds))
        for j, b in enumerate(thresholds):
            np.testing.assert_array_equal(probs[:, j], mixture.cdf(m, X, b))
            np.testing.assert_array_equal(probs[:, j], _termwise_cdf(m, X, b))


def _raw(n, seed=0):
    """Classifier, bulk and tail raw scores for ``n`` rows."""
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, 2.0, size=(n, 3)), rng.normal(1.0, 1.0, size=n),
            rng.normal(4.0, 1.0, size=n))


class TestCdfFromRawBlocks:
    """``threshold_probs`` on raw scores, a block of rows at a time."""

    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_blocks_give_the_bytes_of_one_block(self, monkeypatch, block, n):
        m, raw = toy_mixture(k_shape=1.3), _raw(n, seed=n)
        whole = mixture.threshold_probs(m, raw, evaluate.BA_THRESHOLDS)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * 28)
        blocked = mixture.threshold_probs(m, raw, evaluate.BA_THRESHOLDS)
        assert blocked.shape == (n, 28)
        assert blocked.tobytes() == whole.tobytes()

    def test_working_memory_is_below_two_outputs(self):
        """40,000 rows x 28 thresholds: the (n, J) result and a block's
        temporaries (the grid-wide terms took about four results)."""
        m, raw = toy_mixture(), _raw(40_000)
        mixture.threshold_probs(m, _raw(2), evaluate.BA_THRESHOLDS)  # imports outside the trace
        out, peak = traced_peak(mixture.threshold_probs, m, raw, evaluate.BA_THRESHOLDS)
        assert peak < 2 * out.nbytes

    def test_wide_grid_working_memory_is_set_by_the_cell_budget(self):
        """5,000 rows x 200 thresholds: beyond the result, a few blocks of
        about ``_BLOCK_CELLS`` float64 cells (4,096-row blocks took about four
        times 4,096 x 200 cells)."""
        m, raw = toy_mixture(), _raw(5_000)
        thresholds = np.geomspace(0.5, 1e5, 200)
        mixture.threshold_probs(m, _raw(2), thresholds)  # imports outside the trace
        out, peak = traced_peak(mixture.threshold_probs, m, raw, thresholds)
        assert peak - out.nbytes < 8 * 8 * dataset._BLOCK_CELLS


class TestSampleAgainstCdf:
    def test_empirical_cdf_matches(self):
        m = toy_mixture(p=(0.55, 0.3, 0.15), theta_bulk=1.5, theta_tail=4.5,
                        k_shape=1.3)
        draws = oracles.sample(m, X1, n_draws=200_000, seed=7)
        for b in (0.0, 5.0, 50.0, 150.0, 200.0, 400.0, 1500.0):
            emp = float((draws <= b).mean())
            assert emp == pytest.approx(mixture.cdf(m, X1, b)[0], abs=0.005)


def _reference_sample(m, x, n_draws, seed, names=None):
    """``oracles.sample`` with its bulk and tail draws written out inline, as
    before it used :mod:`synth`'s samplers."""
    from scipy import special
    x = np.atleast_2d(np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    p = oracles.component_probs(m, x, names)[0]
    comp = rng.choice(3, size=n_draws, p=p)
    out = np.zeros(n_draws)
    n_bulk = int((comp == 1).sum())
    if n_bulk:
        theta = float(booster.predict_raw(m.bulk, x)[0])
        k = m.k_shape
        s_trunc = k * np.log1p(m.u) * np.exp(-theta)
        urand = rng.uniform(size=n_bulk)
        z = special.gammaincinv(k, urand * special.gammainc(k, s_trunc)) * np.exp(theta) / k
        out[comp == 1] = np.expm1(z)
    n_tail = int((comp == 2).sum())
    if n_tail:
        sigma = float(mixture.tail_sigma(m, booster.predict_raw(m.tail, x))[0])
        urand = rng.uniform(size=n_tail)
        out[comp == 2] = m.u + sigma * np.expm1(-m.xi * np.log1p(-urand)) / m.xi
    return out


class TestSampleBitEqual:
    @pytest.mark.parametrize("seed", [0, 7, 123, 2 ** 31])
    def test_toy_mixture(self, seed):
        m = toy_mixture(p=(0.55, 0.3, 0.15), theta_bulk=1.5, theta_tail=4.5, k_shape=1.3)
        draws = oracles.sample(m, X1, n_draws=2_000, seed=seed)
        expected = _reference_sample(m, X1, 2_000, seed)
        assert [v.hex() for v in draws.tolist()] == [v.hex() for v in expected.tolist()]

    @pytest.mark.parametrize("row", [0, 5, 17])
    def test_fitted_mixture(self, row):
        m, X = _fitted_mixture()
        draws = oracles.sample(m, X[row], n_draws=500, seed=row)
        expected = _reference_sample(m, X[row], 500, row)
        assert [v.hex() for v in draws.tolist()] == [v.hex() for v in expected.tolist()]


def _readme_manifest() -> dict:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"cat > mix\.json <<'EOF'\n(.*?)\nEOF", readme, flags=re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


class TestFitMixture:
    def test_fit_and_validate(self, rng):
        ds = synth_dataset("sizes", n_years=2, nx=5, ny=5, seed=3)
        obs = ~np.isnan(ds.ba)
        X, names = ds.feature_matrix()
        params = booster.TrainParams(n_trees=10, max_leaves=4, seed=0)
        m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                                k_shape=1.2, classifier_params=params,
                                bulk_params=params, tail_params=params,
                                feature_names=names)
        assert m.xi == 0.8 and m.k_shape == 1.2
        probs = mixture.threshold_probs(m, mixture.raw_scores(m, X[obs][:5], names),
                                        [0.0, 100.0, 1000.0])
        assert np.all(np.diff(probs, axis=1) >= -1e-12)

    def test_manifest_round_trip(self, rng, tmp_path):
        ds = synth_dataset("sizes", n_years=1, nx=5, ny=5, seed=4)
        obs = ~np.isnan(ds.ba)
        X, names = ds.feature_matrix()
        params = booster.TrainParams(n_trees=4, max_leaves=4, seed=0)
        m = mixture.fit_mixture(X[obs], ds.ba[obs], u=200.0, xi=0.8, kappa=0.5,
                                k_shape=1.2, classifier_params=params,
                                bulk_params=params, tail_params=params,
                                feature_names=names)
        path = tmp_path / "mix.json"
        mixture.save(m, path)
        m2 = mixture.load(path)
        b = 150.0
        np.testing.assert_allclose(mixture.cdf(m2, X[obs][:10], b, names=names),
                                   mixture.cdf(m, X[obs][:10], b, names=names))
        assert isinstance(m2, mixture.MixtureModel)
        booster.save(m.classifier, tmp_path / "single.json")
        assert not isinstance(mixture.load(tmp_path / "single.json"), mixture.MixtureModel)

    def test_saved_manifest_is_the_readme_format(self, tmp_path):
        path = tmp_path / "mix.json"
        mixture.save(toy_mixture(), path)
        doc, readme = json.loads(path.read_text(encoding="utf-8")), _readme_manifest()
        assert set(doc) == set(readme)
        assert {k: doc[k] for k in ("format_version", "kind", "threshold")} == \
            {k: readme[k] for k in ("format_version", "kind", "threshold")}
        assert [doc[k] for k in mixture.COMPONENTS] == \
            [f"mix.{k}.json" for k in mixture.COMPONENTS]

    def test_empty_component_slice_is_a_data_error(self):
        X = np.zeros((4, 1))
        params = booster.TrainParams(n_trees=1)
        with pytest.raises(DataError, match="gpd"):
            mixture.fit_mixture(X, np.array([0.0, 5.0, 50.0, np.nan]), u=200.0, xi=0.8,
                                kappa=0.5, k_shape=1.0, classifier_params=params,
                                bulk_params=params, tail_params=params)
