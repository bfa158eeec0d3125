"""Special functions evaluated once per distinct raw score give the bits of
their row-by-row evaluation.

``dataset.distinct_blocks`` splits the rows into blocks of their sort order
and gives each block's distinct bit patterns (or, for scores that do not
repeat, plain row blocks); ``losses.dgpd_mean``,
``mixture.cdf_from_raw`` and ``recipes.count_threshold_probs`` evaluate
their special functions on those.  Each is compared here with its formula
evaluated on every row at once, on scores with signed zeros, heavy repeats
and none, at sizes around the row-block boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

from helpers import block_boundary_cases
from evtboost import dataset, evaluate, losses, mixture, recipes
from evtboost.errors import NumericalError
from test_mixture import toy_mixture

KINDS = ["signed_zeros", "repeats", "distinct"]


def scores(kind, n, seed, centre=0.0):
    rng = np.random.default_rng(seed)
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0, centre + 0.5], size=n)
    if kind == "repeats":
        return rng.choice(centre + rng.normal(size=4), size=n)
    return centre + rng.normal(size=n)


def rowwise_dgpd_mean(theta, alpha):
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.exp(-alpha * theta) * special.zeta(alpha, 1.0 + np.exp(-theta))
    bad = ~np.isfinite(mean)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            f"dGPD mean is not finite at theta={theta.flat[i]:g}, alpha={alpha:g}")
    return mean


def rowwise_cdf(m, raw, thresholds):
    cls, bulk, tail = raw
    b = np.asarray(thresholds, dtype=float)[None, :]
    p = losses.softmax(cls)
    f_bulk = losses.trgamma_cdf(np.log1p(np.minimum(b, m.u)), bulk[:, None], m.k_shape,
                                np.log1p(m.u))
    f_tail = losses.gpd_cdf_excess(b - m.u, mixture.tail_sigma(m, tail)[:, None], m.xi)
    return np.minimum(p[:, :1] + p[:, 1:2] * f_bulk + p[:, 2:] * f_tail, 1.0)


def rowwise_count_probs(loss, theta, thresholds):
    ks = np.floor(np.asarray(thresholds, dtype=float))[None, :]
    t = theta[:, None]
    return (1.0 - losses.dgpd_survival(ks + 1.0, t, loss.alpha) if loss.kind == "dgpd"
            else special.pdtr(ks, np.exp(t)))


class TestDistinctBlocks:
    @given(bits=st.lists(st.sampled_from([0, 1 << 63, 0x7FF8000000000000, 0x7FF8000000000001,
                                          0xFFF8000000000000, 0x7FF0000000000000,
                                          0x3FF0000000000000, 1]) | st.integers(0, 2 ** 64 - 1),
                         max_size=40),
           block=st.integers(1, 9), probe=st.integers(1, 41))
    def test_blocks_cover_each_row_once_with_its_bits(self, bits, block, probe):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        seen = []
        old = dataset._BLOCK_CELLS, dataset._DISTINCT_PROBE
        dataset._BLOCK_CELLS, dataset._DISTINCT_PROBE = block, probe
        try:
            for rows, values, inverse in dataset.distinct_blocks(x, 1):
                rows = np.arange(x.size)[rows]
                assert 1 <= rows.size <= block
                assert values[inverse].tobytes() == x[rows].tobytes()
                if not isinstance(inverse, slice):
                    patterns = values.view(np.uint64)
                    assert np.unique(patterns).size == patterns.size
                seen += rows.tolist()
        finally:
            dataset._BLOCK_CELLS, dataset._DISTINCT_PROBE = old
        assert sorted(seen) == list(range(x.size))

    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_without_a_repeat_in_the_probe_take_plain_row_blocks(self, kind):
        x = scores(kind, 3000, seed=4)
        blocks = list(dataset.distinct_blocks(x, 28))
        plain = kind == "distinct"
        assert all(isinstance(inverse, slice) == plain for _, _, inverse in blocks)
        if plain:
            assert [rows for rows, _, _ in blocks] == dataset.row_blocks(x.size, 28)
        else:
            assert sum(values.size for _, values, _ in blocks) < x.size


class TestBitEqualToRowwise:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_dgpd_mean(self, monkeypatch, kind, block, n):
        theta = scores(kind, n, seed=n)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block)
        got = losses.dgpd_mean(theta, 3.5)
        assert got.tobytes() == rowwise_dgpd_mean(theta, 3.5).tobytes()

    def test_dgpd_mean_of_a_scalar_is_a_float(self):
        assert losses.dgpd_mean(-0.0, 2.0) == float(rowwise_dgpd_mean(-0.0, 2.0))
        assert isinstance(losses.dgpd_mean(0.3, 2.0), float)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_mixture_cdf(self, monkeypatch, kind, block, n):
        m = toy_mixture(k_shape=1.3)
        rng = np.random.default_rng(n)
        raw = (rng.normal(0.0, 2.0, size=(n, 3)), scores(kind, n, seed=n, centre=1.0),
               rng.normal(4.0, 1.0, size=n))
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * 28)
        got = mixture.cdf_from_raw(m, raw, evaluate.BA_THRESHOLDS)
        assert got.tobytes() == rowwise_cdf(m, raw, evaluate.BA_THRESHOLDS).tobytes()

    @pytest.mark.parametrize("loss", [losses.LossSpec(kind="dgpd", alpha=2.5),
                                      losses.LossSpec(kind="poisson")], ids=["dgpd", "poisson"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    def test_count_threshold_probs(self, monkeypatch, loss, kind, block, n):
        theta = scores(kind, n, seed=n)
        thresholds = np.array([0.0, 1.0, 2.5, 10.0, 100.0])
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * thresholds.size)
        got = recipes.count_threshold_probs(loss, theta, thresholds)
        assert got.shape == (n, thresholds.size)
        assert got.tobytes() == rowwise_count_probs(loss, theta, thresholds).tobytes()


class TestErrorsNameTheRowwiseRow:
    @pytest.mark.parametrize("bad", [{7: np.nan}, {3: -800.0}, {3: -800.0, 7: np.nan},
                                     {7: -800.0, 3: np.nan}, {0: -np.nan, 5: np.nan}])
    @pytest.mark.parametrize("block", [1, 4, 1 << 14])
    def test_dgpd_mean(self, monkeypatch, bad, block):
        theta = scores("repeats", 12, seed=1)
        for i, v in bad.items():
            theta[i] = v
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block)
        with pytest.raises(NumericalError) as want:
            rowwise_dgpd_mean(theta, 3.5)
        with pytest.raises(NumericalError) as got:
            losses.dgpd_mean(theta, 3.5)
        assert str(got.value) == str(want.value)

    def test_mixture_cdf_normalizer_underflow(self):
        m = toy_mixture()
        raw = (np.zeros((6, 3)), np.array([1.0, 1.0, 1e3, 1.0, 1e3, -0.0]), np.full(6, 4.0))
        with pytest.raises(NumericalError) as want:
            rowwise_cdf(m, raw, evaluate.BA_THRESHOLDS)
        with pytest.raises(NumericalError) as got:
            mixture.cdf_from_raw(m, raw, evaluate.BA_THRESHOLDS)
        assert str(got.value) == str(want.value)
