"""The dataset and fold writers against the reference writers in
:mod:`oracles`, which turn every value into a Python object and write it
with ``csv``: the bytes must be equal, around row-block boundaries too."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from helpers import block_boundary_cases, traced_peak
from evtboost import dataset, spatialcv
from evtboost.dataset import GridDataset
from evtboost.synth import synth_dataset


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


# float64 bit patterns, so NaN payloads survive until the array is viewed
NAN_BITS = st.tuples(st.integers(0, 1), st.integers(1, 2 ** 52 - 1)).map(
    lambda t: t[0] << 63 | 0x7FF << 52 | t[1])
SUBNORMAL_BITS = st.tuples(st.integers(0, 1), st.integers(1, 2 ** 52 - 1)).map(
    lambda t: t[0] << 63 | t[1])
FLOAT_BITS = st.one_of(
    NAN_BITS, SUBNORMAL_BITS,
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -110.0, 35.25, 2.0 ** 63,
                     1e300, 1.7976931348623157e308]).map(bits),
    st.integers(-10 ** 300, 10 ** 300).map(float).map(bits),
    st.integers(-2 ** 64, 2 ** 64).map(float).map(bits),
    st.floats(-10, 10).map(lambda x: round(x, 3)).map(bits),
    st.floats(allow_nan=False).map(bits))
NAMES = st.one_of(st.sampled_from(["x", "a,b", 'say "hi"', '"', ",", "two\r\nlines", " "]),
                  st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\x00"),
                          max_size=4))


def column(data, n, pool_size=6) -> np.ndarray:
    """``n`` float64 values drawn from a small pool, so values repeat."""
    pool = data.draw(st.lists(FLOAT_BITS, min_size=1, max_size=pool_size))
    return np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=np.uint64).view(np.float64)


def datasets(data, n) -> GridDataset:
    """An ``n``-row dataset of any numbers: cells, years and months from
    small pools, cnt, ba and covariates from :data:`FLOAT_BITS`."""
    p = data.draw(st.integers(0, 3))
    cells = column(data, 2 * data.draw(st.integers(1, 4))).reshape(-1, 2)
    ints = st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=3)
    year, month = (np.array(data.draw(st.lists(st.sampled_from(data.draw(ints)),
                                               min_size=n, max_size=n)), dtype=np.int64)
                   for _ in range(2))
    return GridDataset(
        cells=cells,
        cell_index=np.array(data.draw(st.lists(st.integers(0, len(cells) - 1),
                                               min_size=n, max_size=n)), dtype=np.int64),
        year=year, month=month, cnt=column(data, n), ba=column(data, n),
        covariates=np.column_stack([column(data, n) for _ in range(p)] or [np.empty((n, 0))]),
        covariate_names=data.draw(st.lists(NAMES, min_size=p, max_size=p)))


class TestSaveCsv:
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_equal_the_reference(self, tmp_path, monkeypatch, block, n, data):
        ds = datasets(data, n)
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * (6 + len(ds.covariate_names)))
        dataset.save_csv(ds, tmp_path / "new.csv")
        oracles.save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_peak_is_a_block_not_the_values(self, tmp_path):
        """At the paper's width over 50,400 rows, the writer holds a block of
        texts, not a Python object per value (the old writer peaked at about
        3.6 times the values' float64 size)."""
        ds = synth_dataset("sizes", n_years=12, nx=30, ny=20, seed=1, mask_rate=0.1)
        rng = np.random.default_rng(2)
        noise = np.round(rng.standard_normal((ds.n_rows, 33)), 3)
        noise[rng.uniform(size=noise.shape) < 0.05] = np.nan
        ds = dataclasses.replace(ds, covariates=np.column_stack([ds.covariates, noise]),
                                 covariate_names=ds.covariate_names
                                 + [f"z{j:02d}" for j in range(33)])
        values = 8 * ds.n_rows * (6 + len(ds.covariate_names))
        assert ds.n_rows == 50_400
        _, peak = traced_peak(dataset.save_csv, ds, tmp_path / "wide.csv")
        assert peak < values / 3


class TestSaveFolds:
    @pytest.mark.parametrize("block, n", block_boundary_cases())
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_equal_the_reference(self, tmp_path, monkeypatch, block, n, data):
        """A fold file of ``n`` rows (fold 0's cnt mask holds every row,
        the other masks any), so its row count meets the block boundaries."""
        ds = datasets(data, n)
        masks = np.array(data.draw(st.lists(st.booleans(), min_size=4 * n, max_size=4 * n)),
                         dtype=bool).reshape(2, 2, n)
        masks[0, 0], masks[0, 1] = True, False
        folds = spatialcv.FoldSet(masks[:data.draw(st.integers(1, 2))])
        monkeypatch.setattr(dataset, "_BLOCK_CELLS", block * len(spatialcv.FOLD_HEADER))
        spatialcv.save_folds(folds, ds, tmp_path / "new.csv")
        oracles.save_folds(folds, ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
