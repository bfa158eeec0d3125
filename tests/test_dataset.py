import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sparse_grids
from evtboost import booster, dataset, losses
from evtboost.errors import DataError


def write_csv(path, text):
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return str(path)


BASIC = """
lon,lat,year,month,cnt,ba,clim1
-100.25,37.75,1993,3,0,0,1.5
-100.25,37.75,1993,4,2,10,2.5
-99.75,37.75,1993,3,NA,0,0.5
-99.75,37.75,1993,4,1,NA,1.0
"""


class TestLoadCsv:
    def test_basic_fields(self, tmp_path):
        ds = dataset.load_csv(write_csv(tmp_path / "d.csv", BASIC))
        assert ds.n_rows == 4
        assert tuple(ds.cells[ds.cell_index[0]]) == (-100.25, 37.75)
        assert ds.cnt[0] == 0 and ds.ba[0] == 0
        assert math.isnan(ds.cnt[2])
        assert math.isnan(ds.ba[3])
        assert ds.covariate_names == ["clim1"]

    def test_missing_marker_configurable(self, tmp_path):
        text = BASIC.replace("NA", "?")
        ds = dataset.load_csv(write_csv(tmp_path / "d.csv", text), missing_marker="?")
        assert math.isnan(ds.cnt[2])

    def test_month_outside_season_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,11,0,0,1.0\n"
        with pytest.raises(DataError, match=":6.*month 11"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_duplicate_key_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,3,1,5,1.0\n"
        with pytest.raises(DataError, match="duplicate"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_off_grid_coordinate_rejected(self, tmp_path):
        text = BASIC + "-100.1,37.75,1993,5,0,0,1.0\n"
        with pytest.raises(DataError, match="regular"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_malformed_row_reports_line(self, tmp_path):
        text = BASIC + "-100.25,37.75,1993,xx,0,0,1.0\n"
        with pytest.raises(DataError, match=":6"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_zero_count_nonzero_ba_rejected(self, tmp_path):
        text = BASIC + "-100.25,37.75,1994,3,0,12,1.0\n"
        with pytest.raises(DataError, match="ba must be 0"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_schema_mapping(self, tmp_path):
        text = BASIC.replace("lon,lat,year,month,cnt,ba,clim1",
                             "x,y,yr,mo,fires,acres,clim1")
        ds = dataset.load_csv(
            write_csv(tmp_path / "d.csv", text),
            schema={"lon": "x", "lat": "y", "year": "yr", "month": "mo",
                    "cnt": "fires", "ba": "acres"})
        assert ds.n_rows == 4

    def test_first_repeated_line_is_named(self, tmp_path):
        text = BASIC + ("-99.75,37.75,1993,5,0,0,1.0\n"
                        "-99.75,37.75,1993,4,1,5,1.0\n"
                        "-100.25,37.75,1993,3,1,5,1.0\n")
        with pytest.raises(DataError, match=r":7: duplicate .*-99\.75, 37\.75\), 1993, 4"):
            dataset.load_csv(write_csv(tmp_path / "d.csv", text))

    def test_round_trip(self, tmp_path):
        p1 = write_csv(tmp_path / "d.csv", BASIC)
        ds = dataset.load_csv(p1)
        p2 = tmp_path / "d2.csv"
        dataset.save_csv(ds, p2)
        ds2 = dataset.load_csv(str(p2))
        np.testing.assert_array_equal(ds.cnt, ds2.cnt)
        np.testing.assert_array_equal(ds.ba, ds2.ba)
        np.testing.assert_array_equal(ds.covariates, ds2.covariates)


def grid_dataset(values, year=1993, month=3, spacing=0.5):
    """3x3 grid with one row per cell and the covariate 'v' set per cell."""
    cells = np.array(sorted((-100.0 + i * spacing, 35.0 + j * spacing)
                            for j in range(3) for i in range(3)))
    vals = np.asarray(values, dtype=float)
    return dataset.GridDataset(
        cells=cells,
        cell_index=np.arange(9),
        year=np.full(9, year),
        month=np.full(9, month),
        cnt=np.zeros(9),
        ba=np.zeros(9),
        covariates=vals[:, None],
        covariate_names=["v"],
        spacing=spacing,
    )


class TestMatchRows:
    @given(keys=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=30),
           queries=st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 3)),
                            max_size=30))
    def test_first_equal_row_or_minus_one(self, keys, queries):
        first = {}
        for i, k in enumerate(keys):
            first.setdefault(k, i)
        got = dataset.match_rows(np.array(keys, dtype=int).reshape(-1, 2).T,
                                 np.array(queries, dtype=int).reshape(-1, 2).T)
        assert got.tolist() == [first.get(q, -1) for q in queries]

    def test_queries_broadcast(self):
        keys = (np.array([0, 0, 1]), np.array([5, 6, 5]))
        got = dataset.match_rows(keys, (np.array([[0], [1]]), np.array([5, 6])))
        np.testing.assert_array_equal(got, [[0, 1], [2, -1]])


def reference_neighbor_average(ds, covariate):
    """The per-row loop that ``neighbor_average`` replaced: neighbour cells
    from a lattice dict, rows from a (cell, year, month) dict, sums added in
    (di, dj) order."""
    values = ds.covariates[:, ds.covariate_names.index(covariate)]
    cells = ds.cells.tolist()
    lon0 = min(c[0] for c in cells)
    lat0 = min(c[1] for c in cells)

    def key(c):
        return (round((c[0] - lon0) / ds.spacing), round((c[1] - lat0) / ds.spacing))

    index = {key(c): k for k, c in enumerate(cells)}
    nbrs = []
    for c in cells:
        ci, cj = key(c)
        nbrs.append([index[(ci + di, cj + dj)]
                     for di in (-1, 0, 1) for dj in (-1, 0, 1)
                     if (di, dj) != (0, 0) and (ci + di, cj + dj) in index])
    row_of = {}
    for i in range(ds.n_rows):
        row_of[(int(ds.cell_index[i]), int(ds.year[i]), int(ds.month[i]))] = i
    out = np.empty(ds.n_rows)
    for i in range(ds.n_rows):
        c, y, m = int(ds.cell_index[i]), int(ds.year[i]), int(ds.month[i])
        acc, cnt = 0.0, 0
        for nb in nbrs[c]:
            r = row_of.get((nb, y, m))
            if r is not None and not np.isnan(values[r]):
                acc += values[r]
                cnt += 1
        out[i] = acc / cnt if cnt else values[i]
    return out


class TestNeighborAverage:
    @settings(max_examples=80, deadline=None)
    @given(ds=sparse_grids())
    def test_matches_reference_loop_bit_for_bit(self, ds):
        got = dataset.neighbor_average(ds, "v").covariates[:, -1]
        assert got.tobytes() == reference_neighbor_average(ds, "v").tobytes()


    def test_constant_field(self):
        ds = grid_dataset(np.full(9, 2.0))
        out = dataset.neighbor_average(ds, "v")
        j = out.covariate_names.index("v_nbr")
        np.testing.assert_allclose(out.covariates[:, j], 2.0)

    def test_corner_mean_of_available(self):
        ds = grid_dataset(np.arange(9, dtype=float))
        # corner cell 0 at (-100, 35): neighbours are cells 1, 3, 4
        out = dataset.neighbor_average(ds, "v")
        j = out.covariate_names.index("v_nbr")
        assert out.covariates[0, j] == pytest.approx((1 + 3 + 4) / 3)

    def test_isolated_cell_falls_back_to_self(self):
        ds = grid_dataset(np.arange(9, dtype=float))
        lonely = ds.subset(np.array([4]))  # keep only the centre cell's row
        out = dataset.neighbor_average(lonely, "v")
        j = out.covariate_names.index("v_nbr")
        assert out.covariates[0, j] == 4.0

    def test_shift_equivariance(self):
        base = np.arange(9, dtype=float)
        ds1 = dataset.neighbor_average(grid_dataset(base), "v")
        ds2 = dataset.neighbor_average(grid_dataset(base + 5.0), "v")
        j = ds1.covariate_names.index("v_nbr")
        np.testing.assert_allclose(ds2.covariates[:, j], ds1.covariates[:, j] + 5.0)

    def test_unknown_covariate(self):
        with pytest.raises(DataError):
            dataset.neighbor_average(grid_dataset(np.zeros(9)), "nope")


class TestCrossFillZeros:
    def _ds(self):
        ds = grid_dataset(np.zeros(9))
        ds.cnt = np.array([np.nan, np.nan, 0.0, 1.0, 0.0, 2.0, np.nan, 0.0, 1.0])
        ds.ba = np.array([0.0, 150.0, np.nan, 30.0, 0.0, np.nan, np.nan, np.nan, 12.0])
        return ds

    def test_rules(self):
        out = dataset.cross_fill_zeros(self._ds())
        assert out.cnt[0] == 0.0              # masked cnt, ba = 0
        assert math.isnan(out.cnt[1])         # masked cnt, ba > 0 stays masked
        assert out.ba[2] == 0.0               # cnt = 0, masked ba
        assert math.isnan(out.ba[5])          # cnt > 0, masked ba stays masked
        assert math.isnan(out.cnt[6]) and math.isnan(out.ba[6])

    def test_never_changes_observed(self):
        ds = self._ds()
        out = dataset.cross_fill_zeros(ds)
        obs = ~np.isnan(ds.cnt)
        np.testing.assert_array_equal(out.cnt[obs], ds.cnt[obs])
        obs = ~np.isnan(ds.ba)
        np.testing.assert_array_equal(out.ba[obs], ds.ba[obs])


def _count_model(alpha=2.0, constant=0.0):
    """Intercept-only dGPD model with raw score ``constant`` everywhere."""
    return booster.BoostedModel(
        loss=losses.LossSpec(kind="dgpd", alpha=alpha),
        base_score=constant,
        trees=[],
        params=booster.TrainParams(n_trees=0),
        feature_names=["lon", "lat", "year", "month", "v"],
    )


class TestImputeCnt:
    def test_observed_passthrough_and_mean_fill(self):
        ds = grid_dataset(np.zeros(9))
        ds.cnt[3] = 7.0
        ds.cnt[5] = np.nan
        out = dataset.impute_cnt_covariate(ds, _count_model(alpha=2.0, constant=0.0))
        j = out.covariate_names.index("cnt_cov")
        assert out.covariates[3, j] == 7.0
        # theta = 0, alpha = 2: mean is pi^2/6 - 1
        assert out.covariates[5, j] == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-7)

    def test_alpha_at_most_one_rejected(self):
        ds = grid_dataset(np.zeros(9))
        ds.cnt[0] = np.nan
        with pytest.raises(DataError, match="does not exist"):
            dataset.impute_cnt_covariate(ds, _count_model(alpha=1.0))


class TestImputeBaClasses:
    def _classifier(self):
        return booster.BoostedModel(
            loss=losses.LossSpec(kind="cross_entropy", n_classes=3),
            base_score=np.zeros(3),
            trees=[],
            params=booster.TrainParams(n_trees=0),
            feature_names=["lon", "lat", "year", "month", "v"],
        )

    def test_observed_one_hot(self):
        ds = grid_dataset(np.zeros(9))
        ds.ba = np.array([0.0, 50.0, 350.0, 0.0, np.nan, 10.0, 0.0, 200.0, 1000.0])
        out = dataset.impute_ba_class_covariates(ds, self._classifier(), u=200.0)
        cols = [out.covariate_names.index(n) for n in ("p_zero", "p_med", "p_large")]
        np.testing.assert_allclose(out.covariates[0, cols], [1, 0, 0])
        np.testing.assert_allclose(out.covariates[1, cols], [0, 1, 0])
        np.testing.assert_allclose(out.covariates[2, cols], [0, 0, 1])
        np.testing.assert_allclose(out.covariates[7, cols], [0, 1, 0])  # ba = u is medium
        # masked row gets the uniform softmax of all-zero raw scores
        np.testing.assert_allclose(out.covariates[4, cols], [1 / 3] * 3)

    def test_wrong_class_count_rejected(self):
        ds = grid_dataset(np.zeros(9))
        clf = self._classifier()
        clf.loss = losses.LossSpec(kind="cross_entropy", n_classes=4)
        clf.base_score = np.zeros(4)
        with pytest.raises(DataError, match="3 classes"):
            dataset.impute_ba_class_covariates(ds, clf)


class TestImputedMatchesObserved:
    def test_equal_wherever_source_observed(self, rng):
        ds = grid_dataset(rng.normal(size=9))
        ds.cnt = rng.integers(0, 5, size=9).astype(float)
        ds.cnt[rng.uniform(size=9) < 0.3] = np.nan
        out = dataset.impute_cnt_covariate(ds, _count_model())
        j = out.covariate_names.index("cnt_cov")
        obs = ~np.isnan(ds.cnt)
        np.testing.assert_array_equal(out.covariates[obs, j], ds.cnt[obs])
