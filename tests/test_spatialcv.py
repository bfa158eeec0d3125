import math
import resource
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special
from scipy.optimize import brentq

from helpers import child_env, sparse_grids, traced_peak
from evtboost import spatialcv
from evtboost.dataset import GridDataset
from evtboost.errors import DataError, NumericalError


def small_grid(nx=4, ny=4, n_months=6, mask_cnt=None, mask_ba=None, seed=0):
    coords = sorted(((-100.0 + i * 0.5, 40.0 + j * 0.5) for j in range(ny)
                     for i in range(nx)))
    cells = np.array(coords)
    n_cells = len(cells)
    rows = n_cells * n_months
    rng = np.random.default_rng(seed)
    cnt = rng.integers(0, 4, size=rows).astype(float)
    ba = np.where(cnt == 0, 0.0, rng.uniform(0, 400, size=rows))
    if mask_cnt is not None:
        cnt[rng.uniform(size=rows) < mask_cnt] = np.nan
    if mask_ba is not None:
        ba[rng.uniform(size=rows) < mask_ba] = np.nan
    return GridDataset(
        cells=cells,
        cell_index=np.tile(np.arange(n_cells), n_months),
        year=np.repeat(2001, rows),
        month=np.repeat(np.arange(3, 3 + n_months), n_cells),
        cnt=cnt,
        ba=ba,
        covariates=np.empty((rows, 0)),
        covariate_names=[],
    )


class TestMaternCov:
    def test_variance_at_zero_lag(self):
        """The correlation is continuously extended to the unit variance at d = 0."""
        assert spatialcv.matern_corr(0.0, r=2.0) == 1.0
        assert spatialcv.matern_corr(np.array([0.0, 0.0]), r=0.5, nu=2.5).tolist() == [1.0, 1.0]

    def test_correlation_near_tenth_at_range(self):
        # nu = 1: correlation at d = r is sqrt(8) K_1(sqrt(8)) ~ 0.14
        corr = spatialcv.matern_corr(2.0, r=2.0, nu=1.0)
        assert 0.05 < corr < 0.2
        direct = np.sqrt(8.0) * special.kv(1, np.sqrt(8.0))
        assert corr == pytest.approx(float(direct), rel=1e-12)

    def test_monotone_decreasing(self):
        d = np.linspace(0.0, 6.0, 80)
        vals = spatialcv.matern_corr(d, r=2.0)
        assert np.all(np.diff(vals) < 0)

    def test_vanishes_far_away(self):
        assert spatialcv.matern_corr(1e6, r=2.0) == pytest.approx(0.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(DataError):
            spatialcv.matern_corr(-1.0, r=2.0)

    def test_every_accepted_nu_over_every_distance(self):
        """The correlation depends on d / r alone, so d from 0 to 1e300 at
        r = 2 reaches where K_nu overflows (near 0) and where
        (kappa d)^nu does (far away). Every accepted nu gives a finite
        correlation in [0, 1] that does not increase with d beyond
        rounding, and that near 0 follows 1 - (kappa d)^2 / (4 (nu - 1))."""
        d = np.concatenate([[0.0], np.geomspace(1e-300, 1e300, 3001)])
        for nu in np.concatenate([np.geomspace(1e-3, spatialcv.NU_MAX, 40), [0.5, 1.5, 2.5]]):
            corr = spatialcv.matern_corr(d, r=2.0, nu=nu)
            assert np.isfinite(corr).all() and corr.min() >= 0.0 and corr.max() <= 1.0, nu
            assert np.diff(corr).max() <= 1e-12, nu
            if nu > 2:
                scaled = np.sqrt(8.0 * nu) / 2.0 * d
                near = scaled < 1e-4
                series = 1 - scaled[near] ** 2 / (4 * (nu - 1))
                assert np.abs(corr[near] - series).max() <= 5e-12, nu

    def test_nu_beyond_its_bound_is_rejected(self):
        spatialcv.MaskModelParams(nu=spatialcv.NU_MAX)
        for nu in (np.nextafter(spatialcv.NU_MAX, np.inf), 120.0, 200.0, np.nan):
            with pytest.raises(DataError, match="nu"):
                spatialcv.MaskModelParams(nu=nu)


class TestSimulateField:
    def test_zero_sigma_gives_zero_field(self):
        ds = small_grid()
        params = spatialcv.MaskModelParams(sigma_gp=0.0)
        field = spatialcv.simulate_field(ds.cells, params, seed=1)
        np.testing.assert_array_equal(field, 0.0)

    def test_seed_determinism(self):
        ds = small_grid()
        params = spatialcv.MaskModelParams(sigma_gp=1.3, r=1.5)
        f1 = spatialcv.simulate_field(ds.cells, params, seed=9, n_draws=3)
        f2 = spatialcv.simulate_field(ds.cells, params, seed=9, n_draws=3)
        np.testing.assert_array_equal(f1, f2)

    def test_sample_covariance_matches_matern(self):
        ds = small_grid()
        params = spatialcv.MaskModelParams(sigma_gp=1.2, r=2.0, nu=1.0)
        draws = spatialcv.simulate_field(ds.cells, params, seed=5, n_draws=2000)
        # two cells half a degree apart
        a, b = 0, next(i for i, c in enumerate(ds.cells)
                       if tuple(c) == (ds.cells[0, 0], ds.cells[0, 1] + 0.5))
        emp = np.cov(draws[:, a], draws[:, b])
        var = params.sigma_gp ** 2
        expect = var * spatialcv.matern_corr(0.5, 2.0, 1.0)
        se = np.sqrt((var * var + expect ** 2) / (draws.shape[0] - 1))
        assert abs(emp[0, 1] - expect) < 3 * se


class TestGenerateFolds:
    def test_default_shape_and_keys(self):
        ds = small_grid()
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=5,
                                         seed=2)
        assert folds.n_folds == 5
        assert folds.masks.shape == (5, len(spatialcv.RESPONSES), ds.n_rows)
        assert folds.masks.dtype == bool

    def test_half_rate_at_zero_parameters(self):
        ds = small_grid(nx=6, ny=6, n_months=8)
        params = spatialcv.MaskModelParams(beta0_cnt=0.0, beta0_ba=0.0, beta=0.0,
                                           sigma_gp=0.0, phi=0.0)
        folds = spatialcv.generate_folds(ds, params, n_folds=20, seed=3)
        total = int(folds.masks[:, 0].sum())
        n_keys = ds.n_rows * 20
        rate = total / n_keys
        se = np.sqrt(0.25 / n_keys)
        assert abs(rate - 0.5) < 4 * se

    def test_premasked_keys_never_selected(self):
        ds = small_grid(mask_cnt=0.3, mask_ba=0.3, seed=4)
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=5,
                                         seed=5)
        masked_cnt = np.isnan(ds.cnt)
        masked_ba = np.isnan(ds.ba)
        for f in range(5):
            assert not (folds.masks[f, 0] & masked_cnt).any()
            assert not (folds.masks[f, 1] & masked_ba).any()

    def _mask_correlation(self, beta, seed=6):
        ds = small_grid(nx=5, ny=5, n_months=6)
        params = spatialcv.MaskModelParams(beta=beta, sigma_gp=1.5, phi=0.0, r=2.0)
        folds = spatialcv.generate_folds(ds, params, n_folds=40, seed=seed)
        xs = folds.masks[:, 0].ravel().astype(float)  # fold-major, rows in order
        ys = folds.masks[:, 1].ravel().astype(float)
        return float(np.corrcoef(xs, ys)[0, 1])

    def test_correlation_increases_with_beta(self):
        corrs = [self._mask_correlation(b) for b in (0.0, 0.42, 1.0)]
        assert abs(corrs[0]) < 0.05
        assert corrs[0] < corrs[1] < corrs[2]

    def test_rate_matches_monte_carlo_oracle(self):
        ds = small_grid(nx=6, ny=6, n_months=8)
        params = spatialcv.MaskModelParams(beta0_cnt=-0.8, sigma_gp=1.1, phi=0.3)
        folds = spatialcv.generate_folds(ds, params, n_folds=25, seed=7)
        total = int(folds.masks[:, 0].sum())
        n_keys = ds.n_rows * 25
        rate = total / n_keys
        rng = np.random.default_rng(123)
        mu = params.beta0_cnt + rng.normal(
            scale=np.sqrt(params.sigma_gp ** 2 + params.phi), size=100_000)
        expect = float(special.expit(mu).mean())
        se = np.sqrt(expect * (1 - expect) / n_keys)
        assert abs(rate - expect) < 3 * se + 0.01  # small allowance for key dependence


def reference_fold_keys(ds, params, n_folds, seed):
    """The per-row loop that the row masks replaced: one set of (cell, year,
    month) keys per fold and response, from the same random draws."""
    months = sorted(set(zip(ds.year.tolist(), ds.month.tolist())))
    L_chol = spatialcv.field_factor(ds.cells, params)
    n_cells = len(ds.cells)
    rows_of_month = {}
    for i in range(ds.n_rows):
        rows_of_month.setdefault((int(ds.year[i]), int(ds.month[i])), []).append(i)
    folds = []
    for f in range(n_folds):
        fold = {resp: set() for resp in spatialcv.RESPONSES}
        for mi, (y, mo) in enumerate(months):
            rng = np.random.default_rng([seed, f, mi])
            g = params.sigma_gp * (L_chol @ rng.standard_normal(n_cells))
            eps_cnt, eps_ba = rng.normal(scale=np.sqrt(params.phi), size=2)
            mu_cnt = params.beta0_cnt + g + eps_cnt
            mu_ba = params.beta0_ba + params.beta * g + eps_ba
            pick_cnt = rng.uniform(size=n_cells) < special.expit(mu_cnt)
            pick_ba = rng.uniform(size=n_cells) < special.expit(mu_ba)
            for i in rows_of_month.get((y, mo), ()):
                c = int(ds.cell_index[i])
                if pick_cnt[c] and not np.isnan(ds.cnt[i]):
                    fold["cnt"].add((c, y, mo))
                if pick_ba[c] and not np.isnan(ds.ba[i]):
                    fold["ba"].add((c, y, mo))
        folds.append(fold)
    return folds


class TestMasksMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(ds=sparse_grids(), n_folds=st.integers(1, 3), seed=st.integers(0, 2 ** 32),
           beta0=st.floats(-2.0, 2.0), beta=st.floats(-1.0, 1.5),
           sigma_gp=st.floats(0.0, 2.0), phi=st.floats(0.0, 1.0))
    def test_masks_select_the_reference_key_rows(self, ds, n_folds, seed, beta0, beta,
                                                 sigma_gp, phi):
        params = spatialcv.MaskModelParams(beta0_cnt=beta0, beta0_ba=-beta0, beta=beta,
                                           sigma_gp=sigma_gp, phi=phi)
        folds = spatialcv.generate_folds(ds, params, n_folds=n_folds, seed=seed)
        reference = reference_fold_keys(ds, params, n_folds, seed)
        keys = list(zip(ds.cell_index.tolist(), ds.year.tolist(), ds.month.tolist()))
        assert folds.masks.shape == (n_folds, 2, ds.n_rows)
        for f in range(n_folds):
            for r, resp in enumerate(spatialcv.RESPONSES):
                expect = [k in reference[f][resp] for k in keys]
                assert folds.masks[f, r].tolist() == expect


class TestCalibration:
    def test_mean_expit_against_monte_carlo(self, rng):
        got = spatialcv.mean_expit_gaussian(-0.7, 1.9)
        mc = special.expit(-0.7 + rng.normal(scale=np.sqrt(1.9), size=400_000)).mean()
        assert got == pytest.approx(float(mc), abs=0.005)

    def test_intercepts_match_observed_rate(self):
        ds = small_grid(mask_cnt=0.25, mask_ba=0.4, seed=8)
        params = spatialcv.calibrate_intercepts(ds, spatialcv.MaskModelParams())
        var_cnt = params.sigma_gp ** 2 + params.phi
        var_ba = params.beta ** 2 * params.sigma_gp ** 2 + params.phi
        rate_cnt = float(np.isnan(ds.cnt).mean())
        rate_ba = float(np.isnan(ds.ba).mean())
        assert spatialcv.mean_expit_gaussian(params.beta0_cnt, var_cnt) == \
            pytest.approx(rate_cnt, abs=1e-6)
        assert spatialcv.mean_expit_gaussian(params.beta0_ba, var_ba) == \
            pytest.approx(rate_ba, abs=1e-6)


class TestBrentRoot:
    """``_brent_root`` takes the steps of scipy's ``brentq`` at its default
    tolerances, so it returns the same float."""

    @settings(max_examples=60, deadline=None)
    @given(var=st.floats(0.01, 5.0), rate=st.floats(1e-6, 1.0 - 1e-6))
    def test_calibration_roots_match_brentq(self, var, rate):
        f = lambda b: spatialcv.mean_expit_gaussian(b, var) - rate
        assert spatialcv._brent_root(f, -40.0, 40.0).hex() == brentq(f, -40.0, 40.0).hex()

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-29.0, 29.0), slope=st.floats(0.01, 10.0),
           wiggle=st.floats(-20.0, 20.0), freq=st.floats(0.1, 5.0),
           bend=st.floats(-3.0, 3.0))
    def test_bracketed_functions_match_brentq(self, root, slope, wiggle, freq, bend):
        def f(x):
            return (slope * (x - root) + wiggle * math.sin(freq * (x - root))
                    + bend * math.atan(x) * math.exp(-abs(x - root)))
        assume((f(-30.0) < 0) != (f(30.0) < 0) and f(-30.0) != 0 and f(30.0) != 0)
        assert spatialcv._brent_root(f, -30.0, 30.0).hex() == brentq(f, -30.0, 30.0).hex()

    def test_no_sign_change_and_no_convergence_give_none(self):
        assert spatialcv._brent_root(lambda x: x * x + 1.0, -1.0, 2.0) is None
        with mock.patch.object(spatialcv, "_BRENT_MAX_ITER", 2):
            assert spatialcv._brent_root(math.atan, -30.0, 20.0) is None
        assert spatialcv._brent_root(math.atan, -30.0, 20.0) == brentq(math.atan, -30.0, 20.0)

    def test_unreachable_rate_is_a_numerical_failure(self):
        ds = small_grid(mask_cnt=0.25, seed=8)
        with pytest.raises(NumericalError, match=r"no cnt intercept in \[-40, 40\] gives the "
                           r"masking rate 0.26\d+ at variance 1e\+06"):
            spatialcv.calibrate_intercepts(ds, spatialcv.MaskModelParams(sigma_gp=1000.0))


def reference_field_factor(cells, params):
    """Cholesky factor with the covariance evaluated at every cell pair."""
    coords = np.asarray(cells, dtype=float)
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    corr = spatialcv.matern_corr(dist, params.r, params.nu)
    corr[np.diag_indices_from(corr)] += spatialcv.JITTER
    return np.linalg.cholesky(corr)


class TestFieldFactorOnDistinctDistances:
    @settings(max_examples=60, deadline=None)
    @given(ds=sparse_grids(), r=st.floats(0.1, 5.0), nu=st.sampled_from([0.5, 1.0, 1.5, 2.5]),
           block_cells=st.sampled_from([1, 7, 40, spatialcv._FACTOR_BLOCK_CELLS]))
    def test_factor_matches_all_pairs_reference(self, ds, r, nu, block_cells):
        params = spatialcv.MaskModelParams(r=r, nu=nu)
        with mock.patch.object(spatialcv, "_FACTOR_BLOCK_CELLS", block_cells):
            try:
                expect = reference_field_factor(ds.cells, params)
            except np.linalg.LinAlgError:
                with pytest.raises(NumericalError):
                    spatialcv.field_factor(ds.cells, params)
                return
            assert spatialcv.field_factor(ds.cells, params).tobytes() == expect.tobytes()


def lattice(nx, ny, spacing=0.25):
    return np.array([(-110.25 + i * spacing, 35.25 + j * spacing)
                     for i in range(nx) for j in range(ny)])


class TestFieldFactorMemory:
    def test_working_memory_is_near_the_matrix_and_its_factor(self):
        """Row blocks keep the distance temporaries small: the peak is the
        correlation matrix, its factor and little more (the all-pairs
        (n, n, 2) tensor and full-matrix sort took about 8 n x n arrays)."""
        cells = lattice(30, 30, spacing=0.5)
        params = spatialcv.MaskModelParams()
        spatialcv.matern_corr(1.0, params.r)  # import scipy.special outside the trace
        _, peak = traced_peak(spatialcv.field_factor, cells, params)
        assert peak < 3 * len(cells) ** 2 * 8

    def test_paper_grid_factor_fits_a_640_mib_address_space(self):
        """3,500 cells, the paper's grid, under ``RLIMIT_AS`` set in a child.
        One BLAS thread keeps the thread pool's reservations out of the bound."""
        limit = 640 << 20
        code = ("import numpy as np\n"
                "from evtboost import spatialcv\n"
                "cells = np.array([(i * 0.25, j * 0.25) for i in range(70) for j in range(50)])\n"
                "print(spatialcv.field_factor(cells, spatialcv.MaskModelParams()).shape)\n")
        env = dict(child_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout.strip() == "(3500, 3500)"


class TestFoldIo:
    def test_round_trip(self, tmp_path):
        ds = small_grid(mask_cnt=0.2, seed=9)
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=3,
                                         seed=10)
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(folds, ds, path)
        folds2 = spatialcv.load_folds(path, ds)
        assert folds2.n_folds == folds.n_folds
        np.testing.assert_array_equal(folds2.masks, folds.masks)

    def _edited_export(self, tmp_path, field, token):
        """A fold export of ``small_grid`` with one field of its first data
        line (line 2) replaced, and the dataset it was made from."""
        ds = small_grid(mask_cnt=0.2, seed=11)
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=2,
                                         seed=12)
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(folds, ds, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[field] = token(len(lines) - 1)
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return ds, path

    def test_negative_fold_index_rejected(self, tmp_path):
        ds, path = self._edited_export(tmp_path, 0, lambda n: "-1")
        with pytest.raises(DataError, match=":2: fold index -1"):
            spatialcv.load_folds(path, ds)

    @pytest.mark.parametrize("token", [str, lambda n: str(10 ** 18)],
                             ids=["row_count", "huge"])
    def test_fold_index_beyond_row_count_rejected(self, tmp_path, token):
        ds, path = self._edited_export(tmp_path, 0, token)
        with pytest.raises(DataError, match=":2: fold index"):
            spatialcv.load_folds(path, ds)

    @pytest.mark.parametrize("field, token", [(4, "1999"), (5, "11"), (2, "5.0"),
                                              (3, "nan")])
    def test_key_without_row_rejected(self, tmp_path, field, token):
        ds, path = self._edited_export(tmp_path, field, lambda n: token)
        with pytest.raises(DataError, match=":2: no row for"):
            spatialcv.load_folds(path, ds)

    def test_other_dataset_rejected(self):
        ds = small_grid()
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=2,
                                         seed=3)
        with pytest.raises(DataError, match="rows"):
            folds.validation_rows(ds.subset(np.arange(5)), 0, "cnt")

    def test_row_count_is_counted_in_csv_rows(self, tmp_path):
        """The fold-index bound is the number of fold rows, counted before
        they are parsed: a quoted line break makes fewer rows than lines."""
        ds, path = self._edited_export(tmp_path, 0, lambda n: '"0\n"')
        lines = path.read_text(encoding="utf-8").splitlines()
        n_rows = len(lines) - 2   # the header, and one row over two lines
        last = lines[-1].split(",")
        lines[-1] = ",".join([str(n_rows)] + last[1:])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = (f"{path}:{n_rows + 1}: fold index {n_rows} must lie in [0, {n_rows}), "
                   f"the number of fold rows")
        with pytest.raises(DataError) as info:
            spatialcv.load_folds(path, ds)
        assert str(info.value) == message

    def test_working_memory_is_a_few_arrays_per_line(self, tmp_path):
        """Rows are parsed as they are read: the peak is the parsed columns
        and the key lookup's arrays (about 100 bytes a line), not a list of
        Python rows (about 440)."""
        ds = small_grid(nx=20, ny=20, n_months=12)
        masks = np.zeros((3, 2, ds.n_rows), dtype=bool)
        masks[np.random.default_rng(0).integers(0, 3, size=ds.n_rows), :,
              np.arange(ds.n_rows)] = True
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(spatialcv.FoldSet(masks), ds, path)
        folds, peak = traced_peak(spatialcv.load_folds, path, ds)
        np.testing.assert_array_equal(folds.masks, masks)
        assert peak < 200 * 2 * ds.n_rows

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_names_its_line(self, tmp_path, line):
        """A quoted field beyond csv's 131,072-character limit is a data error."""
        ds = small_grid()
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(spatialcv.FoldSet(np.ones((1, 2, ds.n_rows), dtype=bool)), ds,
                             path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = f'"{"7" * 200_000}",{lines[line - 1]}'
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(DataError, match=rf"folds\.csv:{line}: malformed fold row "
                                            r"\(field larger than field limit"):
            spatialcv.load_folds(path, ds)

    @pytest.mark.parametrize("edit, got", [(lambda line: line + ",7", 7),
                                           (lambda line: line.rsplit(",", 1)[0], 5),
                                           (lambda line: "", 0)],
                             ids=["seventh_field", "five_fields", "blank_line"])
    def test_row_without_six_fields_names_its_line(self, tmp_path, edit, got):
        """A fold row with a field more or fewer, a blank line included, is
        named with its line as a data CSV's row is."""
        ds = small_grid()
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(spatialcv.FoldSet(np.ones((1, 2, ds.n_rows), dtype=bool)), ds,
                             path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            spatialcv.load_folds(path, ds)
        assert str(info.value) == f"{path}:3: expected 6 fields, got {got}"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A fold file saved as "CSV UTF-8" starts with a byte-order mark;
        it loads as the same file without one."""
        ds = small_grid(mask_cnt=0.2, seed=9)
        folds = spatialcv.generate_folds(ds, spatialcv.MaskModelParams(), n_folds=3,
                                         seed=10)
        path = tmp_path / "folds.csv"
        spatialcv.save_folds(folds, ds, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        np.testing.assert_array_equal(spatialcv.load_folds(path, ds).masks, folds.masks)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a fold export"):
            spatialcv.load_folds(path, small_grid())
