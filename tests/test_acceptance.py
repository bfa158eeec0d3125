"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every tolerance is pinned here; the oracles (finite
differences, quadrature, exhaustive split search, Monte Carlo simulation)
are independent of the code paths they check.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate, special

from evtboost import booster, evaluate, interpret, losses, mixture, spatialcv, tree
from evtboost.dataset import GridDataset
from evtboost.errors import DataError
from evtboost.synth import sample_dgpd, sample_gpd, sample_trgamma

import oracles
from helpers import child_env, fd_grad, fd_hess, rel_err

SEED = 20240817


# ---------------------------------------------------------------------------
# 1. analytic derivatives match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_hessian_correctness():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    checked = 0

    def check(value_fn, grad, hess, theta):
        nonlocal checked
        assert rel_err(grad, fd_grad(value_fn, theta)) < 1e-6
        assert rel_err(hess, fd_hess(value_fn, theta)) < 1e-4
        checked += 1

    for _ in range(100):
        theta = float(rng.uniform(-2, 2))

        y = int(rng.integers(0, 30))
        _, grad, hess = losses.poisson_eval(y, theta)
        check(lambda t: losses.poisson_eval(y, t)[0], grad, hess, theta)

        y = int(rng.integers(0, 40))
        alpha = float(rng.uniform(0.4, 10.0))
        _, grad, hess = losses.dgpd_eval(y, theta, alpha)
        check(lambda t: losses.dgpd_eval(y, t, alpha)[0], grad, hess, theta)

        k = float(rng.uniform(0.6, 5.0))
        u = float(rng.uniform(0.5, 30.0))
        y = float(rng.uniform(1e-3, u))
        _, grad, hess = losses.trgamma_eval(y, theta, k, u)
        check(lambda t: losses.trgamma_eval(y, t, k, u)[0], grad, hess, theta)

        xi = float(rng.uniform(0.05, 2.0))
        kappa = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(1e-3, 80.0))
        _, grad, hess = losses.gpd_eval(y, theta, xi, kappa)
        check(lambda t: losses.gpd_eval(y, t, xi, kappa)[0], grad, hess, theta)

        y = float(rng.uniform(0.0, 200.0))
        _, grad, hess = losses.squared_log_eval(y, theta)
        check(lambda t: losses.squared_log_eval(y, t)[0], grad, hess, theta)

        C = int(rng.integers(2, 5))
        th = rng.normal(scale=1.5, size=C)
        yv = np.eye(C)[int(rng.integers(0, C))]
        w = float(rng.uniform(0.2, 3.0))
        _, grad, hess = losses.cross_entropy_eval(yv, th, w)
        for c in range(C):
            def value_at(t, c=c):
                t_full = th.copy()
                t_full[c] = t
                return losses.cross_entropy_eval(yv, t_full, w)[0]

            assert rel_err(grad[c], fd_grad(value_at, th[c])) < 1e-6
            assert rel_err(hess[c], fd_hess(value_at, th[c])) < 1e-4
        checked += 1

    assert checked == 600
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. distributional normalization
# ---------------------------------------------------------------------------

def test_criterion_02_distributional_normalization():
    rng = np.random.default_rng(SEED + 1)

    # dGPD telescoping mass at K = 10^4, exact to 1e-12
    theta, alpha = 0.1, 1.7
    K = 10_000
    total = math.fsum(oracles.dgpd_pmf(np.arange(K + 1), theta, alpha))
    expect = 1.0 - float(losses.dgpd_survival(K + 1, theta, alpha))
    assert abs(total - expect) < 1e-12

    # truncated-gamma density integrates to 1 +- 1e-8 for 20 random tuples
    for _ in range(20):
        k = float(rng.uniform(0.7, 5.0))
        u = float(rng.uniform(0.5, 30.0))
        th = float(rng.uniform(-1.0, 2.0))

        def density(y):
            v, _, _ = losses.trgamma_eval(y, th, k, u)
            return math.exp(-float(v)) * k ** k * y ** (k - 1.0)

        total, _ = integrate.quad(density, 0.0, u, limit=200,
                                  epsabs=1e-10, epsrel=1e-10)
        assert abs(total - 1.0) < 1e-8

    # GPD reparameterization equals the standard NLL to 1e-10, 50 tuples
    for _ in range(50):
        sigma = float(rng.uniform(0.2, 10.0))
        xi = float(rng.uniform(0.05, 2.0))
        kappa = float(rng.uniform(0.05, 0.95))
        y = float(rng.uniform(0.01, 50.0))
        th = math.log(sigma * losses.gpd_scale_factor(xi, kappa) / xi)
        standard_nll = math.log(sigma) + (1 / xi + 1) * math.log1p(xi * y / sigma)
        value, _, _ = losses.gpd_eval(y, th, xi, kappa)
        assert abs(value - standard_nll) < 1e-10


# ---------------------------------------------------------------------------
# 3. dGPD mean
# ---------------------------------------------------------------------------

def test_criterion_03_dgpd_mean():
    # series oracle: sum_{k>=1}(1+k)^-2 = pi^2/6 - 1
    assert abs(losses.dgpd_mean(0.0, 2.0) - (math.pi ** 2 / 6 - 1)) < 1e-8
    with pytest.raises(DataError, match="does not exist"):
        losses.dgpd_mean(0.0, 1.0)
    with pytest.raises(DataError, match="does not exist"):
        losses.dgpd_mean(0.0, 0.5)


# ---------------------------------------------------------------------------
# 4. one-round booster equals the exhaustive best stump
# ---------------------------------------------------------------------------

def test_criterion_04_tree_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    X = rng.normal(size=(20, 3))
    y = np.expm1((X[:, 1] > 0.2).astype(float) + 0.3 * (X[:, 0] > -0.5))
    spec = losses.LossSpec(kind="squared_log")
    params = booster.TrainParams(n_trees=1, learning_rate=1.0, max_leaves=2,
                                 lambda_reg=0.0, seed=0)
    model = booster.fit(X, y, spec, params)

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
    gain, j, left = best
    root = model.trees[0].nodes[0]
    assert root.feature == j
    assert np.array_equal(X[:, root.feature] <= root.threshold, left)
    # leaf weights bit-identical to the oracle's closed form
    assert model.trees[0].nodes[root.left].weight == \
        tree.leaf_weight(g[left].sum(), h[left].sum(), 0.0)
    assert model.trees[0].nodes[root.right].weight == \
        tree.leaf_weight(g[~left].sum(), h[~left].sum(), 0.0)
    assert root.gain == pytest.approx(gain, rel=1e-9)
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. monotone training for every loss kind
# ---------------------------------------------------------------------------

def test_criterion_05_monotone_training():
    rng = np.random.default_rng(SEED + 3)
    n = 2000
    X = rng.uniform(-1, 1, size=(n, 3))
    theta_c = 0.3 - 1.2 * X[:, 0] + 0.7 * X[:, 1]
    u_z = float(np.log1p(200.0))
    cases = {
        "poisson": (sample_dgpd(theta_c, 8.0, rng), losses.LossSpec(kind="poisson")),
        "dgpd": (sample_dgpd(theta_c, 5.0, rng),
                 losses.LossSpec(kind="dgpd", alpha=5.0)),
        "squared_log": (np.expm1(np.abs(1.0 + X[:, 0]
                                        + 0.5 * rng.normal(size=n))),
                        losses.LossSpec(kind="squared_log")),
        "trgamma": (sample_trgamma(0.5 + 0.8 * X[:, 0], 1.2, u_z, n, rng),
                    losses.LossSpec(kind="trgamma", k_shape=1.2, u_trunc=u_z)),
        "gpd": (sample_gpd(np.exp(1.0 + 0.8 * X[:, 1]), 0.8, n, rng) + 1e-9,
                losses.LossSpec(kind="gpd", xi=0.8, kappa=0.5)),
        "cross_entropy": (rng.integers(0, 3, size=n),
                          losses.LossSpec(kind="cross_entropy")),
    }
    params = booster.TrainParams(n_trees=200, learning_rate=0.3, eta=0.0,
                                 max_leaves=6, lambda_reg=1.0, seed=1)
    for kind, (y, spec) in cases.items():
        m = booster.fit(X, y, spec, params)
        diffs = np.diff(m.train_losses)
        tol = 1e-9 * np.maximum(1.0, np.abs(np.asarray(m.train_losses[:-1])))
        assert np.all(diffs <= tol), f"training loss increased for {kind}"


# ---------------------------------------------------------------------------
# 6. simulation recovery
# ---------------------------------------------------------------------------

def test_criterion_06a_dgpd_simulation_recovery():
    t0 = time.perf_counter()
    alpha = 5.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        n = 2000
        X = rng.uniform(-1, 1, size=(2 * n, 2))
        theta = 0.5 - 2.2 * X[:, 0] + 1.6 * X[:, 1]
        y = sample_dgpd(theta, alpha, rng)
        Xtr, ytr, Xte, yte = X[:n], y[:n], X[n:], y[n:]
        spec = losses.LossSpec(kind="dgpd", alpha=alpha)
        m = booster.fit(Xtr, ytr, spec,
                        booster.TrainParams(n_trees=150, learning_rate=0.1,
                                            max_leaves=8, seed=seed))
        const = booster.initial_estimate(ytr, spec)
        nll_model = losses.dgpd_eval(yte, booster.predict_raw(m, Xte), alpha)[0].mean()
        nll_const = losses.dgpd_eval(yte, np.full(n, const), alpha)[0].mean()
        assert nll_model <= 0.9 * nll_const, f"seed {seed}: {nll_model / nll_const:.3f}"
    assert time.perf_counter() - t0 < 120.0


def _generate_mixture_sizes(n, rng, u=200.0, xi=0.8, kappa=0.5, k=1.2):
    X = rng.uniform(-1, 1, size=(n, 2))
    p_zero = special.expit(0.2 - 3.0 * X[:, 0])
    is_pos = rng.uniform(size=n) >= p_zero
    q_tail = special.expit(-0.8 + 3.0 * X[:, 1])
    ba = np.zeros(n)
    pos = np.flatnonzero(is_pos)
    tail = pos[rng.uniform(size=pos.size) < q_tail[pos]]
    bulk = np.setdiff1d(pos, tail)
    z = sample_trgamma(0.6 + 1.3 * X[bulk, 0] - 0.8 * X[bulk, 1], k,
                       float(np.log1p(u)), bulk.size, rng)
    ba[bulk] = np.expm1(z)
    sigma = xi * np.exp(4.0 + 1.5 * X[tail, 1]) / losses.gpd_scale_factor(xi, kappa)
    ba[tail] = u + sample_gpd(sigma, xi, tail.size, rng)
    return X, ba


def _fit_mixture_on(Xtr, btr, seed, n_trees=150):
    params = booster.TrainParams(n_trees=n_trees, learning_rate=0.1, max_leaves=8,
                                 seed=seed)
    return mixture.fit_mixture(Xtr, btr, u=200.0, xi=0.8, kappa=0.5, k_shape=1.2,
                               classifier_params=params, bulk_params=params,
                               tail_params=params)


def test_criterion_06b_mixture_simulation_recovery():
    t0 = time.perf_counter()
    spec = evaluate.ThresholdScoreSpec(
        np.concatenate([[0.0], np.geomspace(1.0, 20000.0, 27)]))
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        Xtr, btr = _generate_mixture_sizes(2000, rng)
        Xte, bte = _generate_mixture_sizes(2000, rng)
        m = _fit_mixture_on(Xtr, btr, seed)
        probs = mixture.threshold_probs(m, Xte, spec.thresholds)
        s_model = evaluate.threshold_score(probs, bte, spec)
        # unconditional baseline: empirical CDF of the training sizes
        base = (btr[:, None] <= spec.thresholds[None, :]).mean(axis=0)
        s_base = evaluate.threshold_score(np.tile(base, (bte.size, 1)), bte, spec)
        assert s_model <= 0.9 * s_base, f"seed {seed}: {s_model / s_base:.3f}"
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 7. mixture CDF against brute-force simulation
# ---------------------------------------------------------------------------

def test_criterion_07_mixture_cdf_calibration():
    rng = np.random.default_rng(SEED + 4)
    Xtr, btr = _generate_mixture_sizes(2000, rng)
    m = _fit_mixture_on(Xtr, btr, seed=0, n_trees=60)
    thresholds = [0.0, 2.0, 10.0, 40.0, 100.0, 199.0, 200.0, 500.0, 2000.0, 10000.0]
    for i, x in enumerate(([0.4, -0.3], [-0.6, 0.5], [0.0, 0.0])):
        xrow = np.array([x])
        draws = oracles.sample(m, xrow, n_draws=1_000_000, seed=900 + i)
        for b in thresholds:
            emp = float((draws <= b).mean())
            ana = float(mixture.cdf(m, xrow, b)[0])
            assert abs(emp - ana) < 0.005, f"x={x} b={b}: |{emp:.4f}-{ana:.4f}|"


# ---------------------------------------------------------------------------
# 8. fold generator statistics
# ---------------------------------------------------------------------------

def _single_cell_dataset(n_months):
    cells = np.array([[-100.0, 40.0]])
    return GridDataset(
        cells=cells,
        cell_index=np.zeros(n_months, dtype=int),
        year=np.repeat(2001, n_months),
        month=np.tile(np.arange(3, 10), math.ceil(n_months / 7))[:n_months],
        cnt=np.zeros(n_months),
        ba=np.zeros(n_months),
        covariates=np.empty((n_months, 0)),
        covariate_names=[],
    )


def _grid_for_folds(nx=5, ny=5, n_months=6):
    coords = sorted((-100.0 + 0.5 * i, 40.0 + 0.5 * j)
                    for j in range(ny) for i in range(nx))
    cells = np.array(coords)
    n_cells = len(cells)
    rows = n_cells * n_months
    return GridDataset(
        cells=cells,
        cell_index=np.tile(np.arange(n_cells), n_months),
        year=np.repeat(2001, rows),
        month=np.repeat(np.arange(3, 3 + n_months), n_cells),
        cnt=np.zeros(rows),
        ba=np.zeros(rows),
        covariates=np.empty((rows, 0)),
        covariate_names=[],
    )


def test_criterion_08_fold_generator():
    # masking rate: one cell per month makes every key independent, so the
    # binomial standard error is exact
    months = 7
    ds1 = _single_cell_dataset(months)
    params = spatialcv.MaskModelParams(beta0_cnt=-0.7, beta0_ba=-0.7, beta=0.42,
                                       sigma_gp=1.0, phi=0.25, r=2.0)
    n_folds = 4000
    folds = spatialcv.generate_folds(ds1, params, n_folds=n_folds, seed=SEED)
    n_keys = months * n_folds
    rate = int(folds.masks[:, 0].sum()) / n_keys
    rng = np.random.default_rng(SEED + 5)
    mu = params.beta0_cnt + rng.normal(
        scale=math.sqrt(params.sigma_gp ** 2 + params.phi), size=100_000)
    analytic = float(special.expit(mu).mean())
    se = math.sqrt(analytic * (1 - analytic) / n_keys)
    mc_se = math.sqrt(analytic * (1 - analytic) / mu.size)
    assert abs(rate - analytic) < 3 * se + 3 * mc_se

    # inter-variable mask correlation strictly increasing in beta (phi = 0)
    ds = _grid_for_folds()
    corrs = []
    for beta in (0.0, 0.42, 1.0):
        p = spatialcv.MaskModelParams(beta=beta, sigma_gp=1.5, phi=0.0, r=2.0)
        fs = spatialcv.generate_folds(ds, p, n_folds=40, seed=SEED + 6)
        xs = fs.masks[:, 0].ravel().astype(float)  # fold-major, rows in order
        ys = fs.masks[:, 1].ravel().astype(float)
        corrs.append(float(np.corrcoef(xs, ys)[0, 1]))
    assert abs(corrs[0]) < 0.05
    assert corrs[0] < corrs[1] < corrs[2]

    # Matern covariance of simulated fields, 2000 replicates, 3 SEs
    p = spatialcv.MaskModelParams(sigma_gp=1.2, r=2.0, nu=1.0)
    draws = spatialcv.simulate_field(ds.cells, p, seed=SEED + 7, n_draws=2000)
    a = 0
    b = next(i for i, c in enumerate(ds.cells)
             if tuple(c) == (ds.cells[0, 0], ds.cells[0, 1] + 0.5))
    emp = float(np.cov(draws[:, a], draws[:, b])[0, 1])
    expect = spatialcv.matern_cov(0.5, 2.0, 1.2, 1.0)
    var = p.sigma_gp ** 2
    se = math.sqrt((var * var + expect ** 2) / (draws.shape[0] - 1))
    assert abs(emp - expect) < 3 * se

    # correlation at the empirical range is approximately 0.1
    corr_at_range = spatialcv.matern_cov(2.0, 2.0, 1.0, 1.0)
    assert 0.05 < corr_at_range < 0.2


# ---------------------------------------------------------------------------
# 9. one-standard-error rule and partial dependence
# ---------------------------------------------------------------------------

def test_criterion_09_one_se_rule_and_pdp():
    # hand-worked selection: means {10, 8, 7, 7.1, 7.4}, SE at the minimum
    # 0.5, so the bound is 7.5 and the largest admissible count wins
    means = np.array([10.0, 8.0, 7.0, 7.1, 7.4])
    offsets = 0.5 * np.array([1, 1, 1, -1, 1])
    cv = evaluate.CvResult(checkpoints=[10, 20, 30, 40, 50],
                           scores=np.stack([means - offsets, means + offsets]))
    assert evaluate.one_se_select(cv) == 50
    assert evaluate.one_se_select(cv, direction="smallest") == 30

    # PDP of an additive two-stump model
    def stump(feature, threshold, w_left, w_right):
        return tree.Tree([
            tree.TreeNode(id=0, feature=feature, threshold=threshold,
                          default_left=True, left=1, right=2, gain=1.0, cover=2.0),
            tree.TreeNode(id=1, weight=w_left, cover=1.0),
            tree.TreeNode(id=2, weight=w_right, cover=1.0),
        ])

    model = booster.BoostedModel(
        loss=losses.LossSpec(kind="squared_log"),
        base_score=0.0,
        trees=[stump(0, 0.0, -1.0, 1.0), stump(1, 0.5, 2.0, 5.0)],
        params=booster.TrainParams(learning_rate=1.0),
        feature_names=["x0", "x1"],
    )
    rng = np.random.default_rng(SEED + 8)
    n, n_sub = 4000, 500
    X = rng.normal(size=(n, 2))
    grid = np.array([-1.0, 1.0])
    res = interpret.partial_dependence(model, X, [0], grid, n_sub=n_sub, seed=3)
    b_vals = np.where(X[:, 1] <= 0.5, 2.0, 5.0)
    closed = np.where(grid <= 0.0, -1.0, 1.0) + b_vals.mean()
    # subsampling without replacement: finite-population-corrected SE
    se = b_vals.std() / math.sqrt(n_sub) * math.sqrt((n - n_sub) / (n - 1))
    assert np.all(np.abs(res.estimate - closed) < 3 * se)

    # zero Monte Carlo error when every feature is in the set of interest
    full = interpret.partial_dependence(model, X, [0, 1],
                                        np.array([[0.5, 0.0], [-0.5, 1.0]]))
    np.testing.assert_allclose(full.estimate, [1.0 + 2.0, -1.0 + 5.0])
    np.testing.assert_allclose(full.lo, full.estimate)
    np.testing.assert_allclose(full.hi, full.estimate)


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def _run_cli(workdir, *argv):
    proc = subprocess.run(
        [sys.executable, "-m", "evtboost.cli", "--runlog", "runs.log", *argv],
        cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    import json

    (tmp_path / "run.ini").write_text("""
[data]
train = data.csv

[loss]
kind = dgpd
alpha = 5.0

[train]
n_trees = 4
max_leaves = 4
seed = 3

[cv]
sigma_gp = 1.0
phi = 0.1
range = 1.5

[tune]
learning_rate = 0.05, 0.3
""".strip() + "\n", encoding="utf-8")
    (tmp_path / "sizes.ini").write_text("""
[data]
train = sizes.csv

[loss]
u = 200.0
xi = 0.8
kappa = 0.5
k_shape = 1.2

[train]
n_trees = 3
max_leaves = 4
seed = 3
""".strip() + "\n", encoding="utf-8")
    (tmp_path / "thresholds.txt").write_text("0\n50\n500\n", encoding="utf-8")

    def run_all(tag):
        out = {}
        _run_cli(tmp_path, "synth", "--kind", "counts", "--nx", "4", "--ny", "4",
                 "--years", "1", "--mask-rate", "0.2", "--seed", "5",
                 "--out", "data.csv")
        out["synth"] = (tmp_path / "data.csv").read_bytes()
        _run_cli(tmp_path, "train", "--config", "run.ini", "--loss", "dgpd",
                 "--out", f"model_{tag}.json")
        out["train"] = (tmp_path / f"model_{tag}.json").read_bytes()
        _run_cli(tmp_path, "predict", "--model", f"model_{tag}.json",
                 "--data", "data.csv", "--out", f"preds_{tag}.csv")
        out["predict"] = (tmp_path / f"preds_{tag}.csv").read_bytes()
        _run_cli(tmp_path, "cvfolds", "--config", "run.ini", "--n-folds", "2",
                 "--seed", "7", "--out", f"folds_{tag}.csv")
        out["cvfolds"] = (tmp_path / f"folds_{tag}.csv").read_bytes()
        _run_cli(tmp_path, "tune", "--config", "run.ini", "--folds",
                 f"folds_{tag}.csv", "--max-iters", "2", "--seed", "9",
                 "--out", f"tune_{tag}.csv")
        out["tune"] = (tmp_path / f"tune_{tag}.csv").read_bytes()

        # mixture path: three components trained separately, then composed
        _run_cli(tmp_path, "synth", "--kind", "sizes", "--nx", "5", "--ny", "5",
                 "--years", "2", "--seed", "6", "--out", "sizes.csv")
        for loss_kind, fname in (("cross_entropy", "cls"), ("trgamma", "bulk"),
                                 ("gpd", "tail")):
            _run_cli(tmp_path, "train", "--config", "sizes.ini", "--loss",
                     loss_kind, "--out", f"{fname}_{tag}.json")
        manifest = tmp_path / f"mix_{tag}.json"
        manifest.write_text(json.dumps({
            "format_version": 1, "kind": "mixture", "threshold": 200.0,
            "classifier": f"cls_{tag}.json", "bulk": f"bulk_{tag}.json",
            "tail": f"tail_{tag}.json"}, sort_keys=True) + "\n", encoding="utf-8")
        _run_cli(tmp_path, "predict", "--model", f"mix_{tag}.json",
                 "--data", "sizes.csv", "--thresholds", "thresholds.txt",
                 "--out", f"mixpred_{tag}.csv")
        out["predict_mixture"] = (tmp_path / f"mixpred_{tag}.csv").read_bytes()
        out["score"] = _run_cli(tmp_path, "score", "--pred", f"mixpred_{tag}.csv",
                                "--data", "sizes.csv", "--response", "ba")
        _run_cli(tmp_path, "pdp", "--model", f"model_{tag}.json", "--data",
                 "data.csv", "--features", "x1", "--points", "4", "--seed", "2",
                 "--out", f"pdp_{tag}.csv")
        out["pdp"] = (tmp_path / f"pdp_{tag}.csv").read_bytes()
        _run_cli(tmp_path, "importance", "--model", f"model_{tag}.json",
                 "--metric", "gain", "--out", f"imp_{tag}.csv")
        out["importance"] = (tmp_path / f"imp_{tag}.csv").read_bytes()
        return out

    first = run_all("a")
    second = run_all("b")
    for command in first:
        assert first[command] == second[command], f"{command} output differs"
