"""Reference functions that only tests call: Monte Carlo draws from a size
mixture, its component probabilities, the dGPD pmf and a tree's leaf
count.  The criteria that use them check the package's closed forms
(mixture CDFs, dGPD survival, leaf caps) against these."""

import numpy as np

from evtboost import booster as B
from evtboost import losses as L
from evtboost import synth
from evtboost.dataset import align_features
from evtboost.errors import DataError
from evtboost.mixture import MixtureModel, tail_sigma


def component_probs(m: MixtureModel, X, names=None) -> np.ndarray:
    """Softmax class probabilities (n, 3) of (zero, bulk, tail)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    raw = B.predict_raw(m.classifier, align_features(X, names, m.classifier.feature_names))
    return L.softmax(raw)


def sample(m: MixtureModel, x, n_draws: int, seed: int, names=None) -> np.ndarray:
    """Monte Carlo draws of BA at a single covariate vector.

    Components are drawn by inverse transform with :mod:`synth`'s samplers:
    the bulk through the inverse regularized incomplete gamma on the
    truncated range, the tail through the GPD quantile function.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != 1:
        raise DataError("sample draws at a single covariate vector")
    rng = np.random.default_rng(seed)
    p = component_probs(m, x, names)[0]
    comp = rng.choice(3, size=n_draws, p=p)
    out = np.zeros(n_draws)

    n_bulk = int((comp == 1).sum())
    if n_bulk:
        theta = float(B.predict_raw(m.bulk, align_features(x, names, m.bulk.feature_names))[0])
        out[comp == 1] = np.expm1(synth.sample_trgamma(theta, m.k_shape, np.log1p(m.u),
                                                       n_bulk, rng))

    n_tail = int((comp == 2).sum())
    if n_tail:
        theta = B.predict_raw(m.tail, align_features(x, names, m.tail.feature_names))
        sigma = float(tail_sigma(m, theta)[0])
        out[comp == 2] = m.u + synth.sample_gpd(sigma, m.xi, n_tail, rng)
    return out


def dgpd_pmf(y, theta, alpha):
    """Probability mass (1 + e^theta y)^(-alpha) - (1 + e^theta (y+1))^(-alpha)."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    log_s_y, _, _, _, D = L._dgpd_pieces(y, theta, alpha)
    return np.exp(log_s_y) * D


def n_leaves(t) -> int:
    """Leaves of a :class:`~evtboost.tree.Tree`."""
    return sum(1 for n in t.nodes if n.is_leaf)
