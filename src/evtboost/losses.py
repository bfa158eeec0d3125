"""Differentiable loss functions with analytic gradients and hessians.

Every loss is a negative log-likelihood (up to additive constants) in a
single real score ``theta`` that parameterizes the conditional response
distribution:

* ``poisson``       -- theta is the log mean of a Poisson count.
* ``dgpd``          -- theta scales a discrete generalized Pareto pmf,
                       p(y) = (1 + e^theta y)^(-alpha) - (1 + e^theta (y+1))^(-alpha).
* ``trgamma``       -- theta is the log rescaled scale of a gamma density
                       right-truncated at ``u_trunc``.
* ``gpd``           -- theta is the log kappa-level quantile of generalized
                       Pareto excesses with fixed shape ``xi``.
* ``cross_entropy`` -- theta is a vector of class scores mapped through
                       softmax.
* ``squared_log``   -- squared error on log(1 + y), i.e. theta predicts
                       log(1 + y).

The kind fixes what a loss trains on: :attr:`LossSpec.response` names the
response column and :func:`training_rows` picks each kind's rows and target
from it.  Each loss is a vectorized function ``<name>_eval`` returning
per-row ``(value, grad, hess)`` arrays; :func:`evaluate_loss` dispatches on
a :class:`LossSpec`.  All powers of the form (1+x)^(-a) go through
log1p/expm1-style identities so that values stay finite far into the tails;
genuine underflow (a pmf that rounds to zero) raises
:class:`~evtboost.errors.NumericalError` instead of being clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dataset import row_blocks
from .errors import DataError, NumericalError
from .tree import is_finite_number

N_CLASSES = 3  # cross_entropy classes: the zero / bulk / tail size classes


@dataclass
class LossSpec:
    """A loss identity plus the fixed hyperparameters it needs.

    Only the fields relevant to ``kind`` are read.  ``alpha`` is the dGPD
    tail parameter (alpha = 1/xi of the underlying GPD), ``xi`` the GPD
    shape, ``kappa`` the quantile level of the GPD reparameterization,
    ``k_shape`` the gamma shape and ``u_trunc`` the gamma right-truncation
    point.  A ``cross_entropy`` loss has :data:`N_CLASSES` classes.
    """

    kind: str
    alpha: float = 1.0
    xi: float = 1.0
    kappa: float = 0.5
    k_shape: float = 1.0
    u_trunc: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise DataError(f"unknown loss kind {self.kind!r}")
        # each test is written so that NaN fails it
        for name in ("alpha", "xi", "k_shape", "u_trunc"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DataError(f"{name} must be finite and > 0")
        if not 0.0 < self.kappa < 1.0:
            raise DataError("kappa must lie in (0, 1)")

    @property
    def multiclass(self) -> bool:
        return self.kind == "cross_entropy"

    @property
    def response(self) -> str:
        """The response this kind models: ``"cnt"`` for the count losses,
        ``"ba"`` for the size losses."""
        return "cnt" if self.kind in ("poisson", "dgpd") else "ba"

    @property
    def n_scores(self) -> int:
        """Scores per row: :data:`N_CLASSES` for cross_entropy, else 1."""
        return N_CLASSES if self.multiclass else 1

    def hyperparams(self) -> dict:
        """The hyperparameters actually read by this loss kind (for serialization)."""
        out = {"kind": self.kind}
        out.update((name, getattr(self, name)) for name in _KINDS[self.kind][1])
        if self.multiclass:
            out["n_classes"] = N_CLASSES
        return out


def loss_spec_from_dict(doc: dict) -> LossSpec:
    """Rebuild a LossSpec from its serialized object: a string ``kind`` and
    finite numbers, with :data:`N_CLASSES` classes if any are given."""
    if not isinstance(doc, dict) or not isinstance(doc.get("kind"), str):
        raise DataError(f"loss must be an object with a string kind, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(LossSpec)} - {"n_classes"}
    if unknown:
        raise DataError(f"unknown loss fields: {sorted(unknown)}")
    doc = dict(doc)
    n_classes = doc.pop("n_classes", N_CLASSES)
    if n_classes != N_CLASSES:
        raise DataError(f"cross_entropy model has {n_classes!r} classes; "
                        f"predict writes the {N_CLASSES} size classes")
    for key, val in doc.items():
        if key != "kind" and not is_finite_number(val):
            raise DataError(f"loss {key} must be a finite number, got {val!r}")
    return LossSpec(**doc)


def size_class(ba, u: float) -> np.ndarray:
    """Size-component labels: 0 for no fire, 1 for (0, u], 2 for > u."""
    return np.where(ba == 0, 0, np.where(ba <= u, 1, 2)).astype(int)


def training_rows(kind: str, y, u: float):
    """(row mask, target) of the observations a loss kind trains on, from its
    response column ``y`` (NaN = masked): trgamma takes log(1+y) for
    0 < y <= u, gpd the excesses y - u above u, cross_entropy the
    :func:`size_class` of every observed size, the others every observed y."""
    obs = ~np.isnan(y)
    if kind == "trgamma":
        rows = obs & (y > 0) & (y <= u)
        return rows, np.log1p(y[rows])
    if kind == "gpd":
        rows = obs & (y > u)
        return rows, y[rows] - u
    if kind == "cross_entropy":
        return obs, size_class(y[obs], u)
    return obs, y[obs]


# ---------------------------------------------------------------------------
# Poisson
# ---------------------------------------------------------------------------

def poisson_eval(y, theta):
    """Poisson deviance-style loss: y*log(y/e^theta) - y + e^theta (0*log0 = 0)."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(y < 0):
        raise DataError("poisson loss requires y >= 0")
    mu = np.exp(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ylogy = np.where(y > 0, y * np.log(y), 0.0)
    value = ylogy - y * theta - y + mu
    return value, mu - y, mu


# ---------------------------------------------------------------------------
# Discrete generalized Pareto
# ---------------------------------------------------------------------------

def _dgpd_pieces(y, theta, alpha):
    """Stable building blocks for the dGPD pmf at integers y and y+1.

    Returns (log_s_y, w_y, w_y1, E, D) where s_k = (1 + e^theta k)^(-alpha),
    w_k = e^theta k / (1 + e^theta k), E = s_{y+1}/s_y and D = 1 - E, so
    that pmf = s_y * D.
    """
    from scipy import special
    with np.errstate(divide="ignore"):  # log(0) at y = 0 is handled below
        t_y = theta + np.log(y)
    t_y1 = theta + np.log(y + 1.0)
    # softplus(t) = log(1 + e^t); exact 0 at y = 0 where the term is absent
    sp_y = np.where(y > 0, np.logaddexp(0.0, t_y), 0.0)
    sp_y1 = np.logaddexp(0.0, t_y1)
    log_s_y = -alpha * sp_y
    w_y = np.where(y > 0, special.expit(t_y), 0.0)
    w_y1 = special.expit(t_y1)
    d = -alpha * (sp_y1 - sp_y)  # log(s_{y+1}/s_y) <= 0
    E = np.exp(d)
    D = -np.expm1(d)
    return log_s_y, w_y, w_y1, E, D


def dgpd_eval(y, theta, alpha):
    """Discrete GPD negative log pmf, gradient and hessian w.r.t. theta."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if alpha <= 0:
        raise DataError("dgpd loss requires alpha > 0")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DataError("dgpd loss requires integer y >= 0")

    log_s_y, w_y, w_y1, E, D = _dgpd_pieces(y, theta, alpha)
    log_pmf = log_s_y + np.log(D, out=np.full_like(D, -np.inf), where=D > 0)
    bad = ~np.isfinite(log_pmf)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            f"dGPD pmf underflows to 0 at y={y.flat[i]:g}, theta={theta.flat[i]:g}, "
            f"alpha={alpha:g}"
        )
    # grad = -p'/p, hess = (p'/p)^2 - p''/p, with p'/p and p''/p formed from
    # the same stable ratios (no pmf in a denominator).
    ratio1 = alpha * (w_y - E * w_y1) / D          # = -p'/p
    ratio2 = alpha * (alpha + 1.0) * (w_y * w_y - E * w_y1 * w_y1) / D - ratio1  # = p''/p
    value = -log_pmf
    grad = ratio1
    hess = ratio1 * ratio1 - ratio2
    return value, grad, hess


def dgpd_survival(k, theta, alpha):
    """P(Y >= k) = (1 + e^theta k)^(-alpha) for integer k >= 0."""
    k = np.asarray(k, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore"):
        t = theta + np.log(k)
    sp = np.where(k > 0, np.logaddexp(0.0, t), 0.0)
    return np.exp(-alpha * sp)


def dgpd_mean(theta, alpha: float) -> float | np.ndarray:
    """Predicted mean sum_{k>=1} (1 + e^theta k)^(-alpha) for alpha > 1.

    Closed form through the Hurwitz zeta function (DLMF 25.11):
    sum_{k>=1} (1 + c k)^(-alpha) = c^(-alpha) zeta(alpha, 1 + 1/c) with
    c = e^theta, a :func:`dataset.row_blocks` block at a time.  A non-finite
    mean (a NaN score, or overflow of c^(-alpha) at very negative theta)
    raises :class:`~evtboost.errors.NumericalError`.
    """
    from scipy import special
    if alpha <= 1.0:
        raise DataError("dGPD mean does not exist for alpha <= 1")
    theta_arr = np.asarray(theta, dtype=float)
    t = theta_arr.ravel()
    mean = np.empty(t.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in row_blocks(t.size, 1):
            mean[rows] = np.exp(-alpha * t[rows]) * special.zeta(alpha, 1.0 + np.exp(-t[rows]))
    mean = mean.reshape(theta_arr.shape)
    bad = ~np.isfinite(mean)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalError(
            f"dGPD mean is not finite at theta={theta_arr.flat[i]:g}, alpha={alpha:g}"
        )
    if mean.ndim == 0:
        return float(mean)
    return mean


# ---------------------------------------------------------------------------
# Right-truncated gamma
# ---------------------------------------------------------------------------

def trgamma_eval(y, theta, k, u):
    """Truncated-gamma loss k*theta + y*k*e^(-theta) + log gamma_lower(k, k*u*e^(-theta)).

    Derivatives use the closed forms of the incomplete-gamma terms: with
    s = k*u*e^(-theta), d(gamma)/d(theta) = -s^k e^(-s) and
    d2(gamma)/d(theta)2 = (k - s) s^k e^(-s).
    """
    from scipy import special
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if k <= 0 or u <= 0:
        raise DataError("trgamma loss requires k > 0 and u > 0")
    if np.any(y <= 0) or np.any(y > u):
        i = int(np.argmax((y <= 0) | (y > u)))
        raise DataError(f"trgamma loss requires 0 < y <= u; offending y={y.flat[i]:g}")
    inv_mu = np.exp(-theta)
    s = k * u * inv_mu
    reg = special.gammainc(k, s)  # P(k, s) = gamma(k, s) / Gamma(k)
    if np.any(reg <= 0.0):
        i = int(np.argmax(reg <= 0.0))
        raise NumericalError(
            f"truncated-gamma normalizer underflows at theta={theta.flat[i]:g}"
        )
    log_gamma_lower = special.gammaln(k) + np.log(reg)
    value = k * theta + y * k * inv_mu + log_gamma_lower
    # R1 = gamma'(theta)/gamma = -exp(k log s - s - log gamma_lower)
    r1 = -np.exp(k * np.log(s) - s - log_gamma_lower)
    grad = k - y * k * inv_mu + r1
    hess = y * k * inv_mu - (k - s) * r1 - r1 * r1
    return value, grad, hess


def trgamma_cdf(y, theta, k, u):
    """CDF of the right-truncated gamma on (0, u] at its log-scale score theta."""
    from scipy import special
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    s = k * np.clip(y, 0.0, u) * np.exp(-theta)
    s_trunc = k * u * np.exp(-theta)
    denom = special.gammainc(k, s_trunc)
    if np.any(denom <= 0.0):
        raise NumericalError("truncated-gamma normalizer underflows in cdf")
    return np.where(y <= 0, 0.0, np.where(y >= u, 1.0, special.gammainc(k, s) / denom))


# ---------------------------------------------------------------------------
# Generalized Pareto with quantile reparameterization
# ---------------------------------------------------------------------------

def gpd_scale_factor(xi: float, kappa: float) -> float:
    """(1-kappa)^(-xi) - 1, the bridge between theta and the GPD scale.

    The kappa-level quantile of GPD(sigma, xi) is sigma * this / xi, so
    theta = log-quantile implies sigma = xi * e^theta / this.
    """
    if not 0.0 < kappa < 1.0:
        raise DataError("kappa must lie in (0, 1)")
    if xi <= 0:
        raise DataError("xi must be > 0")
    return float(np.expm1(-xi * np.log1p(-kappa)))


def gpd_eval(y, theta, xi, kappa):
    """GPD excess loss with theta modelling the log kappa-quantile."""
    from scipy import special
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(y <= 0):
        i = int(np.argmax(y <= 0))
        raise DataError(f"gpd loss requires y > 0; offending y={y.flat[i]:g}")
    c = gpd_scale_factor(xi, kappa)
    log_ay = np.log(c) + np.log(y) - theta  # log(A y), A = c e^(-theta)
    softplus = np.logaddexp(0.0, log_ay)    # log(1 + A y)
    value = (xi + 1.0) / xi * softplus + np.log(xi) + theta - np.log(c)
    r = special.expit(log_ay)               # A y / (1 + A y)
    grad = 1.0 - (xi + 1.0) / xi * r
    hess = (xi + 1.0) / xi * r * (1.0 - r)
    return value, grad, hess


def gpd_cdf_excess(x, sigma, xi):
    """Standard GPD CDF 1 - (1 + xi x / sigma)^(-1/xi) for excesses x >= 0."""
    x = np.asarray(x, dtype=float)
    return -np.expm1(-np.log1p(xi * np.maximum(x, 0.0) / sigma) / xi)


# ---------------------------------------------------------------------------
# Weighted cross-entropy (softmax)
# ---------------------------------------------------------------------------

def softmax(scores):
    """Row-wise softmax, shifted for stability."""
    z = np.asarray(scores, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_eval(y, theta):
    """Multiclass cross-entropy on one-hot rows.

    ``y`` and ``theta`` have shape (n, C); returns per-row value (n,), grad
    (n, C) and the diagonal hessian (n, C).
    """
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if y.shape != theta.shape:
        raise DataError("cross_entropy y/theta shape mismatch")
    row_sums = y.sum(axis=-1)
    if np.any(row_sums != 1.0) or np.any((y != 0.0) & (y != 1.0)):
        raise DataError("cross_entropy requires one-hot rows")
    zmax = theta.max(axis=-1, keepdims=True)
    logsumexp = zmax[..., 0] + np.log(np.exp(theta - zmax).sum(axis=-1))
    value = logsumexp - (y * theta).sum(axis=-1)
    p = softmax(theta)
    return value, p - y, p * (1.0 - p)


# ---------------------------------------------------------------------------
# Squared loss on log(1 + y)
# ---------------------------------------------------------------------------

def squared_log_eval(y, theta):
    """(log(1+y) - theta)^2 / 2 with unit hessian."""
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(y < 0):
        raise DataError("squared_log loss requires y >= 0")
    z = np.log1p(y)
    resid = theta - z
    return 0.5 * resid * resid, resid, np.ones_like(resid)


# ---------------------------------------------------------------------------
# Dispatch for the booster
# ---------------------------------------------------------------------------

# kind -> (its loss function, the LossSpec fields that function takes after
# y and theta, in argument order)
_KINDS = {
    "poisson": (poisson_eval, ()),
    "dgpd": (dgpd_eval, ("alpha",)),
    "trgamma": (trgamma_eval, ("k_shape", "u_trunc")),
    "gpd": (gpd_eval, ("xi", "kappa")),
    "cross_entropy": (cross_entropy_eval, ()),
    "squared_log": (squared_log_eval, ()),
}
LOSS_KINDS = tuple(_KINDS)


def evaluate_loss(spec: LossSpec, y, theta):
    """Per-row (value, grad, hess) arrays for any loss kind.

    For ``cross_entropy``, ``y``/``theta`` are (n, C); other kinds take
    1-d arrays.
    """
    evaluate, names = _KINDS[spec.kind]
    return evaluate(y, theta, *(getattr(spec, name) for name in names))
