"""Three-component burned-area model: zero / bulk / tail.

A 3-class softmax classifier carries the component probabilities; positive
sizes up to the threshold ``u`` follow a right-truncated gamma fitted on
log(1+size) (truncation log(1+u) in transformed space); sizes above ``u``
follow a generalized Pareto on the excesses.  The pieces compose into the
full conditional CDF

    P(BA <= b | x) = p1 + p2 * F_bulk(b | x) + p3 * F_tail(b | x),

with F_bulk back-transformed through the monotone log(1+.) map (so
F_bulk(u) = 1 by construction) and F_tail supported on (u, inf).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import booster as B
from . import losses as L
from .errors import DataError, open_text, publish
from .dataset import align_features, row_blocks

MANIFEST_VERSION = 1
COMPONENTS = ("classifier", "bulk", "tail")  # the MixtureModel fields a manifest names


@dataclass
class MixtureModel:
    classifier: B.BoostedModel
    bulk: B.BoostedModel
    tail: B.BoostedModel
    u: float = 200.0

    def __post_init__(self):
        if self.classifier.loss.kind != "cross_entropy":
            raise DataError("mixture classifier must be 3-class cross_entropy")
        if self.bulk.loss.kind != "trgamma":
            raise DataError("mixture bulk model must use the trgamma loss")
        if self.tail.loss.kind != "gpd":
            raise DataError("mixture tail model must use the gpd loss")
        if self.u <= 0:
            raise DataError("mixture threshold must be > 0")
        if abs(self.bulk.loss.u_trunc - np.log1p(self.u)) > 1e-9:
            raise DataError("bulk truncation must equal log(1+u) of the mixture threshold")

    @property
    def xi(self) -> float:
        return self.tail.loss.xi

    @property
    def kappa(self) -> float:
        return self.tail.loss.kappa

    @property
    def k_shape(self) -> float:
        return self.bulk.loss.k_shape


def tail_sigma(m: MixtureModel, theta) -> np.ndarray:
    """GPD scale recovered from the tail raw score via the quantile identity."""
    c = L.gpd_scale_factor(m.xi, m.kappa)
    return m.xi * np.exp(theta) / c


def raw_scores(m: MixtureModel, X, names=None) -> tuple[np.ndarray, ...]:
    """Raw scores of the classifier, bulk and tail models, one pass each."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return tuple(B.predict_raw(part, align_features(X, names, part.feature_names))
                 for part in (m.classifier, m.bulk, m.tail))


def threshold_probs(m: MixtureModel, raw, thresholds) -> np.ndarray:
    """Matrix of P(BA <= b_j | x_i) from the (classifier, bulk, tail) raw
    scores of :func:`raw_scores`, or of a block of their rows;
    ``thresholds`` is a 1-d array of b >= 0, sorted ascending.

    Every term is evaluated on the (n, J) grid, a :func:`dataset.row_blocks`
    block of rows at a time: below ``u`` the tail CDF is exactly 0, and the
    bulk CDF is exactly 0 at b = 0 and 1 from ``u`` on, so the incomplete
    gamma runs only at the thresholds strictly inside (0, u).
    """
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.all(thresholds >= 0):
        raise DataError("cdf threshold must be >= 0")
    if np.any(np.diff(thresholds) < 0):
        raise DataError("thresholds must be sorted ascending")
    cls, bulk, tail = raw
    b = thresholds[None, :]
    inside = (thresholds > 0) & (thresholds < m.u)
    y_inside = np.log1p(thresholds[inside])[None, :]
    out = np.empty((cls.shape[0], thresholds.size))
    for rows in row_blocks(len(out), thresholds.size):
        p = L.softmax(cls[rows])
        cdf = np.empty((len(p), thresholds.size))
        # the normalizer's underflow check runs even with no threshold inside
        cdf[:, inside] = L.trgamma_cdf(y_inside, bulk[rows, None], m.k_shape, np.log1p(m.u))
        cdf[:, ~inside] = thresholds[~inside] > 0   # 0 at b = 0, 1 from u on
        # p0 + p1 * F_bulk + p2 * F_tail in place, in the same order of operations
        cdf *= p[:, 1:2]
        cdf += p[:, :1]
        cdf += p[:, 2:] * L.gpd_cdf_excess(b - m.u, tail_sigma(m, tail[rows])[:, None], m.xi)
        # rounding can lift the sum of the three terms a bit above 1
        out[rows] = np.minimum(cdf, 1.0, out=cdf)
    return out


def cdf(m: MixtureModel, X, b, names=None) -> np.ndarray:
    """P(BA <= b | x) for each row; ``b`` is a scalar threshold >= 0."""
    return threshold_probs(m, raw_scores(m, X, names), [float(b)])[:, 0]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def fit_mixture(
    X,
    ba,
    u: float,
    xi: float,
    kappa: float,
    k_shape: float,
    classifier_params: B.TrainParams,
    bulk_params: B.TrainParams,
    tail_params: B.TrainParams,
    feature_names=None,
) -> MixtureModel:
    """Fit the three components on the observed burned areas (NaN sizes are
    skipped), each on the rows and target :func:`losses.training_rows` gives
    its kind: every size trains the classifier on its size class, the sizes
    in (0, u] train the bulk model on log(1+ba), and the sizes above u train
    the tail model on the excesses.
    """
    X = np.asarray(X, dtype=float)
    ba = np.asarray(ba, dtype=float)
    parts = []
    for loss, params in ((L.LossSpec(kind="cross_entropy"), classifier_params),
                         (L.LossSpec(kind="trgamma", k_shape=k_shape,
                                     u_trunc=float(np.log1p(u))), bulk_params),
                         (L.LossSpec(kind="gpd", xi=xi, kappa=kappa), tail_params)):
        rows, y = L.training_rows(loss.kind, ba, u)
        if not rows.any():
            raise DataError(f"no observed sizes in the {loss.kind} domain to fit the mixture")
        parts.append(B.fit(X[rows], y, loss, params, feature_names=feature_names))
    return MixtureModel(*parts, u=u)


# ---------------------------------------------------------------------------
# Manifest (three component files + threshold)
# ---------------------------------------------------------------------------

def save(m: MixtureModel, path) -> None:
    """Write the three component model files and, beside them, the manifest
    a hand-written one would be: version, kind, threshold and file names."""
    base = os.path.splitext(os.path.basename(path))[0]
    outdir = os.path.dirname(path) or "."
    manifest = {"format_version": MANIFEST_VERSION, "kind": "mixture", "threshold": m.u}
    for name in COMPONENTS:
        manifest[name] = f"{base}.{name}.json"
        B.save(getattr(m, name), os.path.join(outdir, manifest[name]))
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    with publish(path) as fh:
        fh.write(text)


def load(path) -> MixtureModel | B.BoostedModel:
    """The model in the JSON file at ``path``, parsed once: a :class:`MixtureModel`
    for a manifest (components read from beside it), else a single model."""
    with open_text(path) as fh:
        manifest = B.parse(fh.read())
    if not (isinstance(manifest, dict) and manifest.get("kind") == "mixture"):
        return B.from_doc(manifest)
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest.get('format_version')!r}")
    outdir = os.path.dirname(path) or "."
    parts = {}
    for name in COMPONENTS:
        if name not in manifest:
            raise DataError(f"manifest missing component {name!r}")
        if not isinstance(manifest[name], str):
            raise DataError(f"manifest component {name!r} must be a file name")
        parts[name] = B.load(os.path.join(outdir, manifest[name]))
    m = MixtureModel(u=_manifest_number(manifest, "threshold"), **parts)
    # a hand-written manifest may also repeat these component parameters
    for key, val in (("xi", m.xi), ("kappa", m.kappa), ("k_shape", m.k_shape)):
        if key in manifest and abs(_manifest_number(manifest, key) - val) > 1e-12:
            raise DataError(f"manifest {key} disagrees with component model")
    return m


def _manifest_number(manifest: dict, key: str) -> float:
    val = manifest.get(key)
    if not B.is_finite_number(val):
        raise DataError(f"manifest {key} must be a finite number, got {val!r}")
    return float(val)

