"""Timing spans around the package's public functions, and the per-layer
metrics derived from them.

Wrappers are installed from outside the package: each public function is
replaced where its callers look it up (``booster`` imports ``grow`` from
``tree`` by name, so ``evtboost.booster.grow`` is wrapped as well as
``evtboost.tree.grow``).  Spans stay in memory and are written out once.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np


def _grow_cells(args, kwargs, result):
    X = args[0]
    subset = args[7] if len(args) > 7 else kwargs.get("feature_subset")
    return int(np.shape(X)[0]) * (int(np.shape(X)[1]) if subset is None else len(subset))


# (module, attribute path, span name, size of the work: f(args, kwargs, result))
TARGETS = [
    ("evtboost.dataset", "load_csv", "dataset.load_csv", lambda a, k, r: r.n_rows),
    ("evtboost.dataset", "save_csv", "dataset.save_csv", lambda a, k, r: a[0].n_rows),
    ("evtboost.losses", "evaluate_loss", "losses.evaluate_loss", None),
    ("evtboost.losses", "dgpd_mean", "losses.dgpd_mean", lambda a, k, r: int(np.size(a[0]))),
    ("evtboost.tree", "grow", "tree.grow", _grow_cells),
    ("evtboost.booster", "grow", "tree.grow", _grow_cells),
    ("evtboost.tree", "quantile_candidates", "tree.quantile_candidates", None),
    ("evtboost.tree", "Tree.predict", "tree.predict", lambda a, k, r: len(r)),
    ("evtboost.booster", "fit", "booster.fit", lambda a, k, r: int(np.shape(a[0])[1])),
    ("evtboost.booster", "predict_raw", "booster.predict_raw", None),
    ("evtboost.mixture", "threshold_probs", "mixture.threshold_probs", None),
    ("evtboost.mixture", "cdf", "mixture.cdf", None),
    ("evtboost.recipes", "BoosterRecipe.fit", "recipes.fit",
     lambda a, k, r: len(r.model.trees)),
    ("evtboost.recipes", "BoosterRecipe.score", "recipes.score", None),
    ("evtboost.evaluate", "run_cv", "evaluate.run_cv", None),
    ("evtboost.evaluate", "threshold_score", "evaluate.threshold_score", None),
    ("evtboost.recipes", "threshold_score", "evaluate.threshold_score", None),
    ("evtboost.spatialcv", "generate_folds", "spatialcv.generate_folds", None),
    ("evtboost.spatialcv", "field_factor", "spatialcv.field_factor", None),
    ("evtboost.spatialcv", "FoldSet.validation_rows", "spatialcv.validation_rows", None),
    ("evtboost.spatialcv", "save_folds", "spatialcv.save_folds", None),
    ("evtboost.spatialcv", "load_folds", "spatialcv.load_folds", None),
    ("evtboost.interpret", "partial_dependence", "interpret.partial_dependence", None),
]


class Recorder:
    """In-memory span list.  ``cmd`` tags new spans with the running command."""

    def __init__(self):
        self.spans: list[dict] = []
        self.cmd = None
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, size=None):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "cmd": self.cmd, "t0": time.perf_counter(), "t1": None,
                "exc": None, "n": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["exc"] = type(exc).__name__
            raise
        finally:
            span["t1"] = time.perf_counter()
            self._stack.pop()
        if size is not None:
            span["n"] = size(args, kwargs, result)
        return result


def install(recorder: Recorder, names=None) -> None:
    """Wrap every target (or only those whose span name is in ``names``)."""
    for module_name, path, name, size in TARGETS:
        if names is not None and name not in names:
            continue
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        wrapper = _wrapper(recorder, name, fn, size)
        setattr(owner, attr, wrapper)


def _wrapper(recorder, name, fn, size):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, size)
    return wrapper


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------

def merge(*span_lists) -> list[dict]:
    """Concatenate span lists recorded by different processes, renumbering ids."""
    out = []
    for spans in span_lists:
        offset = len(out)
        for s in spans:
            out.append(dict(s, id=s["id"] + offset,
                            parent=None if s["parent"] is None else s["parent"] + offset))
    return out


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["t0"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["t1"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def _ancestors(spans: list[dict]):
    by_id = {s["id"]: s for s in spans}

    def names_above(s):
        out = set()
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            out.add(s["name"])
        return out
    return {s["id"]: names_above(s) for s in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals, counts, self times and ratios from merged spans.

    A layer's time counts only its outermost spans, so a recursive call is
    not counted twice.  A ratio whose base is zero reads 0.
    """
    above = _ancestors(spans)
    own = self_times(spans)
    total, calls, size, self_s, errors = {}, {}, {}, {}, {}
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + (s["n"] or 0)
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        errors[name] = errors.get(name, 0) + (s["exc"] is not None)
        if name not in above[s["id"]]:
            total[name] = total.get(name, 0.0) + (s["t1"] - s["t0"])

    def under(name, ancestor):
        return sum(1 for s in spans if s["name"] == name and ancestor in above[s["id"]])

    t = lambda n: total.get(n, 0.0)
    c = lambda n: calls.get(n, 0)
    m = {
        "cli.self_s": self_s.get("cli.main", 0.0),
        "dataset.load_csv_s": t("dataset.load_csv"),
        "dataset.load_csv_rows": size.get("dataset.load_csv", 0),
        "dataset.save_csv_s": t("dataset.save_csv"),
        "losses.evaluate_loss_s": t("losses.evaluate_loss"),
        "losses.evaluate_loss_calls": c("losses.evaluate_loss"),
        "losses.dgpd_mean_s": t("losses.dgpd_mean"),
        "losses.dgpd_mean_rows": size.get("losses.dgpd_mean", 0),
        "losses.dgpd_mean_errors": errors.get("losses.dgpd_mean", 0),
        "tree.grow_s": t("tree.grow"),
        "tree.grow_calls": c("tree.grow"),
        "tree.grow_self_s": self_s.get("tree.grow", 0.0),
        "tree.quantile_candidates_s": t("tree.quantile_candidates"),
        "tree.quantile_candidates_calls": c("tree.quantile_candidates"),
        # booster.fit spans carry the fit's feature count
        "tree.candidate_sets_per_fit": _ratio(c("tree.quantile_candidates"),
                                              size.get("booster.fit", 0)),
        "tree.grow_cells": size.get("tree.grow", 0),
        "tree.grow_cells_per_s": _ratio(size.get("tree.grow", 0), t("tree.grow")),
        "tree.predict_s": t("tree.predict"),
        "tree.predict_calls": c("tree.predict"),
        "tree.predict_rows": size.get("tree.predict", 0),
        "booster.fit_s": t("booster.fit"),
        "booster.fit_self_s": self_s.get("booster.fit", 0.0),
        "booster.predict_raw_s": t("booster.predict_raw"),
        "booster.predict_raw_calls": c("booster.predict_raw"),
        "mixture.threshold_probs_s": t("mixture.threshold_probs"),
        "mixture.cdf_calls": c("mixture.cdf"),
        "mixture.raw_passes_per_call": _ratio(
            under("booster.predict_raw", "mixture.threshold_probs"),
            c("mixture.threshold_probs")),
        "recipes.fit_s": t("recipes.fit"),
        "recipes.score_s": t("recipes.score"),
        "recipes.score_calls": c("recipes.score"),
        "evaluate.run_cv_s": t("evaluate.run_cv"),
        "evaluate.run_cv_self_s": self_s.get("evaluate.run_cv", 0.0),
        # recipes.fit spans carry the fitted model's tree count
        "evaluate.prefix_tree_evals_per_tree": _ratio(
            under("tree.predict", "recipes.score"), size.get("recipes.fit", 0)),
        "evaluate.threshold_score_s": t("evaluate.threshold_score"),
        "spatialcv.generate_folds_s": t("spatialcv.generate_folds"),
        "spatialcv.field_factor_s": t("spatialcv.field_factor"),
        "spatialcv.validation_rows_s": t("spatialcv.validation_rows"),
        "spatialcv.save_folds_s": t("spatialcv.save_folds"),
        "spatialcv.load_folds_s": t("spatialcv.load_folds"),
        "interpret.partial_dependence_s": t("interpret.partial_dependence"),
        "interpret.partial_dependence_self_s": self_s.get("interpret.partial_dependence", 0.0),
    }
    return {k: float(v) for k, v in m.items()}


# Spans whose time is the work each workload is meant to be dominated by.
SHARE_GROUPS = {
    "tree_grow": {"tree.grow"},
    "model_reading": {"mixture.threshold_probs", "booster.predict_raw", "tree.predict",
                      "losses.dgpd_mean", "interpret.partial_dependence"},
    "load_csv": {"dataset.load_csv"},
}


def pass_shares(spans: list[dict], import_s: float) -> dict[str, float]:
    """Where one pass of commands spends its time, as shares of the pass.

    ``spans`` are one in-process pass.  Each command run as a child also pays
    the interpreter start-up, so the pass is the sum of the ``cli.main``
    spans plus ``import_s`` per command; "cold_start" is that start-up.
    """
    above = _ancestors(spans)
    mains = [s for s in spans if s["name"] == "cli.main"]
    total = sum(s["t1"] - s["t0"] for s in mains) + import_s * len(mains)
    shares = {"pass_s": total, "cold_start": _ratio(import_s * len(mains), total)}
    for group, names in SHARE_GROUPS.items():
        outer = sum(s["t1"] - s["t0"] for s in spans
                    if s["name"] in names and not above[s["id"]] & names)
        shares[group] = _ratio(outer, total)
    shares["other"] = 1.0 - sum(v for k, v in shares.items() if k != "pass_s") \
        if total else 0.0
    return shares
