"""Five from-scratch classifiers behind one train/predict/evaluate contract.

`train(kind, X, y, **params)` checks `params` with `check_params`, fits a
Standardizer on the training rows, encodes the labels as codes into their
sorted distinct values (`np.unique(y, return_inverse=True)`), and fits the
kind's model on the codes; `HYPERPARAMETERS` lists each kind's parameters
and defaults, and `HYPERPARAMETER_RULES` the one rule each must meet. The
kernels trust their inputs: standardized float64 rows, int64 codes and
checked hyperparameters. The returned TrainedModel predicts raw (unscaled)
feature rows as labels.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from tpbench.attackers.adaboost import fit_adaboost, predict_adaboost
from tpbench.attackers.forest import fit_forest, predict_forest
from tpbench.attackers.forest import forest_votes as _forest_votes
from tpbench.attackers.knn import fit_knn, predict_knn
from tpbench.attackers.mlp import (
    TrainingDivergedError,
    fit_mlp,
    loss_and_gradients,
    predict_mlp,
)
from tpbench.attackers.prep import Standardizer, split
from tpbench.attackers.tree import fit_tree, predict_tree
from tpbench.rules import (
    COUNT,
    COUNT_LIST,
    OPTIONAL_COUNT,
    POSITIVE,
    SEED,
    ConfigError,
    check,
    check_keys,
    named,
)

# kind -> (fit(Xs, codes, n_classes, **params), predict(params, Xs) -> codes)
_KINDS = {
    "knn": (fit_knn, predict_knn),
    "tree": (fit_tree, predict_tree),
    "forest": (fit_forest, predict_forest),
    "adaboost": (fit_adaboost, predict_adaboost),
    "mlp": (fit_mlp, predict_mlp),
}

CLASSIFIER_KINDS = tuple(_KINDS)

# kind -> {hyperparameter: default}: the fit's parameters after the class
# count that are not keyword-only. Keyword-only ones (a forest's `trees`, a
# tree's `rng`) are hooks for callers in the package, not config keys.
HYPERPARAMETERS = {
    kind: {
        name: p.default
        for name, p in list(inspect.signature(fit).parameters.items())[3:]
        if p.kind is p.POSITIONAL_OR_KEYWORD
    }
    for kind, (fit, _) in _KINDS.items()
}

# hyperparameter -> its rule, whichever kinds take it
HYPERPARAMETER_RULES = {
    **dict.fromkeys(("epochs", "batch_size", "k", "n_trees", "rounds", "min_leaf"), COUNT),
    **dict.fromkeys(("max_depth", "features_per_split"), OPTIONAL_COUNT),
    "hidden": COUNT_LIST,
    "seed": SEED,
    "learning_rate": POSITIVE,
}


def check_params(kind: str, params: dict) -> None:
    """Raise a ConfigError unless `kind` is a classifier kind and `params`
    are some of its hyperparameters, each meeting its rule; the message
    reads "classifier '<kind>': <name> must be ...". A config's classifier
    specs and `train` both check here."""
    if kind not in CLASSIFIER_KINDS:  # a tuple: an unhashable kind is not in it either
        raise ConfigError(f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}")
    with named(f"classifier {kind!r}"):
        check_keys(params, HYPERPARAMETERS[kind])
        for name, value in params.items():
            check(value, HYPERPARAMETER_RULES[name], name)


@dataclass
class TrainedModel:
    kind: str
    params: object
    standardizer: Standardizer
    classes: np.ndarray  # sorted distinct training labels; code i predicts classes[i]


def train(kind: str, X, y, *, trees: range | None = None, **params) -> TrainedModel:
    """Fit a `kind` model on raw rows X and labels y (strings, integers or
    any sortable values) with `params` from HYPERPARAMETERS[kind]. `trees`,
    a package hook and no hyperparameter, grows only those tree indices of a
    forest."""
    check_params(kind, params)
    fit, _ = _KINDS[kind]
    classes, codes = np.unique(y, return_inverse=True)
    if codes.size == 0:
        raise ValueError("training set must be non-empty")
    if trees is not None:
        params["trees"] = trees
    standardizer = Standardizer.fit(X)
    fitted = fit(standardizer.transform(X), codes, len(classes), **params)
    return TrainedModel(kind, fitted, standardizer, classes)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted labels, one per row of the raw feature matrix X."""
    if model.kind not in _KINDS:
        raise ValueError(f"unknown classifier kind {model.kind!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a (rows, features) matrix, got shape {X.shape}")
    _, predict_codes = _KINDS[model.kind]
    return model.classes[predict_codes(model.params, model.standardizer.transform(X))]


def forest_votes(model: TrainedModel, X) -> np.ndarray:
    """(rows, classes) int64 tree votes of a forest model on raw feature rows,
    classes in `model.classes` order; `predict` takes the first-max column."""
    if model.kind != "forest":
        raise ValueError(f"expected a forest model, got {model.kind!r}")
    return _forest_votes(model.params, model.standardizer.transform(X))


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of `predicted` equal to `truth`, both labels or both class
    codes: the one scoring rule of `evaluate` and the sweep."""
    return float(np.mean(predicted == truth))


def evaluate(model: TrainedModel, X, y) -> float:
    """Fraction of correct predictions on a non-empty test set."""
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("test set must be non-empty")
    return accuracy(predict(model, X), y)

