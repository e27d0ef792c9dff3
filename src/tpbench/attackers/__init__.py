"""Five from-scratch classifiers behind one train/predict/evaluate contract.

`train(kind, X, y, *, seed=0, trees=None, **params)` checks `params` with
`check_params`, fits a Standardizer on the training rows, encodes the labels
as codes into their sorted distinct values (`np.unique(y, return_inverse=True)`),
and fits the kind's model on the codes; `HYPERPARAMETERS` lists each kind's
parameters and defaults, and `HYPERPARAMETER_RULES` the one rule each must
meet. The kernels trust their inputs: standardized float64 rows, int64 codes
and checked hyperparameters. A TrainedModel's one output on raw (unscaled)
feature rows is `votes`: a (rows, classes) int64 matrix, columns in
`model.classes` order, of a forest's tree votes or the one-hot of another
kind's predicted class; `predict` returns each row's first-max column.
A forest's and AdaBoost's `model.params` are a `TreeEnsemble`, read by
`ensemble_votes`: a forest's votes, and AdaBoost's scores of its class.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from tpbench.attackers.adaboost import fit_adaboost, predict_adaboost
from tpbench.attackers.forest import fit_forest
from tpbench.attackers.knn import fit_knn, predict_knn
from tpbench.attackers.mlp import TrainingDivergedError, fit_mlp, predict_mlp
from tpbench.attackers.prep import Standardizer, class_codes, split
from tpbench.attackers.tree import ensemble_votes, fit_tree, predict_tree
from tpbench.rules import (
    COUNT,
    COUNT_LIST,
    POSITIVE,
    SEED,
    ConfigError,
    check,
    check_keys,
    named,
)

# kind -> (fit(Xs, codes, n_classes, **params), predict(params, Xs) -> codes or a forest's votes)
_KINDS = {
    "knn": (fit_knn, predict_knn),
    "tree": (fit_tree, predict_tree),
    "forest": (fit_forest, ensemble_votes),
    "adaboost": (fit_adaboost, predict_adaboost),
    "mlp": (fit_mlp, predict_mlp),
}

CLASSIFIER_KINDS = tuple(_KINDS)

# kind -> {hyperparameter: default}: the fit's parameters after the class
# count that are not keyword-only. Keyword-only ones (`seed` and a forest's
# `trees`) are hooks for callers in the package, not config keys.
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
    **dict.fromkeys(("epochs", "k", "n_trees", "rounds"), COUNT),
    "hidden": COUNT_LIST,
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


def train(kind: str, X, y, *, seed: int = 0, trees: range | None = None, **params) -> TrainedModel:
    """Fit a `kind` model on raw rows X and labels y (strings, integers or
    any sortable values) with `params` from HYPERPARAMETERS[kind]. The hooks
    reach only the fits that declare them: `seed`, checked for every kind,
    seeds a forest's or MLP's draws (knn, tree and adaboost ignore it), and
    `trees` grows only those tree indices of a forest."""
    check_params(kind, params)
    check(seed, SEED, "seed")
    fit, _ = _KINDS[kind]
    classes, codes = np.unique(y, return_inverse=True)
    if codes.size == 0:
        raise ValueError("training set must be non-empty")
    hooks = {"seed": seed, "trees": trees}  # each to the fits that declare it
    params.update((k, v) for k, v in hooks.items() if k in inspect.signature(fit).parameters)
    standardizer = Standardizer.fit(X)
    fitted = fit(standardizer.transform(X), codes, len(classes), **params)
    return TrainedModel(kind, fitted, standardizer, classes)


def votes(model: TrainedModel, X) -> np.ndarray:
    """(rows, classes) int64 votes on the raw feature matrix X, classes in
    `model.classes` order: a forest's tree votes, else the one-hot of the
    kind's predicted class (for kNN, after its distance tie rule)."""
    if model.kind not in _KINDS:
        raise ValueError(f"unknown classifier kind {model.kind!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected a (rows, features) matrix, got shape {X.shape}")
    n_features = model.standardizer.mean.size
    if X.shape[1] != n_features:  # one column would broadcast against the standardizer
        raise ValueError(f"expected {n_features} feature columns, got {X.shape[1]}")
    _, kind_predict = _KINDS[model.kind]
    out = kind_predict(model.params, model.standardizer.transform(X))
    return out if model.kind == "forest" else np.eye(model.classes.size, dtype=np.int64)[out]


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted labels, one per row of the raw feature matrix X: the
    first-max column of `votes` (a forest's vote tie goes to the lowest class)."""
    return model.classes[np.argmax(votes(model, X), axis=1)]


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

