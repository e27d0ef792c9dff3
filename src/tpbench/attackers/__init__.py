"""Five from-scratch classifiers behind one train/predict/evaluate contract.

`train(kind, X, y, **params)` fits a Standardizer on the training rows,
encodes the labels as codes into their sorted distinct values
(`np.unique(y, return_inverse=True)`), and fits the kind's model on the
codes; `HYPERPARAMETERS` lists each kind's parameters and defaults. The
returned TrainedModel predicts raw (unscaled) feature rows as labels.
Models serialize to a versioned JSON document.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpbench.attackers.adaboost import AdaBoostParams, Stump, fit_adaboost, predict_adaboost
from tpbench.attackers.forest import ForestParams, fit_forest, predict_forest
from tpbench.attackers.forest import forest_votes as _forest_votes
from tpbench.attackers.knn import KnnParams, fit_knn, predict_knn
from tpbench.attackers.mlp import (
    MlpParams,
    TrainingDivergedError,
    fit_mlp,
    loss_and_gradients,
    predict_mlp,
)
from tpbench.attackers.prep import SplitSpec, Standardizer, split
from tpbench.attackers.tree import TreeNode, TreeParams, fit_tree, predict_tree

MODEL_FORMAT_VERSION = 2

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


@dataclass
class TrainedModel:
    kind: str
    params: object
    standardizer: Standardizer
    classes: list  # sorted distinct training labels; code i predicts classes[i]


def train(kind: str, X, y, **params) -> TrainedModel:
    """Fit a `kind` model on raw rows X and labels y (strings, integers or
    any sortable values) with `params` from HYPERPARAMETERS[kind]."""
    if kind not in _KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}")
    fit, _ = _KINDS[kind]
    classes, codes = np.unique(y, return_inverse=True)
    standardizer = Standardizer.fit(X)
    fitted = fit(standardizer.transform(X), codes, len(classes), **params)
    return TrainedModel(kind, fitted, standardizer, classes.tolist())


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted labels for raw feature rows (single row or matrix)."""
    if model.kind not in _KINDS:
        raise ValueError(f"unknown classifier kind {model.kind!r}")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    _, predict_codes = _KINDS[model.kind]
    labels = np.array(model.classes, dtype=object)[
        predict_codes(model.params, model.standardizer.transform(X))
    ]
    return labels[0] if single else labels


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


# --- serialization ----------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"klass": node.klass}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> TreeNode:
    if "klass" in doc:
        return TreeNode(klass=doc["klass"])
    return TreeNode(
        feature=doc["feature"],
        threshold=doc["threshold"],
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def _params_to_dict(kind: str, params) -> dict:
    if kind == "knn":
        return {
            "train_x": params.train_x.tolist(),
            "train_y": params.train_y.tolist(),
            "k": params.k,
            "n_classes": params.n_classes,
        }
    if kind == "tree":
        return {"root": _node_to_dict(params.root), "n_classes": params.n_classes}
    if kind == "forest":
        return {
            "trees": [_node_to_dict(t.root) for t in params.trees],
            "n_classes": params.n_classes,
        }
    if kind == "adaboost":
        return {
            "stumps": [
                {
                    "feature": s.feature,
                    "threshold": s.threshold,
                    "left_class": s.left_class,
                    "right_class": s.right_class,
                }
                for s in params.stumps
            ],
            "alphas": params.alphas,
            "fallback_class": params.fallback_class,
            "n_classes": params.n_classes,
            "train_errors": params.train_errors,
        }
    if kind == "mlp":
        return {
            "weights": [w.tolist() for w in params.weights],
            "biases": [b.tolist() for b in params.biases],
            "loss_curve": params.loss_curve,
        }
    raise ValueError(f"unknown classifier kind {kind!r}")


def _params_from_dict(kind: str, doc: dict):
    if kind == "knn":
        return KnnParams(
            train_x=np.array(doc["train_x"], dtype=np.float64),
            train_y=np.array(doc["train_y"], dtype=np.int64),
            k=doc["k"],
            n_classes=doc["n_classes"],
        )
    if kind == "tree":
        return TreeParams(root=_node_from_dict(doc["root"]), n_classes=doc["n_classes"])
    if kind == "forest":
        return ForestParams(
            trees=[
                TreeParams(root=_node_from_dict(t), n_classes=doc["n_classes"])
                for t in doc["trees"]
            ],
            n_classes=doc["n_classes"],
        )
    if kind == "adaboost":
        return AdaBoostParams(
            stumps=[Stump(**s) for s in doc["stumps"]],
            alphas=list(doc["alphas"]),
            fallback_class=doc["fallback_class"],
            n_classes=doc["n_classes"],
            train_errors=list(doc["train_errors"]),
        )
    if kind == "mlp":
        return MlpParams(
            weights=[np.array(w, dtype=np.float64) for w in doc["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in doc["biases"]],
            loss_curve=list(doc["loss_curve"]),
        )
    raise ValueError(f"unknown classifier kind {kind!r}")


def model_to_json(model: TrainedModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "classes": model.classes,
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
        "params": _params_to_dict(model.kind, model.params),
    }
    return json.dumps(doc)


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    standardizer = Standardizer(
        mean=np.array(doc["standardizer"]["mean"], dtype=np.float64),
        std=np.array(doc["standardizer"]["std"], dtype=np.float64),
    )
    return TrainedModel(
        kind=doc["kind"],
        params=_params_from_dict(doc["kind"], doc["params"]),
        standardizer=standardizer,
        classes=list(doc["classes"]),
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
