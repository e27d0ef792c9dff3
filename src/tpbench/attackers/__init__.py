"""Five from-scratch classifiers behind one train/predict/evaluate contract.

Every trainer fits a Standardizer on its training rows, encodes labels in
sorted class order, and returns a TrainedModel that predicts raw (unscaled)
feature rows. Models serialize to a versioned JSON document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tpbench.attackers.adaboost import AdaBoostParams, Stump, fit_adaboost
from tpbench.attackers.adaboost import predict_adaboost as _adaboost_codes
from tpbench.attackers.forest import ForestParams, fit_forest
from tpbench.attackers.forest import forest_votes as _forest_votes
from tpbench.attackers.forest import predict_forest as _forest_codes
from tpbench.attackers.knn import KnnParams, fit_knn
from tpbench.attackers.knn import predict_knn as _knn_codes
from tpbench.attackers.mlp import (
    MlpParams,
    TrainingDivergedError,
    fit_mlp,
    loss_and_gradients,
)
from tpbench.attackers.mlp import predict_mlp as _mlp_codes
from tpbench.attackers.prep import (
    SplitSpec,
    Standardizer,
    class_order,
    encode_labels,
    split,
)
from tpbench.attackers.tree import TreeNode, TreeParams, fit_tree
from tpbench.attackers.tree import predict_tree as _tree_codes

MODEL_FORMAT_VERSION = 1

CLASSIFIER_KINDS = ("knn", "tree", "forest", "adaboost", "mlp")


@dataclass
class TrainedModel:
    kind: str
    params: object
    standardizer: Standardizer
    classes: list[str]


def _prepare(X, y):
    X = np.asarray(X, dtype=np.float64)
    classes = class_order(y)
    codes = encode_labels(y, classes)
    standardizer = Standardizer.fit(X)
    return standardizer.transform(X), codes, classes, standardizer


def train_knn(X, y, k: int = 5) -> TrainedModel:
    Xs, codes, classes, std = _prepare(X, y)
    return TrainedModel("knn", fit_knn(Xs, codes, k), std, classes)


def train_tree(X, y, max_depth: int | None = None, min_leaf: int = 1) -> TrainedModel:
    Xs, codes, classes, std = _prepare(X, y)
    return TrainedModel(
        "tree", fit_tree(Xs, codes, len(classes), max_depth, min_leaf), std, classes
    )


def train_forest(
    X,
    y,
    n_trees: int = 100,
    features_per_split: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
    max_depth: int | None = None,
    min_leaf: int = 1,
    *,
    trees: range | None = None,
) -> TrainedModel:
    """`trees`, keyword-only and so no config key, grows only those tree
    indices (see `fit_forest`)."""
    Xs, codes, classes, std = _prepare(X, y)
    params = fit_forest(
        Xs,
        codes,
        len(classes),
        n_trees=n_trees,
        features_per_split=features_per_split,
        seed=seed,
        bootstrap=bootstrap,
        max_depth=max_depth,
        min_leaf=min_leaf,
        trees=trees,
    )
    return TrainedModel("forest", params, std, classes)


def train_adaboost(X, y, rounds: int = 50) -> TrainedModel:
    Xs, codes, classes, std = _prepare(X, y)
    return TrainedModel("adaboost", fit_adaboost(Xs, codes, len(classes), rounds), std, classes)


def train_mlp(
    X,
    y,
    hidden: tuple[int, ...] = (64, 64),
    epochs: int = 200,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> TrainedModel:
    Xs, codes, classes, std = _prepare(X, y)
    params = fit_mlp(
        Xs,
        codes,
        len(classes),
        hidden=tuple(hidden),
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=learning_rate,
        seed=seed,
    )
    return TrainedModel("mlp", params, std, classes)


_TRAINERS = {
    "knn": train_knn,
    "tree": train_tree,
    "forest": train_forest,
    "adaboost": train_adaboost,
    "mlp": train_mlp,
}


def train(kind: str, X, y, **hyperparams) -> TrainedModel:
    """Config-driven dispatch used by the sweep harness."""
    if kind not in _TRAINERS:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}")
    return _TRAINERS[kind](X, y, **hyperparams)


def predict(model: TrainedModel, X) -> np.ndarray:
    """Predicted labels for raw feature rows (single row or matrix)."""
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    Xs = model.standardizer.transform(X)
    if model.kind == "knn":
        codes = _knn_codes(model.params, Xs, len(model.classes))
    elif model.kind == "tree":
        codes = _tree_codes(model.params, Xs)
    elif model.kind == "forest":
        codes = _forest_codes(model.params, Xs)
    elif model.kind == "adaboost":
        codes = _adaboost_codes(model.params, Xs)
    elif model.kind == "mlp":
        codes = _mlp_codes(model.params, Xs)
    else:
        raise ValueError(f"unknown classifier kind {model.kind!r}")
    labels = np.array(model.classes, dtype=object)[codes]
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
    y = np.asarray([str(v) for v in y], dtype=object)
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
