"""Five from-scratch classifiers behind one train/predict/evaluate contract.

`train(kind, X, y, **params)` fits a Standardizer on the training rows,
encodes the labels as codes into their sorted distinct values
(`np.unique(y, return_inverse=True)`), and fits the kind's model on the
codes; `HYPERPARAMETERS` lists each kind's parameters and defaults. The
returned TrainedModel predicts raw (unscaled) feature rows as labels.

Models serialize to a versioned JSON document that is the model's
dataclasses: `_plain` writes every field that differs from its declared
default, and each kind's row of `_KINDS` holds, beside its fit and predict,
the decoder that rebuilds its params from that document.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
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
from tpbench.attackers.prep import Standardizer, split
from tpbench.attackers.tree import TreeNode, TreeParams, fit_tree, predict_tree

MODEL_FORMAT_VERSION = 3


def _floats(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


def _tree(doc: dict) -> TreeParams:
    def node(d: dict) -> TreeNode:  # a node lacking a field raises KeyError
        if "klass" in d:
            return TreeNode(klass=d["klass"])
        return TreeNode(
            d["feature"], d.get("threshold", 0.0), left=node(d["left"]), right=node(d["right"])
        )

    return TreeParams(node(doc["root"]), doc["n_classes"])


# kind -> (fit(Xs, codes, n_classes, **params), predict(params, Xs) -> codes,
#          decode(the params' JSON document) -> params)
_KINDS = {
    "knn": (fit_knn, predict_knn, lambda d: KnnParams(**{
        **d,
        "train_x": _floats(d["train_x"]),
        "train_y": np.array(d["train_y"], dtype=np.int64),
    })),
    "tree": (fit_tree, predict_tree, _tree),
    "forest": (fit_forest, predict_forest, lambda d: ForestParams(
        [_tree(t) for t in d["trees"]], d["n_classes"],
    )),
    "adaboost": (fit_adaboost, predict_adaboost, lambda d: AdaBoostParams(**{
        **d,
        "stumps": [Stump(**stump) for stump in d["stumps"]],
    })),
    "mlp": (fit_mlp, predict_mlp, lambda d: MlpParams(**{
        **d,
        "weights": [_floats(w) for w in d["weights"]],
        "biases": [_floats(b) for b in d["biases"]],
    })),
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
    for kind, (fit, *_) in _KINDS.items()
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
    fit, *_ = _KINDS[kind]
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
    _, predict_codes, _ = _KINDS[model.kind]
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


def _plain(value):
    """The JSON form of a model: a dataclass is the dict of its fields, less
    those equal to their declared default (a tree leaf is `{"klass": k}`); a
    list or tuple is a list; an ndarray is its `tolist()`."""
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            field_value = getattr(value, f.name)
            default = f.default_factory() if f.default_factory is not MISSING else f.default
            if default is MISSING or field_value != default:
                doc[f.name] = _plain(field_value)
        return doc
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def model_to_json(model: TrainedModel) -> str:
    return json.dumps({"format_version": MODEL_FORMAT_VERSION, **_plain(model)})


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a model document is a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r}; expected {MODEL_FORMAT_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    *_, decode = _KINDS[kind]
    try:
        standardizer = doc["standardizer"]
        return TrainedModel(
            kind=kind,
            params=decode(doc["params"]),
            standardizer=Standardizer(_floats(standardizer["mean"]), _floats(standardizer["std"])),
            classes=list(doc["classes"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} model document: {exc!r}") from exc


def save_model(model: TrainedModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
