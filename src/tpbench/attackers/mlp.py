"""Fully connected net: ReLU hidden layers, softmax output, cross-entropy loss.

Training uses mini-batch Adam (per-parameter first/second moment estimates
with bias correction). Weights start from a fan-in-scaled uniform draw, so a
fixed seed fixes the whole run, including the per-epoch loss curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class MlpParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    loss_curve: list[float]


def _init_params(rng: np.random.Generator, sizes: list[int]):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward(weights, biases, X):
    activations = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        X = np.maximum(X @ W + b, 0.0)
        activations.append(X)
    logits = X @ weights[-1] + biases[-1]
    return activations, logits


def loss_and_gradients(weights, biases, X, targets_onehot):
    """Mean cross-entropy over the batch and its gradients.

    Exposed so the analytic gradients can be checked against finite
    differences.
    """
    n = X.shape[0]
    activations, logits = _forward(weights, biases, X)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = -float(np.sum(targets_onehot * log_probs)) / n

    delta = (np.exp(log_probs) - targets_onehot) / n
    grad_w = [None] * len(weights)
    grad_b = [None] * len(biases)
    for layer in range(len(weights) - 1, -1, -1):
        grad_w[layer] = activations[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ weights[layer].T) * (activations[layer] > 0.0)
    return loss, grad_w, grad_b


def fit_mlp(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    hidden: tuple[int, ...] = (64, 64),
    epochs: int = 200,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    seed: int = 0,
) -> MlpParams:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0:
        raise ValueError("training set must be non-empty")
    if epochs < 1 or batch_size < 1:
        raise ValueError("epochs and batch_size must be >= 1")

    rng = np.random.default_rng(seed)
    sizes = [X.shape[1], *hidden, n_classes]
    weights, biases = _init_params(rng, sizes)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0

    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    curve = []
    # a diverging run overflows before its loss turns non-finite; the loss
    # check below reports it, so numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            perm = rng.permutation(y.size)
            epoch_loss = 0.0
            for start in range(0, y.size, batch_size):
                rows = perm[start : start + batch_size]
                loss, grad_w, grad_b = loss_and_gradients(
                    weights, biases, X[rows], onehot[rows]
                )
                epoch_loss += loss * rows.size
                step += 1
                correction1 = 1.0 - ADAM_BETA1**step
                correction2 = 1.0 - ADAM_BETA2**step
                for layer in range(len(weights)):
                    for param, grad, m, v in (
                        (weights[layer], grad_w[layer], m_w[layer], v_w[layer]),
                        (biases[layer], grad_b[layer], m_b[layer], v_b[layer]),
                    ):
                        m *= ADAM_BETA1
                        m += (1.0 - ADAM_BETA1) * grad
                        v *= ADAM_BETA2
                        v += (1.0 - ADAM_BETA2) * grad**2
                        param -= learning_rate * (m / correction1) / (
                            np.sqrt(v / correction2) + ADAM_EPS
                        )
            epoch_loss /= y.size
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            curve.append(epoch_loss)
    return MlpParams(weights=weights, biases=biases, loss_curve=curve)


def predict_mlp(params: MlpParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    _, logits = _forward(params.weights, params.biases, X)
    return np.argmax(logits, axis=1)  # softmax is monotone in the logits
