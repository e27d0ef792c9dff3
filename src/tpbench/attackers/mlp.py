"""Fully connected net: ReLU hidden layers, softmax output, cross-entropy loss.

Training uses mini-batch Adam (per-parameter first/second moment estimates
with bias correction) over batches of `BATCH_SIZE` rows. Weights start from
a fan-in-scaled uniform draw, so a fixed seed fixes the whole run, including
the per-epoch loss curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 32  # rows per Adam step; the last batch of an epoch holds the rest


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


def _layer_views(flat: np.ndarray, sizes: list[int]):
    """Per-layer weight and bias views of one flat buffer laid out W0, b0, W1, b1, ..."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def _forward(weights, biases, X):
    """Logits of X, and each layer's input: X, then each hidden layer's ReLU output."""
    inputs = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        z = inputs[-1] @ W
        z += b
        inputs.append(np.maximum(z, 0.0, out=z))
    return inputs[-1] @ weights[-1] + biases[-1], inputs


def _backprop(weights, biases, X, targets_onehot, grad_w, grad_b) -> float:
    """Mean cross-entropy of the batch; its gradients are written into grad_w and grad_b."""
    n = X.shape[0]
    logits, inputs = _forward(weights, biases, X)
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    loss = -float(np.add.reduce(targets_onehot * log_probs, axis=None)) / n

    delta = (np.exp(log_probs) - targets_onehot) / n
    for layer in range(len(weights) - 1, -1, -1):
        a = inputs[layer]
        np.matmul(a.T, delta, out=grad_w[layer])
        np.add.reduce(delta, axis=0, out=grad_b[layer])
        if layer > 0:
            delta = delta @ weights[layer].T
            delta *= a > 0.0
    return loss


def fit_mlp(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    hidden: tuple[int, ...] = (64, 64),
    epochs: int = 200,
    learning_rate: float = 1e-3,
    *,
    seed: int = 0,
) -> MlpParams:
    rng = np.random.default_rng(seed)
    sizes = [X.shape[1], *hidden, n_classes]
    # weights, gradients and both Adam moments each live in one flat buffer,
    # so the elementwise update is one pass over the whole net per step
    init_weights, init_biases = _init_params(rng, sizes)
    theta = np.concatenate([p.ravel() for pair in zip(init_weights, init_biases) for p in pair])
    weights, biases = _layer_views(theta, sizes)
    grad = np.empty_like(theta)
    grad_w, grad_b = _layer_views(grad, sizes)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    update = np.empty_like(theta)
    tmp = np.empty_like(theta)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0

    step = 0
    curve = []
    # a diverging run overflows before its loss turns non-finite; the loss
    # check below reports it, so numpy's warnings would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, epochs + 1):
            perm = rng.permutation(y.size)
            X_epoch, targets_epoch = X[perm], onehot[perm]
            epoch_loss = 0.0
            for start in range(0, y.size, BATCH_SIZE):
                X_batch = X_epoch[start : start + BATCH_SIZE]
                targets = targets_epoch[start : start + BATCH_SIZE]
                loss = _backprop(weights, biases, X_batch, targets, grad_w, grad_b)
                epoch_loss += loss * X_batch.shape[0]
                step += 1
                correction1 = 1.0 - ADAM_BETA1**step
                correction2 = 1.0 - ADAM_BETA2**step
                # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g**2 and
                # theta -= lr*(m/c1) / (sqrt(v/c2) + eps), one operation at a
                # time in that order: folding lr/c1 into one constant would
                # change the last bits
                m *= ADAM_BETA1
                np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
                m += tmp
                v *= ADAM_BETA2
                np.square(grad, out=tmp)
                tmp *= 1.0 - ADAM_BETA2
                v += tmp
                np.divide(m, correction1, out=update)
                update *= learning_rate
                np.divide(v, correction2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += ADAM_EPS
                update /= tmp
                theta -= update
            epoch_loss /= y.size
            if not np.isfinite(epoch_loss):
                raise TrainingDivergedError(f"non-finite training loss at epoch {epoch}")
            curve.append(epoch_loss)
    return MlpParams(weights=weights, biases=biases, loss_curve=curve)


def predict_mlp(params: MlpParams, X: np.ndarray) -> np.ndarray:
    logits, _ = _forward(params.weights, params.biases, X)
    return np.argmax(logits, axis=1)  # softmax is monotone in the logits
