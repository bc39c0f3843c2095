"""Adam training loop with early stopping.

Inputs are expected to be standardized already; the standardizer used is
handed in so it rides along inside the resulting checkpoint for inference.
All arithmetic is float64 with fixed iteration orders, so a given
(spec, data, config) triple reproduces the checkpoint bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lsm.nn.autodiff import _bce_terms, bce_with_logits
from lsm.nn.checkpoint import Checkpoint
from lsm.nn.models import Model, ModelSpec, build
from lsm.reduce import Standardizer


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 64
    max_epochs: int = 100
    patience: int = 10
    seed: int = 0


class Adam:
    def __init__(self, params, lr: float, beta1: float, beta2: float, eps: float):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def _check_xy(x: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape[0] == 0:
        raise ValueError(f"{what} set is empty")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{what}: {x.shape[0]} inputs but {y.shape[0]} labels")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} inputs contain non-finite values")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError(f"{what} labels must be 0 or 1")
    return x, y


def _mean_bce(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int) -> float:
    """Stable mean binary cross-entropy of the current weights, in chunks."""
    total = 0.0
    for start in range(0, x.shape[0], batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        total += float(_bce_terms(model.predict_logits(xb), yb).sum())
    return total / x.shape[0]


def train(spec: ModelSpec, x_train: np.ndarray, y_train: np.ndarray,
          x_val: np.ndarray, y_val: np.ndarray,
          config: TrainConfig | None = None,
          standardizer: Standardizer | None = None,
          pca_hash: str | None = None) -> Checkpoint:
    """Train a model described by ``spec`` and return a Checkpoint holding
    the best-validation weights (cast once to float32), the loss history,
    and the seeds involved.

    Stops early after ``config.patience`` epochs without a strict
    improvement in validation loss; the best epoch's weights are restored.
    A zero-epoch config returns the initialization untouched.
    """
    if config is None:
        config = TrainConfig()
    x_train, y_train = _check_xy(x_train, y_train, "training")
    x_val, y_val = _check_xy(x_val, y_val, "validation")

    model = build(spec)
    opt = Adam(model.parameters(), config.learning_rate, config.beta1,
               config.beta2, config.eps)
    rng = np.random.default_rng(config.seed)
    n = x_train.shape[0]
    bs = max(1, int(config.batch_size))

    best_weights = model.get_weights()
    best_val = np.inf
    best_epoch = 0
    wait = 0
    train_hist: list[float] = []
    val_hist: list[float] = []
    stopped_epoch = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        running = 0.0
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            logits = model.forward(x_train[idx])
            loss = bce_with_logits(logits, y_train[idx].reshape(-1, 1))
            if not np.isfinite(loss.data):
                raise ArithmeticError(f"training diverged at epoch {epoch}: non-finite loss")
            model.zero_grad()
            loss.backward()
            opt.step()
            running += float(loss.data) * idx.size
        train_loss = running / n
        val_loss = _mean_bce(model, x_val, y_val, bs)
        if not np.isfinite(val_loss):
            raise ArithmeticError(f"training diverged at epoch {epoch}: non-finite loss")
        train_hist.append(train_loss)
        val_hist.append(val_loss)
        stopped_epoch = epoch
        if val_loss < best_val:
            best_val = val_loss
            best_weights = model.get_weights()
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                break

    history = {
        "train_loss": train_hist,
        "val_loss": val_hist,
        "best_epoch": best_epoch,
        "stopped_epoch": stopped_epoch,
    }
    seeds = {"init": spec.seed, "shuffle": config.seed}
    return Checkpoint(spec=spec, weights=best_weights.astype(np.float32),
                      standardizer=standardizer, pca_hash=pca_hash,
                      history=history, seeds=seeds)
