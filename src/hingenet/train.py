"""Baseline training and finetuning loops: SGD with momentum, seeded
shuffling, optional distillation against a frozen teacher. `sgd_epoch` is
the one pass over the training split that training and the proximal
compression phase share."""

import numpy as np

from . import losses
from .linalg import NumericError, quiet_overflow
from .net import WEIGHT, Network

LR_DROP_FACTOR = 0.1  # the learning rate is multiplied by this at each of `lr_drops`
# `evaluate` sums its loss over blocks of this many samples, which fix the loss's bits
# (test_distilled_finetune_golden_sha256); one cross-entropy over the split moves them
EVAL_BATCH = 128


class SgdMomentum:
    """v = momentum*v + (g + wd*p); p -= lr*v, in place on the arrays of
    `params` (`Network.params` tuples). Decay applies to weight matrices
    only, never biases or hinge matrices. Momentum 0 keeps no v: p -= lr*(g + wd*p)."""

    def __init__(self, params, lr: float, momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.params = [(kind, value, grad, np.zeros_like(value) if momentum else None)
                       for _, kind, value, grad in params]

    def step(self):
        for kind, p, g, v in self.params:
            if kind == WEIGHT:
                g = g + self.weight_decay * p
            if v is not None:
                v *= self.momentum
                v += g
                g = v
            p -= self.lr * g


def batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def sgd_epoch(net: Network, dataset, batch_size: int, rng: np.random.Generator,
              score, step, stage: str, epoch: int) -> float:
    """One pass over the training split in batches drawn by `batches`.
    Each batch runs the caching forward and is scored by
    `score(logits, idx) -> (loss, dlogits)`. The loss, then after backward
    every gradient (hinge matrices included), is checked before `step()`
    moves any parameter, so a non-finite value raises `NumericError` with
    every tensor as it was. Returns the epoch's mean loss."""
    total = 0.0
    for idx in batches(len(dataset.x_train), batch_size, rng):
        net.zero_grads()
        loss, dlogits = score(net.forward(dataset.x_train[idx]), idx)
        if not np.isfinite(loss):
            raise NumericError(f"{stage} diverged at epoch {epoch} (loss={loss})")
        net.backward(dlogits)
        for key, _, _, grad in net.params():
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient of {key} at epoch {epoch}")
        step()
        total += loss * len(idx)
    return total / len(dataset.x_train)


@quiet_overflow()
def evaluate(net: Network, x: np.ndarray, y: np.ndarray):
    """Top-1 accuracy and mean cross-entropy over a split, by the inference
    forward in blocks of `EVAL_BATCH` samples; pure."""
    correct = 0
    total_loss = 0.0
    for start in range(0, len(x), EVAL_BATCH):
        yb = y[start:start + EVAL_BATCH]
        logits = net.forward(x[start:start + EVAL_BATCH], cache=False)
        loss, _ = losses.cross_entropy(logits, yb)
        if not np.isfinite(loss):
            raise NumericError(f"evaluation loss is not finite ({loss})")
        total_loss += loss * len(yb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return correct / len(x), total_loss / len(x)


@quiet_overflow()
def train(net: Network, dataset, epochs: int, lr: float, batch_size: int = 32,
          momentum: float = 0.9, weight_decay: float = 1e-4,
          lr_drops: tuple = (), seed: int = 0, teacher: Network | None = None,
          distill_cfg: losses.DistillConfig | None = None,
          log=None):
    """Train in place; returns per-epoch metrics. Fully determined by the
    seed. With a teacher, batches are scored by the distillation loss. The
    teacher is frozen, so its logits on the training split come from one
    inference forward per run, before the first epoch, and are indexed per
    batch. Each epoch is one `sgd_epoch` stepping `SgdMomentum`."""
    opt = SgdMomentum(net.params(), lr, momentum, weight_decay)
    rng = np.random.default_rng(seed)
    history = []
    if teacher is not None and epochs > 0:
        teacher_logits = teacher.forward(dataset.x_train, cache=False)

    def score(logits, idx):
        if teacher is None:
            return losses.cross_entropy(logits, dataset.y_train[idx])
        return losses.distill_loss(logits, teacher_logits[idx], dataset.y_train[idx],
                                   distill_cfg)

    for epoch in range(epochs):
        if epoch in lr_drops:
            opt.lr *= LR_DROP_FACTOR
        train_loss = sgd_epoch(net, dataset, batch_size, rng, score, opt.step,
                               "training", epoch)
        acc, test_loss = evaluate(net, dataset.x_test, dataset.y_test)
        record = {"epoch": epoch, "train_loss": train_loss,
                  "test_loss": test_loss, "test_accuracy": acc, "lr": opt.lr}
        history.append(record)
        if log is not None:
            log(record)
    return history
