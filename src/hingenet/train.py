"""Baseline training and finetuning loops: SGD with momentum, seeded
shuffling, optional distillation against a frozen teacher."""

import numpy as np

from . import losses
from .linalg import NumericError, quiet_overflow
from .net import WEIGHT, Network


class SgdMomentum:
    """v = momentum*v + (g + wd*p); p -= lr*v. Decay applies to weight
    matrices only, never biases or hinge matrices."""

    def __init__(self, net: Network, lr: float, momentum: float = 0.9,
                 weight_decay: float = 1e-4):
        self.net = net
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(getattr(layer, attr))
                         for name, _, layer, attr in net.params()}

    def step(self):
        for name, kind, layer, attr in self.net.params():
            p = getattr(layer, attr)
            g = getattr(layer, f"grad_{attr}")
            if kind == WEIGHT:
                g = g + self.weight_decay * p
            v = self.velocity[name]
            v *= self.momentum
            v += g
            setattr(layer, attr, p - self.lr * v)


def batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


@quiet_overflow()
def evaluate(net: Network, x: np.ndarray, y: np.ndarray, batch_size: int = 128):
    """Top-1 accuracy and mean cross-entropy over a split, by the inference
    forward; pure."""
    correct = 0
    total_loss = 0.0
    for start in range(0, len(x), batch_size):
        xb = x[start:start + batch_size]
        yb = y[start:start + batch_size]
        logits = net.forward(xb, cache=False)
        loss, _ = losses.cross_entropy(logits, yb)
        if not np.isfinite(loss):
            raise NumericError(f"evaluation loss is not finite ({loss})")
        total_loss += loss * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return correct / len(x), total_loss / len(x)


@quiet_overflow()
def train(net: Network, dataset, epochs: int, lr: float, batch_size: int = 32,
          momentum: float = 0.9, weight_decay: float = 1e-4,
          lr_drops: tuple = (), lr_drop_factor: float = 0.1,
          seed: int = 0, teacher: Network | None = None,
          distill_cfg: losses.DistillConfig | None = None,
          log=None):
    """Train in place; returns per-epoch metrics. Fully determined by the
    seed. With a teacher, batches are scored by the distillation loss. The
    teacher is frozen, so its logits on the training split are computed
    once per run, before the first epoch, and indexed per batch. Each step
    checks its loss and every gradient before any parameter moves."""
    opt = SgdMomentum(net, lr, momentum, weight_decay)
    rng = np.random.default_rng(seed)
    history = []
    if teacher is not None and epochs > 0:
        # Slices of the training batch size keep the teacher's patch
        # matrices as small as the student's.
        x = dataset.x_train
        teacher_logits = np.concatenate(
            [teacher.forward(x[start:start + batch_size], cache=False)
             for start in range(0, len(x), batch_size)])
    for epoch in range(epochs):
        if epoch in lr_drops:
            opt.lr *= lr_drop_factor
        epoch_loss = 0.0
        seen = 0
        for idx in batches(len(dataset.x_train), batch_size, rng):
            xb = dataset.x_train[idx]
            yb = dataset.y_train[idx]
            net.zero_grads()
            logits = net.forward(xb)
            if teacher is not None:
                loss, dlogits = losses.distill_loss(logits, teacher_logits[idx], yb,
                                                    distill_cfg)
            else:
                loss, dlogits = losses.cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise NumericError(f"training diverged at epoch {epoch} (loss={loss})")
            net.backward(dlogits)
            for name, _, layer, attr in net.params():
                if not np.all(np.isfinite(getattr(layer, f"grad_{attr}"))):
                    raise NumericError(f"non-finite gradient of {name} at epoch {epoch}")
            opt.step()
            epoch_loss += loss * len(idx)
            seen += len(idx)
        acc, test_loss = evaluate(net, dataset.x_test, dataset.y_test)
        record = {"epoch": epoch, "train_loss": epoch_loss / seen,
                  "test_loss": test_loss, "test_accuracy": acc, "lr": opt.lr}
        history.append(record)
        if log is not None:
            log(record)
    return history
