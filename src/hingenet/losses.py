"""Classification and distillation losses, each returning (loss, dlogits)."""

from dataclasses import dataclass

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Log softmax of `logits / temperature` along each row."""
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log softmax at the true class; gradient is
    (softmax - one_hot) / batch."""
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("labels out of range")
    loss = -float(log_softmax(logits)[np.arange(n), labels].mean())
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@dataclass(frozen=True)
class DistillConfig:
    balance: float = 0.4      # weight shifted from the hard label term to the soft one
    temperature: float = 4.0

    def __post_init__(self):
        if not 0.0 <= self.balance <= 1.0:
            raise ValueError("balance must be in [0, 1]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def distill_loss(student_logits: np.ndarray, teacher_logits: np.ndarray,
                 labels: np.ndarray, cfg: DistillConfig):
    """(1-balance) * CE(labels, student) plus 2*balance*T^2 times the
    cross-entropy of the student's tempered softmax against the teacher's
    tempered softmax (teacher as target, treated as a constant).

    Soft-term gradient per sample is (2*balance*T) * (p_student - p_teacher)
    at temperature T, so matching logits contribute exactly zero.
    """
    alpha, t = cfg.balance, cfg.temperature
    n = student_logits.shape[0]
    hard_loss, hard_grad = cross_entropy(student_logits, labels)

    # Both distributions go through the identical code path so matching
    # logits yield a soft gradient of exactly zero.
    log_p_student = log_softmax(student_logits, t)
    p_student = np.exp(log_p_student)
    p_teacher = np.exp(log_softmax(teacher_logits, t))
    soft_ce = -float((p_teacher * log_p_student).sum(axis=1).mean())
    soft_grad = (p_student - p_teacher) / (t * n)

    loss = (1.0 - alpha) * hard_loss + 2.0 * alpha * t * t * soft_ce
    grad = (1.0 - alpha) * hard_grad + 2.0 * alpha * t * t * soft_grad
    return loss, grad
