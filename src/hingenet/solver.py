"""Proximal-gradient compression and the nullifying-threshold search.

Per batch the filter weights take a small plain-SGD step while each hinge
matrix takes a gradient step followed by the closed-form group prox. At
the end of every epoch, groups whose norm fell below the nullifying
threshold are masked (permanently), the compression ratio is recomputed,
each layer's regularization factor is rebalanced by its mean alive group
norm, the learning rate of the first matrix in each residual pair is
adjusted by the gradient-norm ratio, and the factor anneals once a layer's
groups have shrunk far enough. The loop stops when the ratio is within the
stop margin of the target.

The binary search afterwards moves a threshold up or down with a step that
halves whenever the ratio crosses the target, returning the best threshold
seen; the ratio is a monotone staircase in the threshold, so exact
closeness may be unattainable and the result carries an exactness flag.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import hinge, losses
from .cost import compression_ratio
from .linalg import NumericError, group_norms, quiet_overflow
from .net import HINGE, WEIGHT, Network
from .regularizers import RegularizerSpec, prox
from .train import batches


@dataclass
class CompressionConfig:
    target_ratio: float = 0.5
    stop_margin: float = 0.1          # stop once ratio - target <= this
    nullify_threshold: float = 0.005  # group norms below this get masked
    regularizer: RegularizerSpec = field(
        default_factory=lambda: RegularizerSpec.default("l1"))
    eta: float = 0.1                  # learning rate of the hinge matrices
    lr_ratio: float = 0.01            # filter lr = lr_ratio * eta
    m: float = 1.35                   # exponent of the gradient-ratio lr rule
    weight_decay: float = 1e-4
    anneal_decay: float = 0.5
    anneal_trigger: float | None = None  # default 2 * nullify_threshold
    max_epochs: int = 500
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        if not 0.0 < self.target_ratio < 1.0:
            raise ValueError("target_ratio must be in (0, 1)")
        if self.stop_margin <= 0:
            raise ValueError("stop_margin must be positive")
        if self.anneal_trigger is None:
            self.anneal_trigger = 2.0 * self.nullify_threshold

    @property
    def eta_s(self) -> float:
        return self.lr_ratio * self.eta


@dataclass
class CompressionState:
    epoch: int = 0
    gamma_c: float = 1.0
    converged: bool = False
    base_lambda: dict = field(default_factory=dict)
    anneal_count: int = 0
    gamma_history: list = field(default_factory=list)


def sgd_step_w(param: np.ndarray, grad: np.ndarray, eta_s: float,
               mu: float) -> np.ndarray:
    """One plain SGD step with weight decay folded into the gradient."""
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite filter gradient")
    return param - eta_s * (grad + mu * param)


def prox_step_a(layer, grad_a: np.ndarray, lr: float, spec: RegularizerSpec,
                layer_lambda: float) -> None:
    """Gradient step on the hinge matrix followed by the group prox at
    strength layer_lambda * lr; dead groups are pinned at zero."""
    if not np.all(np.isfinite(grad_a)):
        raise NumericError("non-finite hinge gradient")
    moved = layer.a - lr * grad_a
    layer.a = prox(moved, layer.scheme, spec, layer_lambda * lr)
    layer.apply_mask()


def balance_lambda(layer, base_lambda: float) -> float:
    """Layer regularization factor: base factor times the mean alive group
    norm, so layers with large norms get proportionally more shrinkage."""
    return base_lambda * layer.stats().mean_norm


def adjust_learning_rates(pairs, grad_sums: dict, eta: float, m: float,
                          prev_rho: dict, warn=None) -> tuple[dict, dict]:
    """Per-matrix learning rates for the next epoch. For each residual
    pair, rho is the ratio of mean gradient group norms (first over second
    matrix) and the first matrix's lr is eta / rho^m. Returns the lr per
    matrix id and the rho per block."""
    lr_map = {}
    rho_map = {}
    for block_name, conv1, conv2 in pairs:
        g1 = grad_sums[id(conv1)]
        g2 = grad_sums[id(conv2)]
        mean1 = float(np.mean(group_norms(g1, conv1.scheme)[conv1.mask]))
        mean2 = float(np.mean(group_norms(g2, conv2.scheme)[conv2.mask]))
        if mean2 == 0.0 or not math.isfinite(mean1 / mean2) or mean1 == 0.0:
            rho = prev_rho.get(block_name, 1.0)
            if warn is not None:
                warn({"event": "rho_degenerate", "block": block_name,
                      "kept_rho": rho})
        else:
            rho = mean1 / mean2
        rho_map[block_name] = rho
        lr_map[id(conv1)] = eta / rho ** m
        lr_map[id(conv2)] = eta
    return lr_map, rho_map


def anneal(state: CompressionState, layer_stats: dict, config: CompressionConfig):
    """Halve the base factor of any layer whose mean alive norm fell below
    the trigger; factors never increase."""
    for name, stats in layer_stats.items():
        if stats.mean_norm < config.anneal_trigger:
            state.base_lambda[name] *= config.anneal_decay
            state.anneal_count += 1


@quiet_overflow()
def run_compression(net: Network, dataset, config: CompressionConfig,
                    log=None) -> CompressionState:
    """Loop epochs of (filter SGD + hinge prox-gradient) until the
    compression ratio is within stop_margin above the target or max_epochs
    is hit. Masks are permanent, so the ratio is non-increasing across
    epochs."""
    state = CompressionState()
    hinged = net.hinged_layers()
    if not hinged:
        raise ValueError("run_compression needs a hinged network")
    pairs = net.hinged_basic_pairs()
    state.base_lambda = {name: config.regularizer.lam for name, _ in hinged}
    lr_map = {id(layer): config.eta for _, layer in hinged}
    prev_rho = {}
    rng = np.random.default_rng(config.seed)

    for epoch in range(config.max_epochs):
        state.epoch = epoch
        lam_l = {name: balance_lambda(layer, state.base_lambda[name])
                 for name, layer in hinged}
        grad_sums = {id(layer): np.zeros_like(layer.a) for _, layer in hinged}

        for idx in batches(len(dataset.x_train), config.batch_size, rng):
            xb = dataset.x_train[idx]
            yb = dataset.y_train[idx]
            net.zero_grads()
            logits = net.forward(xb)
            loss, dlogits = losses.cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise NumericError(f"compression diverged at epoch {epoch}")
            net.backward(dlogits)
            for name, kind, layer, attr in net.params():
                if kind == HINGE:
                    continue
                p = getattr(layer, attr)
                g = getattr(layer, f"grad_{attr}")
                mu = config.weight_decay if kind == WEIGHT else 0.0
                setattr(layer, attr, sgd_step_w(p, g, config.eta_s, mu))
            for name, layer in hinged:
                grad_sums[id(layer)] += layer.grad_a
                prox_step_a(layer, layer.grad_a, lr_map[id(layer)],
                            config.regularizer, lam_l[name])

        # Epoch end: mask, measure, rebalance, adjust, anneal.
        for name, layer in hinged:
            layer.mask = hinge.update_mask(layer.group_norms(), layer.mask,
                                           config.nullify_threshold)
            layer.apply_mask()
        state.gamma_c = compression_ratio(net, config.nullify_threshold)
        state.gamma_history.append(state.gamma_c)
        layer_stats = {name: layer.stats() for name, layer in hinged}
        if pairs:
            lr_map, prev_rho = adjust_learning_rates(
                pairs, grad_sums, config.eta, config.m, prev_rho, warn=log)
        anneal(state, layer_stats, config)

        if log is not None:
            log({"epoch": epoch, "gamma_c": state.gamma_c,
                 "mean_group_norms": {n: s.mean_norm for n, s in layer_stats.items()},
                 "alive_groups": {n: s.alive_count for n, s in layer_stats.items()},
                 "lambda_layer": dict(lam_l),
                 "lambda_base": dict(state.base_lambda),
                 "rho": dict(prev_rho) if pairs else {}})
        if state.gamma_c - config.target_ratio <= config.stop_margin:
            state.converged = True
            state.epoch = epoch
            break
    return state


SEARCH_MAX_ITERS = 200  # threshold probes before the best one seen is returned


@dataclass
class ThresholdSearchResult:
    threshold: float
    gamma: float
    exact: bool
    iterations: int
    visited: list


def binary_search_threshold(net: Network, target: float, criterion: float = 0.005,
                            t0: float | None = None) -> ThresholdSearchResult:
    """Find the nullifying threshold whose compression ratio is closest to
    `target`. The step moves the threshold toward the target ratio and is
    halved whenever the ratio crosses it; because the ratio is a staircase,
    the search returns the best visited threshold with an exactness flag."""
    if criterion <= 0:
        raise ValueError("criterion must be positive")
    if t0 is None:
        alive_norms = np.concatenate([
            layer.group_norms()[layer.mask] for _, layer in net.hinged_layers()])
        t0 = float(np.median(alive_norms)) if alive_norms.size else 0.0

    t = t0
    s = t0 / 2.0 if t0 > 0 else 0.5
    visited = []
    best = None
    prev_gamma = None
    for iteration in range(SEARCH_MAX_ITERS):
        gamma = compression_ratio(net, t)
        visited.append((t, gamma))
        if best is None or abs(gamma - target) < abs(best[1] - target):
            best = (t, gamma)
        if abs(gamma - target) <= criterion:
            return ThresholdSearchResult(t, gamma, True, iteration + 1, visited)
        if prev_gamma is not None and (prev_gamma >= target) == (gamma < target):
            s /= 2.0
        prev_gamma = gamma
        t = t + s if gamma > target else max(t - s, 0.0)
    return ThresholdSearchResult(best[0], best[1], False, SEARCH_MAX_ITERS, visited)


def apply_threshold(net: Network, threshold: float) -> None:
    """Permanently mask every group below `threshold` (min one survivor per
    layer) and zero the dead groups."""
    for _, layer in net.hinged_layers():
        layer.mask = hinge.update_mask(layer.group_norms(), layer.mask, threshold)
        layer.apply_mask()
