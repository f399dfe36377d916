"""Proximal-gradient compression and the nullifying-threshold search.

Each epoch is one `train.sgd_epoch` pass, the batch loop training uses.
Its per-batch step gives the filter weights a small plain-SGD step while
each hinge matrix takes a gradient step followed by the closed-form group
prox, and is then masked once: its dead groups, and a pruned layer's dead
biases, are zeroed. The pass has checked the loss and every gradient before
the step runs. At the end of every epoch, groups whose norm fell below the
nullifying threshold are masked (permanently), the compression ratio is
recomputed, and the learning rate of the first matrix in each residual pair
is adjusted by the ratio of the mean alive gradient group norms. Each epoch
starts by rebalancing each layer's regularization factor by its mean alive
group norm (`hinge.mean_alive_norm`). The loop stops when the ratio is
within the stop margin of the target.

The threshold search afterwards bisects the sorted alive group norms: the
ratio is a non-increasing staircase in the threshold that steps only at
those norms, so the search returns the step closest to the target. Exact
closeness may be unattainable, and the result carries an exactness flag.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import hinge, losses
from .cost import compression_ratio
from .linalg import NumericError, quiet_overflow
from .net import HINGE, WEIGHT, Network
from .regularizers import RegularizerSpec, prox
from .train import sgd_epoch


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
    max_epochs: int = 500
    seed: int = 0
    batch_size: int = 32

    def __post_init__(self):
        if not 0.0 < self.target_ratio < 1.0:
            raise ValueError("target_ratio must be in (0, 1)")
        if self.stop_margin <= 0:
            raise ValueError("stop_margin must be positive")

    @property
    def eta_s(self) -> float:
        return self.lr_ratio * self.eta


@dataclass
class CompressionState:
    gamma_c: float = 1.0
    converged: bool = False
    gamma_history: list = field(default_factory=list)


def sgd_step_w(param: np.ndarray, grad: np.ndarray, eta_s: float,
               mu: float) -> np.ndarray:
    """One plain SGD step with weight decay folded into the gradient."""
    return param - eta_s * (grad + mu * param)


def prox_step_a(layer, grad_a: np.ndarray, lr: float, kind: str,
                layer_lambda: float) -> np.ndarray:
    """The hinge matrix after a gradient step and the group prox of
    regularizer `kind` at strength layer_lambda * lr. Dead groups are not
    zeroed here: the phase's step masks the layer once it assigns it. The
    layer is not changed."""
    moved = layer.a - lr * grad_a
    return prox(moved, layer.scheme, kind, layer_lambda * lr)


def balance_lambda(layer, base_lambda: float) -> float:
    """Layer regularization factor: base factor times the mean alive group
    norm, so layers with large norms get proportionally more shrinkage."""
    return base_lambda * hinge.mean_alive_norm(layer.a, layer.scheme, layer.mask)


def adjust_learning_rates(pairs, grad_sums: dict, eta: float, m: float,
                          prev_rho: dict, warn=None) -> tuple[dict, dict]:
    """Per-matrix learning rates for the next epoch. For each residual
    pair, rho is the ratio of mean gradient group norms (first over second
    matrix) and the first matrix's lr is eta / rho^m; an lr that is not
    finite, or is zero, raises NumericError. Returns the lr per matrix id
    and the rho per block."""
    lr_map = {}
    rho_map = {}
    for block_name, conv1, conv2 in pairs:
        g1 = grad_sums[id(conv1)]
        g2 = grad_sums[id(conv2)]
        mean1 = hinge.mean_alive_norm(g1, conv1.scheme, conv1.mask)
        mean2 = hinge.mean_alive_norm(g2, conv2.scheme, conv2.mask)
        if mean2 == 0.0 or not math.isfinite(mean1 / mean2) or mean1 == 0.0:
            rho = prev_rho.get(block_name, 1.0)
            if warn is not None:
                warn({"event": "rho_degenerate", "block": block_name,
                      "kept_rho": rho})
        else:
            rho = mean1 / mean2
        rho_map[block_name] = rho
        try:
            lr = eta / rho ** m
        except (OverflowError, ZeroDivisionError):
            lr = math.nan
        if not math.isfinite(lr) or lr == 0.0:
            raise NumericError(f"{block_name}: learning rate eta / rho^m is zero or not "
                               f"finite (rho {rho:.6g}, compress.m {m:g})")
        lr_map[id(conv1)] = lr
        lr_map[id(conv2)] = eta
    return lr_map, rho_map


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
    lr_map = {id(layer): config.eta for _, layer in hinged}
    prev_rho = {}
    rng = np.random.default_rng(config.seed)

    def score(logits, idx):
        return losses.cross_entropy(logits, dataset.y_train[idx])

    def step():  # reads this epoch's lr_map, lam_l and grad_sums
        # every prox runs before any tensor moves, so one that raises
        # leaves the network as it was
        new_a = [prox_step_a(layer, layer.grad_a, lr_map[id(layer)],
                             config.regularizer.kind, lam_l[name]) for name, layer in hinged]
        for _, kind, layer, attr in net.params():
            if kind == HINGE:
                continue
            mu = config.weight_decay if kind == WEIGHT else 0.0
            setattr(layer, attr, sgd_step_w(getattr(layer, attr),
                                            getattr(layer, f"grad_{attr}"),
                                            config.eta_s, mu))
        for (_, layer), a in zip(hinged, new_a):
            grad_sums[id(layer)] += layer.grad_a
            layer.a = a
            layer.apply_mask()  # the step's one mask: dead groups and dead biases

    for epoch in range(config.max_epochs):
        lam_l = {name: balance_lambda(layer, config.regularizer.lam)
                 for name, layer in hinged}
        grad_sums = {id(layer): np.zeros_like(layer.a) for _, layer in hinged}
        sgd_epoch(net, dataset, config.batch_size, rng, score, step, "compression", epoch)

        # Epoch end: mask, measure, adjust.
        apply_threshold(net, config.nullify_threshold)
        state.gamma_c = compression_ratio(net, None)  # prices the masks just set
        state.gamma_history.append(state.gamma_c)
        mean_norms = {name: hinge.mean_alive_norm(layer.a, layer.scheme, layer.mask)
                      for name, layer in hinged}
        if pairs:  # layers outside a residual pair keep eta
            pair_lr, prev_rho = adjust_learning_rates(
                pairs, grad_sums, config.eta, config.m, prev_rho, warn=log)
            lr_map.update(pair_lr)

        if log is not None:
            log({"epoch": epoch, "gamma_c": state.gamma_c,
                 "mean_group_norms": mean_norms,
                 "alive_groups": {name: int(layer.mask.sum()) for name, layer in hinged},
                 "lambda_layer": dict(lam_l),
                 "rho": dict(prev_rho) if pairs else {}})
        if state.gamma_c - config.target_ratio <= config.stop_margin:
            state.converged = True
            break
    return state


@dataclass
class ThresholdSearchResult:
    threshold: float
    gamma: float
    exact: bool
    iterations: int   # compression-ratio probes


def binary_search_threshold(net: Network, target: float,
                            criterion: float = 0.005) -> ThresholdSearchResult:
    """The nullifying threshold whose compression ratio is closest to
    `target`, ties to the smaller threshold. The ratio is a non-increasing
    staircase that steps only at alive group norms, so the candidates are
    the sorted unique alive norms, then the next float above the largest
    (the masks of an infinite threshold, but finite). Bisection finds the
    first candidate at or below the target in at most ceil(log2 n) + 1
    probes; the answer is it or its predecessor. `exact` says whether the
    ratio is within `criterion` of the target."""
    if criterion <= 0:
        raise ValueError("criterion must be positive")
    norms = np.unique(np.concatenate([
        layer.group_norms()[layer.mask] for _, layer in net.hinged_layers()]))
    candidates = np.append(norms, np.nextafter(norms[-1], np.inf))
    # ratio(candidates[lo]) > target >= ratio(candidates[hi]); the ends
    # -1 and n stand for ratios above and below every target
    lo, hi, gammas = -1, len(candidates), {}
    while hi - lo > 1:
        mid = (lo + hi) // 2
        gammas[mid] = compression_ratio(net, float(candidates[mid]))
        lo, hi = (mid, hi) if gammas[mid] > target else (lo, mid)
    if lo < 0 or (hi < len(candidates) and target - gammas[hi] < gammas[lo] - target):
        lo = hi
    return ThresholdSearchResult(float(candidates[lo]), gammas[lo],
                                 abs(gammas[lo] - target) <= criterion, len(gammas))


def apply_threshold(net: Network, threshold: float) -> None:
    """Permanently mask every group below `threshold` (min one survivor per
    layer) and zero the dead groups."""
    for _, layer in net.hinged_layers():
        layer.mask = hinge.update_mask(layer.group_norms(), layer.mask, threshold)
        layer.apply_mask()
