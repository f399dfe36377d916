"""Proximal-gradient compression and the nullifying-threshold search.

Each epoch is one `train.sgd_epoch` pass, the batch loop training uses.
Its per-batch step gives the filters and biases a small plain-SGD step, a
`train.SgdMomentum` without momentum (weight decay `train.weight_decay` on
the filters), while each hinge matrix takes a gradient step and
the closed-form group prox at its layer's λ, the base λ times the layer's
mean alive group norm (`hinge.mean_alive_norm`); then it masks each hinge
once, zeroing its dead groups and a pruned layer's dead biases. The pass
has checked the loss and every gradient before the step runs. At the end
of every epoch, groups whose norm fell below the nullifying threshold are
masked (permanently), the ratio and the mean alive group norms (the next
epoch's λ balance) are measured, and the first matrix of each residual
pair gets the lr of the gradient-ratio rule. The phase keys every
per-layer map by layer name. The loop stops when the ratio is within the
stop margin of the target.

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
from .net import HINGE, Network
from .regularizers import RegularizerSpec, prox
from .train import SgdMomentum, sgd_epoch


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
    weight_decay: float = 1e-4        # the run's train.weight_decay
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


def adjust_learning_rates(pairs, hinged: dict, grad_sums: dict, eta: float, m: float,
                          prev_rho: dict, warn=None) -> tuple[dict, dict]:
    """Per-matrix learning rates for the next epoch. For each residual
    pair (block, first conv, second conv; layer names into `hinged` and
    `grad_sums`), rho is the ratio of mean alive gradient group norms
    (first over second matrix) and the first matrix's lr is eta / rho^m;
    an lr that is not finite, or is zero, raises NumericError. Returns the
    lr per layer name and the rho per block."""
    lr_map = {}
    rho_map = {}
    for block_name, first, second in pairs:
        mean1, mean2 = (hinge.mean_alive_norm(grad_sums[name], hinged[name].scheme,
                                              hinged[name].mask) for name in (first, second))
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
        lr_map[first] = lr
        lr_map[second] = eta
    return lr_map, rho_map


def _mean_norms(hinged: dict) -> dict:
    return {name: hinge.mean_alive_norm(layer.a, layer.scheme, layer.mask)
            for name, layer in hinged.items()}


@quiet_overflow()
def run_compression(net: Network, dataset, config: CompressionConfig,
                    log=None) -> CompressionState:
    """Loop epochs of (filter SGD + hinge prox-gradient) until the
    compression ratio is within stop_margin above the target or max_epochs
    is hit. Masks are permanent, so the ratio is non-increasing across
    epochs."""
    state = CompressionState()
    hinged = dict(net.hinged_layers())
    if not hinged:
        raise ValueError("run_compression needs a hinged network")
    # the lr rule's (block, first conv, second conv) of every residual block
    # hinged on both convs; any other hinge keeps eta
    pairs = [(entry.name.rpartition(".")[0], entry.source, entry.name)
             for entry in net.arch.table
             if entry.position == hinge.SECOND_IN_BASIC
             and entry.name in hinged and entry.source in hinged]
    lr = dict.fromkeys(hinged, config.eta)
    rho = {}
    mean_norms = _mean_norms(hinged)  # epoch 0 balances lambda by the attach-time norms
    kind, lam_base = config.regularizer.kind, config.regularizer.lam
    rng = np.random.default_rng(config.seed)

    def score(logits, idx):
        return losses.cross_entropy(logits, dataset.y_train[idx])

    # every hinge is replaced by its prox each step, so no optimizer holds it
    filters = SgdMomentum([p for p in net.params() if p[1] != HINGE], config.eta_s,
                          momentum=0.0, weight_decay=config.weight_decay)

    def step():  # reads this epoch's lr, lam and grad_sums
        # every prox runs before any tensor moves, so one that raises
        # leaves the network as it was
        new_a = {name: prox(layer.a - lr[name] * layer.grad_a, layer.scheme, kind,
                            lam[name] * lr[name]) for name, layer in hinged.items()}
        filters.step()
        for name, layer in hinged.items():
            grad_sums[name] += layer.grad_a
            layer.a = new_a[name]
            layer.apply_mask()  # the step's one mask: dead groups and dead biases

    for epoch in range(config.max_epochs):
        lam = {name: lam_base * mean for name, mean in mean_norms.items()}
        grad_sums = {name: np.zeros_like(layer.a) for name, layer in hinged.items()}
        sgd_epoch(net, dataset, config.batch_size, rng, score, step, "compression", epoch)

        # Epoch end: mask, measure, adjust.
        apply_threshold(net, config.nullify_threshold)
        state.gamma_c = compression_ratio(net, None)  # prices the masks just set
        state.gamma_history.append(state.gamma_c)
        mean_norms = _mean_norms(hinged)  # the next epoch's too: nothing moves in between
        pair_lr, rho = adjust_learning_rates(pairs, hinged, grad_sums, config.eta, config.m,
                                             rho, warn=log)
        lr.update(pair_lr)

        if log is not None:
            log({"epoch": epoch, "gamma_c": state.gamma_c,
                 "mean_group_norms": mean_norms,
                 "alive_groups": {name: int(layer.mask.sum()) for name, layer in hinged.items()},
                 "lambda_layer": lam, "rho": rho})
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
