"""FLOP and parameter accounting, and the compression ratio gamma.

One rule prices every layer: a layer costs the weights it keeps. A weight
costs 2 FLOPs (one multiply-accumulate) per output position and one
parameter, and each kept output adds a bias parameter; biases, activations
and pooling cost no FLOPs. A conv keeps `k = alive_in * kh * kw` weights
per kept output; the head is a 1x1 conv at one position. gamma is
always measured against the original un-hinged model.

`build_plan` is the single source of truth for what a nullified model
costs: the ratio during optimization and the search, the cost fields of
the compress report (`report`, the one place gamma is computed) and the
tensors `compaction.compact` builds all come from it. Column groups prune the outputs; row groups set a rank `r`, and the
reduced pair is kept only when `r * (k + out) < k * out`. It is the one
guard that refuses to prune a layer whose output a skip reads.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hinge
from .hinge import DECOMPOSE, PRUNE, UNTOUCHED
from .linalg import COLUMNS
from .net import Network


@dataclass
class LayerPlan:
    name: str
    mode: str                 # untouched | prune | decompose
    alive_in: int
    alive_out: int
    rank: int | None
    kept_pair: bool
    flops: int
    params: int
    flops_original: int
    params_original: int
    alive_out_idx: np.ndarray = field(repr=False)
    alive_in_idx: np.ndarray = field(repr=False)  # source's alive outputs


def _plan(name, mode, in_idx, out_idx, rank, taps, positions, nominal) -> LayerPlan:
    """The cost of a layer that reads `in_idx` and keeps `out_idx`, each
    input spanning `taps` weights, at `positions` output positions; a rank
    prices the reduced pair if it keeps fewer weights. `nominal` is the
    original layer's (inputs, outputs)."""
    k, out = len(in_idx) * taps, len(out_idx)
    kept = rank is not None and rank * (k + out) < k * out
    weights = rank * (k + out) if kept else k * out
    full = nominal[0] * taps * nominal[1]
    return LayerPlan(name, mode, len(in_idx), out, rank, kept,
                     2 * weights * positions, weights + out,
                     2 * full * positions, full + nominal[1],
                     alive_out_idx=out_idx, alive_in_idx=in_idx)


def build_plan(net: Network, threshold: float | None = None) -> list:
    """Per-layer cost plan of the network after (hypothetically) nullifying
    every group with norm below `threshold` on top of the current masks
    (min one survivor per layer). Channel removal propagates: a pruned
    output shrinks the input of every layer that reads it. A protected
    layer (its output joins a residual sum or an identity skip) may not be
    pruned. Read-only."""
    hinged = dict(net.hinged_layers())
    plans = {}
    for entry in net.arch.table:
        meta = net.layers[entry.name].meta
        in_idx = (plans[entry.source].alive_out_idx if entry.source is not None
                  else np.arange(net.arch.input_channels))
        mode, out_idx, rank = UNTOUCHED, np.arange(meta.out_channels), None
        if entry.name in hinged:
            layer = hinged[entry.name]
            alive = layer.mask
            if threshold is not None:
                alive = hinge.update_mask(layer.group_norms(), alive, threshold)
            if layer.scheme.kind == COLUMNS:
                mode, out_idx = PRUNE, np.flatnonzero(alive)
            else:
                mode, rank = DECOMPOSE, int(alive.sum())
        if entry.protected and mode == PRUNE:
            raise ValueError(f"{entry.name}: its output joins a skip connection, so it "
                             "may not be pruned; it must use row groups")
        plans[entry.name] = _plan(entry.name, mode, in_idx, out_idx, rank,
                                  meta.kernel_h * meta.kernel_w, meta.spatial,
                                  (meta.in_channels, meta.out_channels))
    return list(plans.values())


def report(plans: list) -> dict:
    """The cost fields of the compress report: totals, gamma and one row
    per layer plan."""
    flops_orig = sum(p.flops_original for p in plans)
    flops_comp = sum(p.flops for p in plans)
    return {
        "flop_convention": "2*MAC, biases and activations ignored",
        "flops_original": flops_orig,
        "flops_compressed": flops_comp,
        "params_original": sum(p.params_original for p in plans),
        "params_compressed": sum(p.params for p in plans),
        "gamma": flops_comp / flops_orig,
        "per_layer": [
            {"name": p.name, "mode": p.mode, "alive_in": p.alive_in,
             "alive_out": p.alive_out, "rank": p.rank,
             "kept_pair": p.kept_pair, "flops": p.flops, "params": p.params,
             "flops_original": p.flops_original,
             "ratio": p.flops / p.flops_original if p.flops_original else 1.0}
            for p in plans],
    }


def compression_ratio(net: Network, threshold: float | None) -> float:
    """gamma = FLOPs after hypothetical nullification at `threshold`,
    divided by the original un-hinged model's FLOPs. Pure."""
    return report(build_plan(net, threshold=threshold))["gamma"]
