"""FLOP and parameter accounting, and the compression ratio gamma.

Convention: one multiply-accumulate counts as 2 FLOPs; biases, activations
and pooling are ignored. Parameter counts include biases (they are stored
tensors). gamma is always measured against the original un-hinged model.

`build_plan` is the single source of truth for what a nullified model
costs: the hypothetical ratio during optimization, the report of the
final compacted model and the tensors `compaction.compact` builds all come
from it, so they always agree. It maps a hinge's group kind to its mode
(columns prune, rows decompose) and is the one guard that refuses to
prune a layer whose output a skip reads.
"""

from dataclasses import dataclass, field

import numpy as np

from . import hinge
from .hinge import DECOMPOSE, PRUNE, UNTOUCHED, ConvMeta
from .linalg import COLUMNS
from .net import Network


def conv_flops(meta: ConvMeta, in_alive: int, out_alive: int) -> int:
    if in_alive > meta.in_channels or out_alive > meta.out_channels:
        raise ValueError("alive counts exceed nominal channels")
    return 2 * in_alive * meta.kernel_h * meta.kernel_w * out_alive * meta.spatial


def conv_params(meta: ConvMeta, in_alive: int, out_alive: int) -> int:
    return in_alive * meta.kernel_h * meta.kernel_w * out_alive + out_alive


def pair_flops(meta: ConvMeta, in_alive: int, rank: int) -> int:
    """Reduced conv (in_alive -> rank) followed by a 1x1 back to the full
    output width."""
    return (2 * in_alive * meta.kernel_h * meta.kernel_w * rank * meta.spatial
            + 2 * rank * meta.out_channels * meta.spatial)


def pair_params(meta: ConvMeta, in_alive: int, rank: int) -> int:
    return (in_alive * meta.kernel_h * meta.kernel_w * rank
            + rank * meta.out_channels + meta.out_channels)


def decompose_saves(meta: ConvMeta, rank: int, in_alive: int | None = None) -> bool:
    """True iff keeping the reduced pair as two convolutions is strictly
    cheaper than multiplying them back into one full convolution."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    k = (in_alive if in_alive is not None else meta.in_channels) \
        * meta.kernel_h * meta.kernel_w
    return rank * (k + meta.out_channels) < k * meta.out_channels


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
    alive_out_idx: np.ndarray | None = field(default=None, repr=False)
    alive_in_idx: np.ndarray | None = field(default=None, repr=False)  # source's alive outputs


@dataclass
class CostReport:
    flops_original: int
    flops_compressed: int
    params_original: int
    params_compressed: int
    gamma: float
    per_layer: list

    def to_dict(self) -> dict:
        return {
            "flop_convention": "2*MAC, biases and activations ignored",
            "flops_original": self.flops_original,
            "flops_compressed": self.flops_compressed,
            "params_original": self.params_original,
            "params_compressed": self.params_compressed,
            "gamma": self.gamma,
            "per_layer": [
                {"name": p.name, "mode": p.mode, "alive_in": p.alive_in,
                 "alive_out": p.alive_out, "rank": p.rank,
                 "kept_pair": p.kept_pair, "flops": p.flops, "params": p.params,
                 "flops_original": p.flops_original,
                 "ratio": p.flops / p.flops_original if p.flops_original else 1.0}
                for p in self.per_layer],
        }


def _plan_conv(name, meta, in_idx):
    flops = conv_flops(meta, len(in_idx), meta.out_channels)
    return LayerPlan(name, UNTOUCHED, len(in_idx), meta.out_channels, None, False,
                     flops, conv_params(meta, len(in_idx), meta.out_channels),
                     conv_flops(meta, meta.in_channels, meta.out_channels),
                     alive_out_idx=np.arange(meta.out_channels), alive_in_idx=in_idx)


def _plan_hinged(name, layer, in_idx, threshold):
    """Cost of a hinged conv once groups below `threshold` are nullified on
    top of its mask (min one survivor). Column groups prune the layer's
    filters, row groups decompose it. Does not mutate."""
    meta = layer.meta
    alive = layer.mask
    if threshold is not None:
        alive = hinge.update_mask(layer.group_norms(), alive, threshold)
    alive_idx = np.flatnonzero(alive)
    orig = conv_flops(meta, meta.in_channels, meta.out_channels)
    if layer.scheme.kind == COLUMNS:
        flops = conv_flops(meta, len(in_idx), len(alive_idx))
        params = conv_params(meta, len(in_idx), len(alive_idx))
        return LayerPlan(name, PRUNE, len(in_idx), len(alive_idx), None, False,
                         flops, params, orig, alive_out_idx=alive_idx, alive_in_idx=in_idx)
    rank = len(alive_idx)
    kept = decompose_saves(meta, rank, in_alive=len(in_idx))
    if kept:
        flops = pair_flops(meta, len(in_idx), rank)
        params = pair_params(meta, len(in_idx), rank)
    else:
        flops = conv_flops(meta, len(in_idx), meta.out_channels)
        params = conv_params(meta, len(in_idx), meta.out_channels)
    return LayerPlan(name, DECOMPOSE, len(in_idx), meta.out_channels, rank, kept,
                     flops, params, orig,
                     alive_out_idx=np.arange(meta.out_channels), alive_in_idx=in_idx)


def build_plan(net: Network, threshold: float | None = None) -> list:
    """Per-layer cost plan of the network after (hypothetically) nullifying
    every group with norm below `threshold` on top of the current masks.
    Channel removal propagates: a pruned output shrinks the input of every
    layer that reads it. A protected layer (its output joins a residual
    sum or an identity skip) may not be pruned. Read-only."""
    hinged = dict(net.hinged_layers())
    plans = {}
    for entry in net.arch.table:
        in_idx = (plans[entry.source].alive_out_idx if entry.source is not None
                  else np.arange(net.arch.input_channels))
        if entry.name in hinged:
            plan = _plan_hinged(entry.name, hinged[entry.name], in_idx, threshold)
        else:
            plan = _plan_conv(entry.name, net.layers[entry.name].meta, in_idx)
        if entry.protected and plan.mode == PRUNE:
            raise ValueError(f"{entry.name}: its output joins a skip connection, so it "
                             "may not be pruned; it must use row groups")
        plans[entry.name] = plan
    head_idx = plans[net.arch.output].alive_out_idx
    head_in = len(head_idx)
    head_full = net.head.w.shape[0]
    classes = net.head.w.shape[1]
    head = LayerPlan("head", UNTOUCHED, head_in, classes, None, False,
                     2 * head_in * classes, head_in * classes + classes,
                     2 * head_full * classes, alive_in_idx=head_idx)
    return list(plans.values()) + [head]


def report_from_plan(plans: list, net: Network) -> CostReport:
    flops_orig = sum(p.flops_original for p in plans)
    flops_comp = sum(p.flops for p in plans)
    params_orig = (net.head.w.size + net.head.b.size
                   + sum(conv_params(e.meta, e.meta.in_channels, e.meta.out_channels)
                         for e in net.arch.table))
    params_comp = sum(p.params for p in plans)
    return CostReport(flops_original=flops_orig, flops_compressed=flops_comp,
                      params_original=params_orig, params_compressed=params_comp,
                      gamma=flops_comp / flops_orig, per_layer=plans)


def compression_ratio(net: Network, threshold: float | None) -> float:
    """gamma = FLOPs after hypothetical nullification at `threshold`,
    divided by the original un-hinged model's FLOPs. Pure."""
    plans = build_plan(net, threshold=threshold)
    return report_from_plan(plans, net).gamma
