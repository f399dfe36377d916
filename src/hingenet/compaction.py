"""Structural compaction of masked hinged networks.

Column-masked layers merge W@A and drop the dead output channels (filter
pruning); row-masked layers keep the reduced pair (W restricted to alive
columns, A to alive rows) as two convolutions when that is cheaper, and
merge back otherwise. Channel removal propagates into the next layer's
input rows, and biases ride with the output side. The compacted network
computes the same function as the masked one up to float roundoff.
`Network.state_tensors(CompactModel.modes)` writes it with a mode byte per
layer.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import cost, hinge
from .cost import build_plan, report_from_plan
from .hinge import PRUNE, UNTOUCHED
from .linalg import COLUMNS, ROWS, NumericError, matmul, quiet_overflow
from .net import Conv2d, HingedConv2d, Linear, Network


class StructuralError(RuntimeError):
    """Two models that should agree have diverging shapes."""


def compact_prune(layer: HingedConv2d):
    """Merged filter W@A with dead columns dropped, plus the surviving
    output indices for downstream propagation."""
    if layer.scheme is None or layer.scheme.kind != COLUMNS:
        raise hinge.SchemeLegalityError("prune compaction needs column groups")
    alive_idx = np.flatnonzero(layer.mask)
    merged = matmul(layer.w, layer.a)[:, alive_idx]
    return merged, alive_idx


def compact_decompose(layer: HingedConv2d):
    """(W restricted to alive columns, A restricted to alive rows); the
    product equals W @ masked-A exactly."""
    if layer.scheme is None or layer.scheme.kind != ROWS:
        raise hinge.SchemeLegalityError("decompose compaction needs row groups")
    alive_idx = np.flatnonzero(layer.mask)
    return layer.w[:, alive_idx].copy(), layer.a[alive_idx, :].copy(), alive_idx


def _restrict_input_rows(w: np.ndarray, kernel_h: int, kernel_w: int,
                         alive_in_idx: np.ndarray) -> np.ndarray:
    """Keep only the kernel-sized row blocks of W that belong to alive
    input channels (rows are ordered channel-major)."""
    k = kernel_h * kernel_w
    rows = (alive_in_idx[:, None] * k + np.arange(k)[None, :]).ravel()
    return w[rows, :].copy()


@dataclass
class CompactModel:
    network: Network
    report: cost.CostReport
    plans: list

    @property
    def modes(self) -> dict:
        return {p.name: p.mode for p in self.plans}


def propagate(net: Network, plans: list) -> CompactModel:
    """Assemble the compacted network from per-layer plans, removing dead
    channels end to end (including the classifier's input features)."""
    by_name = {p.name: p for p in plans}
    layers = {}
    for entry in net.arch.table:
        in_idx = (by_name[entry.source].alive_out_idx if entry.source is not None
                  else np.arange(net.arch.input_channels))
        layers[entry.name] = _compact_layer(net.layers[entry.name], by_name[entry.name],
                                            in_idx)
    in_idx = by_name[net.arch.output].alive_out_idx
    new_head = Linear(len(in_idx), net.head.w.shape[1],
                      w=net.head.w[in_idx, :].copy(), b=net.head.b.copy())
    compact_net = Network(net.arch, layers, new_head)
    report = report_from_plan(plans, net)
    return CompactModel(network=compact_net, report=report, plans=plans)


def _compact_conv(conv: Conv2d, in_idx: np.ndarray) -> Conv2d:
    meta = replace(conv.meta, in_channels=len(in_idx))
    w = _restrict_input_rows(conv.w, meta.kernel_h, meta.kernel_w, in_idx)
    out = Conv2d(meta, w=w, b=conv.b.copy())
    out.needs_input_grad = conv.needs_input_grad
    return out


def _compact_layer(layer, plan, in_idx: np.ndarray):
    if plan.mode == UNTOUCHED:
        return _compact_conv(layer, in_idx)
    meta = layer.meta
    if plan.mode == PRUNE:
        merged, alive_idx = compact_prune(layer)
        merged = _restrict_input_rows(merged, meta.kernel_h, meta.kernel_w, in_idx)
        new_meta = replace(meta, in_channels=len(in_idx), out_channels=len(alive_idx))
        return Conv2d(new_meta, w=merged, b=layer.b[alive_idx].copy())
    w_r, a_r, _ = compact_decompose(layer)
    w_r = _restrict_input_rows(w_r, meta.kernel_h, meta.kernel_w, in_idx)
    new_meta = replace(meta, in_channels=len(in_idx))
    if plan.kept_pair:
        return HingedConv2d(new_meta, w_r, a_r, b=layer.b.copy(), scheme=None)
    return Conv2d(new_meta, w=matmul(w_r, a_r), b=layer.b.copy())


def compact(net: Network) -> CompactModel:
    """Compact `net` according to its current masks. The masks are applied
    (dead groups zeroed) first, which is the state the equivalence claim
    refers to."""
    for _, layer in net.hinged_layers():
        layer.apply_mask()
    plans = build_plan(net, threshold=None)
    return propagate(net, plans)


@quiet_overflow()
def verify_equivalence(model_a: Network, model_b: Network, n_inputs: int = 32,
                       seed: int = 0) -> float:
    """Max absolute logit deviation between the two models over seeded
    random inputs, by the inference forward."""
    arch = model_a.arch
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n_inputs, arch.input_channels,
                                   arch.input_h, arch.input_w))
    la = model_a.forward(x, cache=False)
    lb = model_b.forward(x, cache=False)
    if la.shape != lb.shape:
        raise StructuralError(f"logit shapes diverge: {la.shape} vs {lb.shape}")
    if not (np.all(np.isfinite(la)) and np.all(np.isfinite(lb))):
        raise NumericError("equivalence check: non-finite logits")
    return float(np.max(np.abs(la - lb)))

