"""Structural compaction of masked hinged networks.

`compact` turns the cost plan of a masked network into the tensors of a
compacted checkpoint and reads them with `net.network_from_tensors`, so a
compacted network is built, and checked against its architecture, by the
code that loads one from disk. Column-masked layers merge W@A and drop the
dead output channels (filter pruning); row-masked layers keep the reduced
pair (W restricted to alive columns, A to alive rows) as two convolutions
when that is cheaper, and merge back otherwise. Channel removal propagates
into the next layer's input rows, and biases ride with the output side.
The compacted network computes the same function as the masked one up to
float roundoff. `compact` returns it, carrying the plan's layer modes,
with the cost plan it was built from, which `cost.report` prices.
"""

from typing import NamedTuple

import numpy as np

from .cost import build_plan
from .hinge import MODE_BYTES, PRUNE, UNTOUCHED
from .linalg import NumericError, matmul, quiet_overflow
from .net import Network, network_from_tensors


class StructuralError(RuntimeError):
    """Two models that should agree have diverging shapes."""


def _conv_tensors(layer, plan) -> dict:
    """W, A for a kept pair, and b of one compacted conv. W keeps the
    kernel-sized row blocks of the plan's alive input channels (rows are
    channel-major), selected after W@A for a pruned layer and before a
    decomposed pair is merged back."""
    k = layer.meta.kernel_h * layer.meta.kernel_w
    rows = (plan.alive_in_idx[:, None] * k + np.arange(k)).ravel()
    if plan.mode == UNTOUCHED:
        return {"W": layer.w[rows], "b": layer.b.copy()}
    alive = np.flatnonzero(layer.mask)
    if plan.mode == PRUNE:
        return {"W": matmul(layer.w, layer.a)[np.ix_(rows, alive)], "b": layer.b[alive]}
    w, a = layer.w[np.ix_(rows, alive)], layer.a[alive]
    if plan.kept_pair:
        return {"W": w, "A": a, "b": layer.b.copy()}
    return {"W": matmul(w, a), "b": layer.b.copy()}


class Compacted(NamedTuple):
    network: Network
    plans: list   # cost.LayerPlan per layer, in table order


def compact(net: Network) -> Compacted:
    """Compact `net` according to its current masks; the network and the
    plan it was built from. The masks are applied (dead groups zeroed)
    first, which is the state the equivalence claim refers to. Dead
    channels are removed end to end, the head's input channels included."""
    for _, layer in net.hinged_layers():
        layer.apply_mask()
    plans = build_plan(net, threshold=None)
    tensors = {f"{p.name}/mode": np.array([MODE_BYTES[p.mode]], dtype=np.uint8)
               for p in plans}
    for plan in plans:
        for key, t in _conv_tensors(net.layers[plan.name], plan).items():
            tensors[f"{plan.name}/{key}"] = t
    return Compacted(network_from_tensors(net.arch, tensors), plans)


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

