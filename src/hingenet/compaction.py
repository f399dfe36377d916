"""Structural compaction of masked hinged networks.

Column-masked layers merge W@A and drop the dead output channels (filter
pruning); row-masked layers keep the reduced pair (W restricted to alive
columns, A to alive rows) as two convolutions when that is cheaper, and
merge back otherwise. Channel removal propagates into the next layer's
input rows, and biases ride with the output side. The compacted network
computes the same function as the masked one up to float roundoff.
"""

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import checkpoint, cost, hinge
from .cost import build_plan, report_from_plan
from .hinge import DECOMPOSE, PRUNE, UNTOUCHED
from .linalg import COLUMNS, ROWS, matmul
from .net import ArchSpec, BasicBlock, Conv2d, HingedConv2d, Linear, Network, PlainBlock

MODE_BYTES = {UNTOUCHED: 0, PRUNE: 1, DECOMPOSE: 2}
MODE_NAMES = {v: k for k, v in MODE_BYTES.items()}


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
    in_idx = np.arange(net.arch.input_channels)

    stem_plan = by_name["stem"]
    new_stem = _compact_conv(net.stem, in_idx)
    in_idx = stem_plan.alive_out_idx

    new_blocks = []
    for i, blk in enumerate(net.blocks):
        if blk.kind == "plain":
            plan = by_name[f"block{i}.conv"]
            new_blocks.append(PlainBlock(_compact_layer(blk.conv, plan, in_idx)))
            in_idx = plan.alive_out_idx
        else:
            block_in = in_idx
            p1 = by_name[f"block{i}.conv1"]
            p2 = by_name[f"block{i}.conv2"]
            if p2.mode == PRUNE:
                raise StructuralError(
                    f"block{i}.conv2: output of a skip-connected block was pruned")
            c1 = _compact_layer(blk.conv1, p1, block_in)
            c2 = _compact_layer(blk.conv2, p2, p1.alive_out_idx)
            down = (_compact_conv(blk.downsample, block_in)
                    if blk.downsample is not None else None)
            new_blocks.append(BasicBlock(c1, c2, down))
            in_idx = p2.alive_out_idx

    new_head = Linear(len(in_idx), net.head.w.shape[1],
                      w=net.head.w[in_idx, :].copy(), b=net.head.b.copy())
    compact_net = Network(net.arch, new_stem, new_blocks, new_head)
    report = report_from_plan(plans, net)
    return CompactModel(network=compact_net, report=report, plans=plans)


def _compact_conv(conv: Conv2d, in_idx: np.ndarray) -> Conv2d:
    meta = conv.meta.with_channels(in_channels=len(in_idx))
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
        new_meta = meta.with_channels(in_channels=len(in_idx), out_channels=len(alive_idx))
        return Conv2d(new_meta, w=merged, b=layer.b[alive_idx].copy())
    w_r, a_r, _ = compact_decompose(layer)
    w_r = _restrict_input_rows(w_r, meta.kernel_h, meta.kernel_w, in_idx)
    new_meta = meta.with_channels(in_channels=len(in_idx))
    if plan.kept_pair:
        return HingedConv2d(new_meta, w_r, a_r, b=layer.b.copy(), scheme=None)
    return Conv2d(new_meta, w=matmul(w_r, a_r), b=layer.b.copy())


def compact(net: Network, mode_map: dict | None = None) -> CompactModel:
    """Compact `net` according to its current masks. The masks are applied
    (dead groups zeroed) first, which is the state the equivalence claim
    refers to."""
    for _, layer in net.hinged_layers():
        layer.apply_mask()
    plans = build_plan(net, threshold=None, mode_map=mode_map)
    return propagate(net, plans)


def verify_equivalence(model_a: Network, model_b: Network, n_inputs: int = 32,
                       seed: int = 0) -> float:
    """Max absolute logit deviation between the two models over seeded
    random inputs."""
    arch = model_a.arch
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n_inputs, arch.input_channels,
                                   arch.input_h, arch.input_w))
    la = model_a.forward(x)
    lb = model_b.forward(x)
    if la.shape != lb.shape:
        raise StructuralError(f"logit shapes diverge: {la.shape} vs {lb.shape}")
    return float(np.max(np.abs(la - lb)))


# --------------------------------------------------------------------------
# Serialization: same container as training checkpoints plus a mode byte
# per layer record.
# --------------------------------------------------------------------------

def tensors_with_modes(network: Network, modes: dict) -> OrderedDict:
    """Layer tensors in topological order, each preceded by its mode byte.
    Decompose pairs keep their natural W/A tensor names."""
    out = OrderedDict()
    for name, layer in network.named_layers():
        mode = modes.get(name, UNTOUCHED)
        mode_byte = mode if isinstance(mode, int) else MODE_BYTES[mode]
        out[f"{name}/mode"] = np.array([mode_byte], dtype=np.uint8)
        out.update(layer.state_tensors(name))
    return out


def compact_state_tensors(model: CompactModel) -> OrderedDict:
    return tensors_with_modes(model.network, model.modes)


def save_compact(path, model: CompactModel) -> None:
    checkpoint.save(path, compact_state_tensors(model))


def _meta_chain(arch: ArchSpec):
    """Nominal conv metas per layer name, following the architecture."""
    from .net import _conv_meta
    metas = {}
    h, w = arch.input_h, arch.input_w
    metas["stem"] = _conv_meta(arch.input_channels, arch.stem_channels, 3, 1, 1, h, w)
    in_ch = arch.stem_channels
    for i, bd in enumerate(arch.blocks):
        if bd.kind == "plain":
            metas[f"block{i}.conv"] = _conv_meta(in_ch, bd.channels, 3, bd.stride, 1, h, w)
            last = metas[f"block{i}.conv"]
        else:
            m1 = _conv_meta(in_ch, bd.channels, 3, bd.stride, 1, h, w)
            m2 = _conv_meta(bd.channels, bd.channels, 3, 1, 1, m1.out_h, m1.out_w)
            metas[f"block{i}.conv1"] = m1
            metas[f"block{i}.conv2"] = m2
            if bd.stride != 1 or in_ch != bd.channels:
                metas[f"block{i}.down"] = _conv_meta(in_ch, bd.channels, 1, bd.stride, 0, h, w)
            last = m2
        h, w = last.out_h, last.out_w
        in_ch = bd.channels
    return metas


def network_from_compact_checkpoint(arch: ArchSpec, tensors) -> Network:
    """Rebuild a compacted network from its checkpoint; channel counts come
    from the stored tensor shapes."""
    metas = _meta_chain(arch)

    def tensor(key):
        if key not in tensors:
            raise checkpoint.CheckpointError(f"checkpoint missing tensor {key!r}")
        return tensors[key]

    def rebuild(name):
        kh_kw = metas[name].kernel_h * metas[name].kernel_w
        if f"{name}/A" in tensors:
            w_r = tensor(f"{name}/W")
            a_r = tensor(f"{name}/A")
            meta = metas[name].with_channels(in_channels=w_r.shape[0] // kh_kw,
                                             out_channels=a_r.shape[1])
            return HingedConv2d(meta, w_r, a_r, b=tensor(f"{name}/b"), scheme=None)
        w = tensor(f"{name}/W")
        meta = metas[name].with_channels(in_channels=w.shape[0] // kh_kw,
                                         out_channels=w.shape[1])
        return Conv2d(meta, w=w, b=tensor(f"{name}/b"))

    stem = rebuild("stem")
    stem.needs_input_grad = False
    blocks = []
    for i, bd in enumerate(arch.blocks):
        if bd.kind == "plain":
            blocks.append(PlainBlock(rebuild(f"block{i}.conv")))
        else:
            down = rebuild(f"block{i}.down") if f"block{i}.down/W" in tensors else None
            blocks.append(BasicBlock(rebuild(f"block{i}.conv1"),
                                     rebuild(f"block{i}.conv2"), down))
    head_w = tensor("head/W")
    head = Linear(head_w.shape[0], head_w.shape[1], w=head_w, b=tensor("head/b"))
    return Network(arch, stem, blocks, head)
