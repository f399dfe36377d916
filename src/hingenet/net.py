"""A small CNN with hand-written reverse-mode gradients.

Convolution is realized as one matrix product over im2col patches, so a
hinged layer is literally `patches @ W @ A` and the compression math and
the network math share the same code path. Blocks are either a plain
conv+relu or a residual pair of 3x3 convs with an optional projection on
the skip path. All parameters are float64 numpy arrays. Only the caching
forward (`cache=True`, the default) keeps what backward needs; an
inference forward (`cache=False`) drops every layer's cache, so a conv's
patch matrix is freed as soon as its output exists, and a backward after
it raises.

Layer table: `layer_table` lists every conv of an `ArchSpec` in checkpoint
order with its nominal geometry, the layer it reads, its hinge position
and whether a skip protects its output. Building, hinging, cost planning,
compaction and checkpoint reading all iterate that table; block classes
only run forward and backward.

Checkpoints: `Network.state_tensors` writes every checkpoint and
`network_from_tensors` reads every one back, baseline or compacted.

Memory layout: activations are logically (B, C, H, W) but physically
channels-last, because a conv output is the (B*H*W, C) product reshaped
and viewed as NCHW. `im2col` reads its input through the free
`transpose(0, 2, 3, 1)` view and emits patch features in (kh, kw, c)
order; `col2im` returns an NCHW view of channels-last memory, so neither
direction makes a layout copy. `col2im` is the whole conv input gradient:
it multiplies the output gradient by one kernel tap's filter rows at a
time and adds each product into that tap's window, so the
(B*out_h*out_w, kh*kw*C) patch-gradient matrix is never built. Stored `W`
rows keep the (c, kh, kw) order that the checkpoints, the SVD in
`hinge.attach` and compaction's row restriction use; `_patch_rows` is the
one place that permutes them, so the checkpoint format and its meaning are
unchanged.
"""

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint, hinge, linalg
from .hinge import ConvMeta
from .linalg import matmul

WEIGHT = "weight"   # updated by plain SGD, subject to weight decay
BIAS = "bias"       # updated by plain SGD, no decay
HINGE = "hinge"     # the sparsity-inducing matrices, updated by prox steps


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (B, C, H, W) into (B*out_h*out_w, kh*kw*C) patch rows with
    feature order (kernel row, kernel col, channel)."""
    b, c, h, w = x.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    xs = x.transpose(0, 2, 3, 1)  # free when x is physically channels-last
    if pad:
        xp = np.zeros((b, h + 2 * pad, w + 2 * pad, c), dtype=np.float64)
        xp[:, pad:pad + h, pad:pad + w] = xs
    else:
        xp = xs
    # (b, oh', ow', c, kh, kw) strided view; the reshape gathers the patches
    # in one copy that reads runs of kw*c contiguous values
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b * out_h * out_w, kh * kw * c)


def col2im(dz: np.ndarray, w: np.ndarray, x_shape, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Input gradient of the conv `im2col(x) @ w`: the adjoint of im2col
    applied to `dz @ w.T`, one kernel tap at a time. `w` has im2col's
    (kh, kw, c) row order. The result is a (B, C, H, W) view of
    channels-last memory."""
    b, c, h, w_in = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w_in + 2 * pad - kw) // stride + 1
    dxp = np.zeros((b, h + 2 * pad, w_in + 2 * pad, c), dtype=np.float64)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            tap = (i * kw + j) * c
            dtap = matmul(dz, w[tap:tap + c].T)
            dxp[:, i:i_end:stride, j:j_end:stride] += dtap.reshape(b, out_h, out_w, c)
    return dxp[:, pad:pad + h, pad:pad + w_in].transpose(0, 3, 1, 2)


def _cached(layer):
    """What the layer's last caching forward kept for its backward."""
    if layer._cache is None:
        raise RuntimeError("backward called before forward")
    return layer._cache


def _patch_rows(w: np.ndarray, meta: ConvMeta, inverse: bool = False) -> np.ndarray:
    """Permute the rows of a (patch_size x k) matrix from the stored
    (c, kh, kw) order to im2col's (kh, kw, c) order, or back."""
    c, kh, kw = meta.in_channels, meta.kernel_h, meta.kernel_w
    if inverse:
        w4 = w.reshape(kh, kw, c, -1).transpose(2, 0, 1, 3)
    else:
        w4 = w.reshape(c, kh, kw, -1).transpose(1, 2, 0, 3)
    return w4.reshape(meta.patch_size, -1)


class Conv2d:
    """Convolution stored as a (patch_size x out_channels) matrix plus bias."""

    def __init__(self, meta: ConvMeta, w: np.ndarray | None = None,
                 b: np.ndarray | None = None, rng: np.random.Generator | None = None):
        self.meta = meta
        if w is None:
            std = np.sqrt(2.0 / meta.patch_size)
            w = rng.normal(0.0, std, size=(meta.patch_size, meta.out_channels))
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.b = (np.zeros(meta.out_channels) if b is None
                  else np.ascontiguousarray(b, dtype=np.float64))
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self.needs_input_grad = True  # the stem turns this off
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        m = self.meta
        self._cache = None  # free the previous batch's patches before unfolding
        col = im2col(x, m.kernel_h, m.kernel_w, m.stride, m.padding)
        w = _patch_rows(self.w, m)
        z = matmul(col, w) + self.b
        if cache:
            self._cache = (x.shape, col, w)
        b = x.shape[0]
        return z.reshape(b, m.out_h, m.out_w, m.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        x_shape, col, w = _cached(self)
        m = self.meta
        dz = dy.transpose(0, 2, 3, 1).reshape(-1, m.out_channels)
        self.grad_w += _patch_rows(matmul(col.T, dz), m, inverse=True)
        self.grad_b += dz.sum(axis=0)
        if not self.needs_input_grad:
            return None
        return col2im(dz, w, x_shape, m.kernel_h, m.kernel_w, m.stride, m.padding)

    def params(self, prefix: str):
        yield f"{prefix}/W", WEIGHT, self, "w"
        yield f"{prefix}/b", BIAS, self, "b"


class HingedConv2d:
    """Convolution followed by its hinge: `patches @ w @ a + b`.

    `w` is (patch_size x rank), `a` is (rank x out_channels); a freshly
    attached layer has rank == out_channels and a square `a`. `scheme` and
    `mask` exist only while the layer is being compressed; a decomposed
    compact layer reuses this class with scheme=None and a rectangular `a`.
    """

    def __init__(self, meta: ConvMeta, w: np.ndarray, a: np.ndarray,
                 b: np.ndarray | None = None,
                 scheme: linalg.GroupScheme | None = None,
                 mask: np.ndarray | None = None):
        self.meta = meta
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.a = np.ascontiguousarray(a, dtype=np.float64)
        if self.w.shape[0] != meta.patch_size:
            raise linalg.DimensionError(
                f"filter rows {self.w.shape[0]} != patch size {meta.patch_size}")
        if self.w.shape[1] != self.a.shape[0] or self.a.shape[1] != meta.out_channels:
            raise linalg.DimensionError(
                f"hinge shapes {self.w.shape} x {self.a.shape} do not produce "
                f"{meta.out_channels} outputs")
        self.b = (np.zeros(meta.out_channels) if b is None
                  else np.ascontiguousarray(b, dtype=np.float64))
        self.scheme = scheme
        self.mask = mask if mask is not None else (
            np.ones(scheme.group_count, dtype=bool) if scheme is not None else None)
        self.grad_w = np.zeros_like(self.w)
        self.grad_a = np.zeros_like(self.a)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def group_norms(self) -> np.ndarray:
        return linalg.group_norms(self.a, self.scheme)

    def stats(self) -> hinge.GroupStats:
        return hinge.group_stats(self.a, self.scheme, self.mask)

    def apply_mask(self) -> None:
        """Zero every dead group of `a`; for column groups the matching
        bias entries go too, so a dead output channel is exactly zero."""
        self.a = hinge.apply_mask(self.a, self.scheme, self.mask)
        if self.scheme.kind == linalg.COLUMNS:
            self.b = self.b * self.mask.astype(np.float64)

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        m = self.meta
        self._cache = None  # free the previous batch's patches before unfolding
        col = im2col(x, m.kernel_h, m.kernel_w, m.stride, m.padding)
        w = _patch_rows(self.w, m)
        pre = matmul(col, w)
        z = matmul(pre, self.a) + self.b
        if cache:
            self._cache = (x.shape, col, w, pre)
        b = x.shape[0]
        return z.reshape(b, m.out_h, m.out_w, m.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_shape, col, w, pre = _cached(self)
        m = self.meta
        dz = dy.transpose(0, 2, 3, 1).reshape(-1, m.out_channels)
        self.grad_a += matmul(pre.T, dz)
        self.grad_b += dz.sum(axis=0)
        dpre = matmul(dz, self.a.T)
        self.grad_w += _patch_rows(matmul(col.T, dpre), m, inverse=True)
        return col2im(dpre, w, x_shape, m.kernel_h, m.kernel_w, m.stride, m.padding)

    def params(self, prefix: str):
        yield f"{prefix}/W", WEIGHT, self, "w"
        yield f"{prefix}/A", HINGE, self, "a"
        yield f"{prefix}/b", BIAS, self, "b"


class ReLU:
    def __init__(self):
        self._cache = None

    def forward(self, x, cache: bool = True):
        mask = x > 0
        self._cache = mask if cache else None
        return x * mask

    def backward(self, dy):
        return dy * _cached(self)


class GlobalAvgPool:
    def __init__(self):
        self._cache = None

    def forward(self, x, cache: bool = True):
        self._cache = x.shape if cache else None
        return x.mean(axis=(2, 3))

    def backward(self, dy):
        b, c, h, w = _cached(self)
        # channels-last like the activations, so no conv backward copies it
        return np.broadcast_to(dy[:, None, None, :] / (h * w), (b, h, w, c)).transpose(0, 3, 1, 2)


class Linear:
    def __init__(self, in_features: int, out_features: int,
                 w: np.ndarray | None = None, b: np.ndarray | None = None,
                 rng: np.random.Generator | None = None):
        if w is None:
            std = np.sqrt(1.0 / in_features)
            w = rng.normal(0.0, std, size=(in_features, out_features))
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.b = np.zeros(out_features) if b is None else np.ascontiguousarray(b, dtype=np.float64)
        self.grad_w = np.zeros_like(self.w)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None

    def forward(self, x, cache: bool = True):
        self._cache = x if cache else None
        return matmul(x, self.w) + self.b

    def backward(self, dy):
        x = _cached(self)
        self.grad_w += matmul(x.T, dy)
        self.grad_b += dy.sum(axis=0)
        return matmul(dy, self.w.T)

    def params(self, prefix: str):
        yield f"{prefix}/W", WEIGHT, self, "w"
        yield f"{prefix}/b", BIAS, self, "b"


class PlainBlock:
    """conv -> relu, no skip."""

    def __init__(self, conv):
        self.conv = conv
        self.relu = ReLU()

    def forward(self, x, cache: bool = True):
        return self.relu.forward(self.conv.forward(x, cache), cache)

    def backward(self, dy):
        return self.conv.backward(self.relu.backward(dy))


class BasicBlock:
    """Residual pair of 3x3 convs: y = relu(conv2(relu(conv1(x))) + skip(x)).

    The skip is the identity when shapes already match, otherwise a 1x1
    projection conv. Because the block output joins the skip sum, its
    channel count must survive compression unchanged.
    """

    def __init__(self, conv1, conv2, downsample=None):
        self.conv1 = conv1
        self.conv2 = conv2
        self.downsample = downsample
        self.relu1 = ReLU()
        self.relu2 = ReLU()

    def forward(self, x, cache: bool = True):
        h = self.relu1.forward(self.conv1.forward(x, cache), cache)
        f = self.conv2.forward(h, cache)
        s = self.downsample.forward(x, cache) if self.downsample is not None else x
        return self.relu2.forward(f + s, cache)

    def backward(self, dy):
        dsum = self.relu2.backward(dy)
        dx = self.conv1.backward(self.relu1.backward(self.conv2.backward(dsum)))
        if self.downsample is not None:
            dx = dx + self.downsample.backward(dsum)
        else:
            dx = dx + dsum
        return dx


@dataclass(frozen=True)
class BlockDef:
    kind: str            # "plain" | "basic"
    channels: int
    stride: int = 1


@dataclass(frozen=True)
class LayerEntry:
    """One convolution of an architecture, as the layer table lists it."""
    name: str                # checkpoint name: stem, block{i}.conv/.conv1/.conv2/.down
    meta: ConvMeta           # nominal geometry
    source: str | None       # the layer whose output it reads; None: the network input
    position: str | None     # hinge position; None for the stem and skip projections
    protected: bool          # its output joins a residual sum or an identity skip


@dataclass(frozen=True)
class ArchSpec:
    input_channels: int
    input_h: int
    input_w: int
    classes: int
    stem_channels: int
    blocks: tuple = field(default_factory=tuple)
    table: tuple = field(init=False, repr=False, compare=False)   # see layer_table
    output: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table, output = layer_table(self)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "output", output)


def layer_table(arch: ArchSpec):
    """Every convolution of `arch` in checkpoint order, with its geometry,
    its input, its hinge position and whether a skip protects its output;
    and the name of the layer the head reads.

    This is the one place that knows the block structure; `ArchSpec` builds
    it once. A block's output is that of its last conv, so an identity
    skip marks the layer that produced the block input as protected.
    """
    if len(arch.blocks) < 1 or arch.classes < 1:
        raise ValueError("architecture needs at least one block and one class")
    entries = {}

    def add(name, source, out_ch, kernel, stride, position=None, protected=False):
        if source is None:
            in_ch, h, w = arch.input_channels, arch.input_h, arch.input_w
        else:
            src = entries[source].meta
            in_ch, h, w = src.out_channels, src.out_h, src.out_w
        if min(in_ch, out_ch, stride, h, w) < 1:
            raise ValueError(f"{name}: channels, stride and input size must be >= 1, got "
                             f"{in_ch} -> {out_ch} channels, stride {stride}, input {h}x{w}")
        pad = kernel // 2
        out_h = (h + 2 * pad - kernel) // stride + 1
        out_w = (w + 2 * pad - kernel) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"{name}: output would be {out_h}x{out_w}")
        meta = ConvMeta(in_ch, out_ch, kernel, kernel, stride, pad, out_h, out_w)
        entries[name] = LayerEntry(name, meta, source, position, protected)

    add("stem", None, arch.stem_channels, 3, 1)
    out = "stem"
    for i, bd in enumerate(arch.blocks):
        p = f"block{i}"
        if bd.kind == "plain":
            add(f"{p}.conv", out, bd.channels, 3, bd.stride, hinge.STANDALONE)
            out = f"{p}.conv"
            continue
        if bd.kind != "basic":
            raise ValueError(f"unsupported block kind {bd.kind!r}")
        add(f"{p}.conv1", out, bd.channels, 3, bd.stride, hinge.FIRST_IN_BASIC)
        add(f"{p}.conv2", f"{p}.conv1", bd.channels, 3, 1, hinge.SECOND_IN_BASIC,
            protected=True)
        if bd.stride != 1 or entries[out].meta.out_channels != bd.channels:
            add(f"{p}.down", out, bd.channels, 1, bd.stride, protected=True)
        else:
            entries[out] = replace(entries[out], protected=True)
        out = f"{p}.conv2"
    return tuple(entries.values()), out


class Network:
    """Stem conv -> blocks -> global average pool -> linear classifier.

    `layers` maps every name in `arch.table` to its convolution.
    """

    def __init__(self, arch: ArchSpec, layers: dict, head):
        self.arch = arch
        self.stem_relu = ReLU()
        self.pool = GlobalAvgPool()
        self.head = head
        self.set_layers(layers)

    def set_layers(self, layers: dict) -> None:
        """Assemble the stem and the blocks from convolutions keyed by
        table name."""
        self.layers = dict(layers)
        self.stem = self.layers["stem"]
        self.blocks = []
        for i, bd in enumerate(self.arch.blocks):
            conv, conv1, conv2, down = (self.layers.get(f"block{i}.{part}")
                                        for part in ("conv", "conv1", "conv2", "down"))
            self.blocks.append(PlainBlock(conv) if bd.kind == "plain"
                               else BasicBlock(conv1, conv2, down))

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Logits of a batch. With `cache=False` no layer keeps anything
        for a backward pass: the inference forward."""
        h = self.stem_relu.forward(self.stem.forward(x, cache), cache)
        for blk in self.blocks:
            h = blk.forward(h, cache)
        return self.head.forward(self.pool.forward(h, cache), cache)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        dh = self.pool.backward(self.head.backward(dlogits))
        for blk in reversed(self.blocks):
            dh = blk.backward(dh)
        return self.stem.backward(self.stem_relu.backward(dh))

    def named_layers(self):
        for entry in self.arch.table:
            yield entry.name, self.layers[entry.name]
        yield "head", self.head

    def hinged_layers(self):
        return [(name, layer) for name, layer in self.named_layers()
                if isinstance(layer, HingedConv2d) and layer.scheme is not None]

    def hinged_basic_pairs(self):
        """(block name, conv1, conv2) for every basic block whose convs are
        both hinged; used by the gradient-ratio learning-rate rule."""
        hinged = dict(self.hinged_layers())
        return [(entry.name.rpartition(".")[0], hinged[entry.source], hinged[entry.name])
                for entry in self.arch.table
                if entry.position == hinge.SECOND_IN_BASIC
                and entry.name in hinged and entry.source in hinged]

    def params(self):
        for name, layer in self.named_layers():
            yield from layer.params(name)

    def zero_grads(self):
        for _, _, layer, attr in self.params():
            grad = getattr(layer, f"grad_{attr}")
            grad[...] = 0.0

    def state_tensors(self, modes: dict | None = None) -> OrderedDict:
        """The checkpoint tensors in table order, then the head: each
        layer's params, then its mask while it is being compressed. Given
        `modes` (layer name -> mode, untouched where absent), each layer's
        tensors follow its mode byte, as in a compacted checkpoint."""
        out = OrderedDict()
        for name, layer in self.named_layers():
            if modes is not None:
                byte = hinge.MODE_BYTES[modes.get(name, hinge.UNTOUCHED)]
                out[f"{name}/mode"] = np.array([byte], dtype=np.uint8)
            for key, _, _, attr in layer.params(name):
                out[key] = getattr(layer, attr)
            if getattr(layer, "mask", None) is not None:
                out[f"{name}/mask"] = layer.mask.astype(np.uint8)
        return out


_MODE_NAMES = {byte: mode for mode, byte in hinge.MODE_BYTES.items()}


def _tensor(tensors, key):
    if key not in tensors:
        raise checkpoint.CheckpointError(f"checkpoint missing tensor {key!r}")
    return tensors[key]


def _mode(tensors, name):
    """The mode a compacted checkpoint records for a layer; None for a
    byte that names no mode."""
    mode_t = _tensor(tensors, f"{name}/mode")
    return _MODE_NAMES.get(int(mode_t.flat[0])) if mode_t.size == 1 else None


def _checked_layer(entry, tensors, layers, compacted):
    """The mode of one conv and the conv built from its tensors, checked
    against its table entry and against the layer it reads. A baseline
    layer is read as untouched."""
    name, nominal = entry.name, entry.meta
    mode = _mode(tensors, name) if compacted else hinge.UNTOUCHED
    w, b = _tensor(tensors, f"{name}/W"), _tensor(tensors, f"{name}/b")
    a = tensors.get(f"{name}/A")
    out_ch = b.shape[0] if b.ndim == 1 else 0
    full = mode != hinge.PRUNE or entry.protected
    if (mode is None or not 0 < out_ch <= nominal.out_channels
            or (full and out_ch != nominal.out_channels)):
        raise checkpoint.CheckpointError(
            f"{name}: bias {b.shape} in mode {mode}, the architecture has "
            f"{nominal.out_channels} output channels")
    in_ch = (layers[entry.source].meta.out_channels if entry.source is not None
             else nominal.in_channels)
    meta = replace(nominal, in_channels=in_ch, out_channels=out_ch)
    rank = a.shape[0] if a is not None and a.ndim == 2 else out_ch
    if w.shape != (meta.patch_size, rank) or (a is not None and a.shape != (rank, out_ch)):
        raise checkpoint.CheckpointError(
            f"{name}: filter {w.shape} and hinge {None if a is None else a.shape} do not map "
            f"{in_ch} input channels x {meta.kernel_h * meta.kernel_w} taps to {out_ch} outputs")
    if a is not None:
        return mode, HingedConv2d(meta, w, a, b=b)
    return mode, Conv2d(meta, w=w, b=b)


def network_from_tensors(arch: ArchSpec, tensors):
    """The network in a baseline or a compacted checkpoint, and its layer
    modes (None for a baseline). A file without mode bytes is a baseline,
    read as if every layer were untouched. Channel counts come from the
    stored tensor shapes and must fit the architecture: whole kernels per
    input channel, as many inputs as the source layer produces, and no
    more outputs than nominal (exactly nominal unless the layer was
    pruned, and always for a protected layer). A compacted file's head
    is untouched."""
    compacted = any(key.endswith("/mode") for key in tensors)
    layers, modes = {}, {}
    for entry in arch.table:
        modes[entry.name], layers[entry.name] = _checked_layer(entry, tensors, layers,
                                                               compacted)
    layers["stem"].needs_input_grad = False
    head_in = layers[arch.output].meta.out_channels
    head_w, head_b = _tensor(tensors, "head/W"), _tensor(tensors, "head/b")
    if head_w.shape != (head_in, arch.classes) or head_b.shape != (arch.classes,):
        raise checkpoint.CheckpointError(
            f"head: shapes {head_w.shape} and {head_b.shape}, expected "
            f"({head_in}, {arch.classes}) and ({arch.classes},)")
    if compacted and _mode(tensors, "head") != hinge.UNTOUCHED:
        raise checkpoint.CheckpointError(
            f"head: mode byte is not {hinge.MODE_BYTES[hinge.UNTOUCHED]} (untouched)")
    head = Linear(head_in, arch.classes, w=head_w, b=head_b)
    return Network(arch, layers, head), modes if compacted else None


def build_network(arch: ArchSpec, seed: int) -> Network:
    """Baseline network: plain convolutions everywhere, seeded init."""
    rng = np.random.default_rng(seed)
    layers = {}
    # Weights are drawn block by block, a block's skip projection before
    # its convs although the table lists it last: the seeded baselines
    # depend on this order.
    for _, block in itertools.groupby(arch.table, key=lambda e: e.name.partition(".")[0]):
        for entry in sorted(block, key=lambda e: e.position is not None):
            conv = Conv2d(entry.meta, rng=rng)
            conv.needs_input_grad = entry.source is not None
            layers[entry.name] = conv
    head = Linear(layers[arch.output].meta.out_channels, arch.classes, rng=rng)
    return Network(arch, layers, head)


def attach_hinges(net: Network, init: str = hinge.SVD_INIT,
                  first_kind: str | None = None,
                  plain_kind: str | None = None) -> Network:
    """Replace every convolution that has a hinge position by its hinged
    version in place.

    `first_kind` picks the group kind for the first conv of each basic
    block (default rows), `plain_kind` for plain-block convs (default
    columns). A protected layer always gets rows: the skip reads its
    output channels, so they must survive. Stem, head, and skip
    projections stay unhinged.
    """
    requested = {hinge.FIRST_IN_BASIC: first_kind, hinge.STANDALONE: plain_kind}
    layers = dict(net.layers)
    for entry in net.arch.table:
        if entry.position is None:
            continue
        kind = linalg.ROWS if entry.protected else requested.get(entry.position)
        conv = layers[entry.name]
        w_new, a_new = hinge.attach(conv.w, init)
        scheme = hinge.make_scheme(conv.meta.out_channels, entry.position, kind)
        layers[entry.name] = HingedConv2d(conv.meta, w_new, a_new, b=conv.b.copy(),
                                          scheme=scheme)
    net.set_layers(layers)
    return net
