"""A small CNN with hand-written reverse-mode gradients.

Every convolution is one `Conv2d`, `patches @ W [@ A] + b` over im2col
patches, so the compression math and the network math share one forward
and one backward; `HingedConv2d` adds only the compression state (group
scheme and mask). Blocks are either a plain conv+relu or a residual pair
of 3x3 convs with an optional projection on the skip path. The classifier
head is a 1x1 conv on the global average of the last block's output. All
parameters are float64 numpy arrays. Either conv forward, and the
backward of a stride-1 conv that returns an input gradient, unfolds its
batch in blocks of samples, as many as keep a block's patch matrix
within `PATCH_BLOCK_BYTES` (at least one); a batch of several blocks has
each block's product written into one preallocated result while its
patches are still in cache. A product whose width mod 8 is 1 to 4 takes
its batch whole, since BLAS rounds a row of such a product by its row
count. Only the caching forward
(`cache=True`, the default) keeps what backward needs: a conv keeps its
input, not its patch matrix, and `Network` keeps each relu row's mask in
one dict. Backward takes each conv's cache and pops each mask, so a
step's state is freed as backward passes it, and a second backward
raises, as does one after an inference forward (`cache=False`), which
keeps nothing. The inference forward runs
its batch in slices of `Network.inference_batch` samples, the most that
keep every nominal whole-slice patch matrix of the layer table within
`INFERENCE_PATCH_BYTES` (at least one): the slices bound the activations
and fix the logits' bits, while the blocks bound what is unfolded. Its
logits equal caching forwards of the same slices bit for bit; a
whole-batch forward, or another block size, can differ in the last bit
where BLAS rounds a row by the row count of its product.

Layer table: `layer_table` lists every conv of an `ArchSpec` in checkpoint
order with its nominal geometry, the layer it reads, its hinge position,
whether a skip protects its output, the skip its output joins before its
relu, whether a relu follows it and whether it reads its source pooled
(the head, last in the table). `ArchSpec.order` is the same table in
evaluation order, each skip projection before its block's convs. Building,
hinging, cost planning, compaction and checkpoint reading iterate the
table, and `Network` runs the order: one loop forward, the same loop
reversed backward, with no block objects. The loop runs each row's steps
around its conv itself, out of place: the pooled read, the skip sum and
the relu. The forward drops each output after its last reader, counted
from the table; no step writes into an array another one made.

Checkpoints: `Network.state_tensors` writes a baseline or a compacted
network and `network_from_tensors` reads either back, with its layer
modes; it also builds the network `compaction.compact` returns.

Memory layout: activations are logically (B, C, H, W) but physically
channels-last, because a conv output is the (B*H*W, C) product reshaped
and viewed as NCHW. `im2col` reads its input through the free
`transpose(0, 2, 3, 1)` view and emits patch features in (kh, kw, c)
order; an input gradient comes back as an NCHW view of channels-last
memory, so neither direction makes a layout copy. A stride-1 conv below
the stem takes both gradients from one blocked walk over the patches of
its output gradient (`_flipped_filter_grads`; Dumoulin and Visin 2016,
arXiv:1603.07285; Chetlur et al. 2014, arXiv:1410.0759). `dz`, seen as a
channels-last image and unfolded at padding `kh - 1 - pad`, times the
filters flipped in space with input channels and outputs swapped is the
input gradient; the input's rows times the same patches, summed over
the blocks, is the weight gradient flipped in space. The stem, which
returns no input gradient, and a strided conv unfold their cached input
again, a pure copy with the forward's bits, for the weight gradient
`(dz.T @ col).T`: the same dot products as `col.T @ dz`, bit for bit, in
the orientation BLAS runs faster. `col2im` then gives a strided conv's
input gradient, one kernel tap's filter rows at a time multiplied into
one (B*out_h*out_w, C) buffer and added into that tap's window. No path
builds the (B*out_h*out_w, kh*kw*C) patch-gradient matrix. The skip sum
and the relu keep their operands' channels-last layout. Stored `W` rows
keep the (c, kh, kw) order that the checkpoints, the SVD in
`hinge.attach` and compaction's row restriction use. `_patch_rows` is
the one place that permutes them; the dz-patch weight gradient comes out
in that order once flipped, so the checkpoint format and its meaning are
unchanged.
"""

import sys
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint, hinge, linalg
from .hinge import ConvMeta
from .linalg import matmul

WEIGHT = "weight"   # updated by plain SGD, subject to weight decay
BIAS = "bias"       # updated by plain SGD, no decay
HINGE = "hinge"     # the sparsity-inducing matrices, updated by prox steps

# inference slices are sized by the nominal patch matrix of a whole slice,
# though a conv forward never unfolds more than one block of it at once
INFERENCE_PATCH_BYTES = 8 * 2 ** 20
# largest patch block a conv forward or a stride-1 backward unfolds,
# unless one sample's is larger; the best forward for the toy and wide nets
# together in a sweep of 128 KiB to 2 MiB
PATCH_BLOCK_BYTES = 2 ** 19


class ArchSizeError(ValueError):
    """numpy refused the weights of a layer: the architecture is too large."""


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
        xp = np.ascontiguousarray(xs)  # a view unless x is NCHW in memory
    # one read-only (b, out_h, out_w, kh, kw, c) strided window over the
    # C-contiguous padded buffer, the conv stride folded into the first two
    # spatial strides; the reshape gathers the patches in one copy that
    # reads runs of kw*c contiguous values, or is a view of x when no copy
    # is needed (1x1 stride 1, channels-last memory)
    sb, sh, sw, sc = xp.strides
    windows = np.ndarray((b, out_h, out_w, kh, kw, c), np.float64, xp, 0,
                         (sb, stride * sh, stride * sw, sh, sw, sc))
    windows.flags.writeable = False
    return windows.reshape(b * out_h * out_w, kh * kw * c)


def _samples_per_block(width: int, sample_patch_bytes: int) -> int:
    """Samples a conv product unfolds and multiplies at once: as many as
    keep a block's patch matrix within `PATCH_BLOCK_BYTES` (at least one).
    BLAS rounds a row of a product whose width mod 8 is 1 to 4 by the
    product's row count, so such a product takes its batch whole. For a
    stride-1 backward the width is that of the input gradient, the input
    channels; the weight gradient's products share its blocks, and their
    sum over the blocks agrees with the whole-batch product to rounding
    only. On OpenBLAS 0.3.31 this rule keeps the bits of every toy layer,
    not of every layer of perfbench's wide net, whose small products can
    go to OpenBLAS's small-matrix kernel. There a blocked forward 5 to 27
    wide on `block0.conv2`, `block1.conv1` or `block1.conv2`, and a
    blocked input gradient into 5 or 6 channels on `block0.conv1` or
    `block0.conv2` or into 5 to 8 or 13 on `block1.conv2`, can differ in
    the last bit from the whole-batch product."""
    if width % 8 in (1, 2, 3, 4):
        return sys.maxsize
    return max(1, PATCH_BLOCK_BYTES // sample_patch_bytes)


def _unfolded_product(x: np.ndarray, w: np.ndarray, kh: int, kw: int, stride: int,
                      pad: int, block: int, left: np.ndarray | None = None):
    """`im2col(x, kh, kw, stride, pad) @ w`, `block` samples at a time: each
    block's product goes into its rows of one preallocated result while
    its patches are still in cache, and the block is freed once multiplied.
    Returns the pair of that product and, given `left`, a matrix with one
    row per patch row, `left.T @ im2col(x, ...)` summed over the same
    blocks (else None)."""
    if len(x) <= block:  # no buffer or slices: they cost a tiny conv about 1 us a call
        col = im2col(x, kh, kw, stride, pad)
        return matmul(col, w), None if left is None else matmul(left.T, col)
    _, _, h, w_in = x.shape
    rows = ((h + 2 * pad - kh) // stride + 1) * ((w_in + 2 * pad - kw) // stride + 1)
    out, acc = np.empty((len(x) * rows, w.shape[1])), None
    for s in range(0, len(x), block):
        col = im2col(x[s:s + block], kh, kw, stride, pad)
        matmul(col, w, out=out[s * rows:(s + block) * rows])
        if left is not None:
            part = matmul(left[s * rows:(s + block) * rows].T, col)
            acc = part if acc is None else np.add(acc, part, out=acc)
        del col  # before the next block is unfolded
    return out, acc


def _flipped_filter_grads(dz: np.ndarray, w: np.ndarray, x: np.ndarray, k: int,
                          pad: int):
    """Input and weight gradients of the stride-1 conv `im2col(x, k, k, 1,
    pad) @ w`, whose `w` has im2col's (kh, kw, c) row order, from one walk
    over the `dz` patches. Returns `dx`, a (B, C, H, W) view of
    channels-last memory, and `grad_w` in the stored (c, kh, kw) row order.

    The input gradient is a conv itself: `dz`, seen as a channels-last
    image padded by `k - 1 - pad`, unfolded and multiplied by the filters
    flipped in space with channels and outputs swapped,
    `w_flip[(i, j, o), c] = w[(k-1-i, k-1-j, c), o]`. The weight gradient
    correlates `x` with the same patches: `x.T @ col_dz` is (C, k*k*K) with
    columns (i, j, o), and flipped in space it is `grad_w` in stored order.
    Both run in blocks of samples, as the forward does, the block size
    following from `PATCH_BLOCK_BYTES` and the width `C` of the `dx`
    product; `dx` has the bits of the whole-batch product wherever the
    width rule holds, and `grad_w` sums its blocks' products in order."""
    b, c, h, w_in = x.shape
    o = dz.shape[1]
    w_flip = np.ascontiguousarray(
        w.reshape(k, k, c, o)[::-1, ::-1].transpose(0, 1, 3, 2).reshape(-1, c))
    block = _samples_per_block(c, 8 * h * w_in * w_flip.shape[0])  # float64
    out_h, out_w = h + 2 * pad - k + 1, w_in + 2 * pad - k + 1
    dz_img = dz.reshape(b, out_h, out_w, o).transpose(0, 3, 1, 2)
    x_rows = x.transpose(0, 2, 3, 1).reshape(-1, c)  # a view of channels-last memory
    dx, acc = _unfolded_product(dz_img, w_flip, k, k, 1, k - 1 - pad, block, left=x_rows)
    grad_w = acc.reshape(c, k, k, o)[:, ::-1, ::-1].reshape(-1, o)
    return dx.reshape(b, h, w_in, c).transpose(0, 3, 1, 2), grad_w


def col2im(dz: np.ndarray, w: np.ndarray, x_shape, kh: int, kw: int, stride: int,
           pad: int) -> np.ndarray:
    """Input gradient of the conv `im2col(x) @ w`, whose `w` has im2col's
    (kh, kw, c) row order: the adjoint of im2col applied to `dz @ w.T`, one
    kernel tap at a time. Each tap's filter rows are multiplied into one
    (B*out_h*out_w, C) buffer that is added into that tap's window, so the
    patch-gradient matrix is never built. The result is a (B, C, H, W)
    view of channels-last memory. A network backward takes this path for
    strided convs only; `_flipped_filter_grads` serves stride 1."""
    b, c, h, w_in = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w_in + 2 * pad - kw) // stride + 1
    dxp = np.zeros((b, h + 2 * pad, w_in + 2 * pad, c), dtype=np.float64)
    dtap = np.empty((dz.shape[0], c))  # every tap's product, in turn
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            tap = (i * kw + j) * c
            matmul(dz, w[tap:tap + c].T, out=dtap)
            dxp[:, i:i_end:stride, j:j_end:stride] += dtap.reshape(b, out_h, out_w, c)
    return dxp[:, pad:pad + h, pad:pad + w_in].transpose(0, 3, 1, 2)


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
    """Convolution `patches @ w [@ a] + b`: `w` is (patch_size x rank), and
    the optional `a` (rank x out_channels) is a hinge or a kept decomposed pair.
    The forward unfolds and multiplies its batch in blocks of samples whose
    patch matrix fits `PATCH_BLOCK_BYTES`; the block size follows from the
    geometry and the width of `w` alone. A caching forward keeps its input
    array. A stride-1 backward that returns an input gradient unfolds `dz`
    in blocks and takes both gradients from those patches; otherwise
    backward unfolds the input again as a whole. Either way it reads the
    cached input, so a caller must not write into a conv's input between
    its forward and its backward."""

    def __init__(self, meta: ConvMeta, w: np.ndarray, a: np.ndarray | None = None,
                 b: np.ndarray | None = None):
        self.meta = meta
        self.w = np.ascontiguousarray(w, dtype=np.float64)
        self.a = None if a is None else np.ascontiguousarray(a, dtype=np.float64)
        a_shape = None if a is None else self.a.shape
        rank = a_shape[0] if a is not None and self.a.ndim == 2 else meta.out_channels
        if (self.w.shape != (meta.patch_size, rank)
                or a_shape not in (None, (rank, meta.out_channels))):
            raise linalg.DimensionError(
                f"filter {self.w.shape} and hinge {a_shape} do not map "
                f"{meta.in_channels} input channels x {meta.kernel_h * meta.kernel_w} "
                f"taps to {meta.out_channels} outputs")
        self.b = (np.zeros(meta.out_channels) if b is None
                  else np.ascontiguousarray(b, dtype=np.float64))
        self.grad_w = np.zeros_like(self.w)
        self.grad_a = None if a is None else np.zeros_like(self.a)
        self.grad_b = np.zeros_like(self.b)
        self._cache = None
        # samples per forward block: a kept pair's rank or a pruned conv's
        # outputs whose width mod 8 is 1 to 4 multiplies its batch whole
        self._block = _samples_per_block(
            self.w.shape[1], 8 * meta.out_h * meta.out_w * meta.patch_size)  # float64

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        m = self.meta
        self._cache = None  # free the previous batch's state before unfolding
        w = _patch_rows(self.w, m)
        # backward unfolds `dz` or `x` again, so no patch block outlives its product
        pre, _ = _unfolded_product(x, w, m.kernel_h, m.kernel_w, m.stride, m.padding,
                                   self._block)
        z = (pre if self.a is None else matmul(pre, self.a)) + self.b
        if cache:  # backward needs `pre` only for grad_a
            self._cache = (x, w, None if self.a is None else pre)
        return z.reshape(len(x), m.out_h, m.out_w, m.out_channels).transpose(0, 3, 1, 2)

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter gradients and return the input gradient
        (None without `input_grad`). Takes the cache of the last caching
        forward, so a second backward raises."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        (x, w, pre), self._cache = self._cache, None
        m = self.meta
        dz = dy.transpose(0, 2, 3, 1).reshape(-1, m.out_channels)
        self.grad_b += dz.sum(axis=0)
        if self.a is not None:  # weight gradients as `(dz.T @ col).T`: module docstring
            self.grad_a += matmul(dz.T, pre).T
            dz = matmul(dz, self.a.T)  # the gradient of `pre`
        if input_grad and m.stride == 1 and m.kernel_h == m.kernel_w:
            dx, grad_w = _flipped_filter_grads(dz, w, x, m.kernel_h, m.padding)
            self.grad_w += grad_w
            return dx
        col = im2col(x, m.kernel_h, m.kernel_w, m.stride, m.padding)
        self.grad_w += _patch_rows(matmul(dz.T, col).T, m, inverse=True)
        del col
        if not input_grad:
            return None
        return col2im(dz, w, x.shape, m.kernel_h, m.kernel_w, m.stride, m.padding)

    def params(self, prefix: str):
        """(key, kind, value, gradient) per parameter; a step writes into value."""
        yield f"{prefix}/W", WEIGHT, self.w, self.grad_w
        if self.a is not None:
            yield f"{prefix}/A", HINGE, self.a, self.grad_a
        yield f"{prefix}/b", BIAS, self.b, self.grad_b


class HingedConv2d(Conv2d):
    """A conv whose square hinge `a` is under compression: it adds only a
    group `scheme` and a `mask` of alive groups. A compacted network has none."""

    def __init__(self, meta: ConvMeta, w: np.ndarray, a: np.ndarray,
                 b: np.ndarray | None = None, *, scheme: linalg.GroupScheme):
        super().__init__(meta, w, a, b)
        self.scheme = scheme
        self.mask = np.ones(scheme.group_count, dtype=bool)

    # perfbench/tracing.py wraps both names per class (tests/test_perfbench_bindings.py)
    forward = Conv2d.forward
    backward = Conv2d.backward

    def group_norms(self) -> np.ndarray:
        return linalg.group_norms(self.a, self.scheme)

    def apply_mask(self) -> None:
        """Zero every dead group of `a`; for column groups the matching
        bias entries go too, so a dead output channel is exactly zero.
        Idempotent: each entry is multiplied by 1.0 or 0.0. `b` is scaled in
        place, as the phase's filter optimizer holds it; `a` is replaced."""
        self.a = linalg.scale_groups(self.a, self.scheme, self.mask)
        if self.scheme.kind == linalg.COLUMNS:
            self.b *= self.mask


@dataclass(frozen=True)
class BlockDef:
    kind: str            # "plain" | "basic"
    channels: int
    stride: int = 1


@dataclass(frozen=True)
class LayerEntry:
    """One convolution of an architecture, as the layer table lists it."""
    name: str                # checkpoint name: stem, block{i}.conv/.conv1/.conv2/.down, head
    meta: ConvMeta           # nominal geometry
    source: str | None       # the layer whose output it reads; None: the network input
    position: str | None     # hinge position; None for the stem, skip projections and head
    protected: bool          # its output joins a residual sum or an identity skip
    skip: str | None = None  # the layer whose output joins its output before the relu
    relu: bool = True        # False for a skip projection and the head
    pool: bool = False       # reads the global average of its source: only the head


@dataclass(frozen=True)
class ArchSpec:
    input_channels: int
    input_h: int
    input_w: int
    classes: int
    stem_channels: int
    blocks: tuple = field(default_factory=tuple)
    table: tuple = field(init=False, repr=False, compare=False)   # see layer_table
    order: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table, order = layer_table(self)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "order", order)


def layer_table(arch: ArchSpec):
    """Every convolution of `arch` in checkpoint order, with its geometry,
    its input, its hinge position, whether a skip protects its output, the
    skip its output joins, whether a relu follows and whether it reads its
    input pooled; and the same entries in evaluation order (a block's skip
    projection before its convs, the order the init draws in).

    This is the one place that knows the block structure; `ArchSpec` builds
    it once. A block's output is that of its last conv, so an identity
    skip marks the layer that produced the block input as protected. The
    classifier head comes last in both orders: a 1x1 conv without a relu
    on the global average of the last block's output.
    """
    if len(arch.blocks) < 1:
        raise ValueError("architecture needs at least one block")
    entries, order = {}, []

    def add(name, source, out_ch, kernel, stride, position=None, protected=False,
            skip=None, relu=True, pool=False):
        if source is None:
            in_ch, h, w = arch.input_channels, arch.input_h, arch.input_w
        else:
            src = entries[source].meta
            in_ch, h, w = src.out_channels, src.out_h, src.out_w
        if pool:
            h = w = 1
        if min(in_ch, out_ch, stride, h, w) < 1:
            raise ValueError(f"{name}: channels, stride and input size must be >= 1, got "
                             f"{in_ch} -> {out_ch} channels, stride {stride}, input {h}x{w}")
        pad = kernel // 2
        out_h = (h + 2 * pad - kernel) // stride + 1
        out_w = (w + 2 * pad - kernel) // stride + 1
        if out_h < 1 or out_w < 1:
            raise ValueError(f"{name}: output would be {out_h}x{out_w}")
        meta = ConvMeta(in_ch, out_ch, kernel, kernel, stride, pad, out_h, out_w)
        entries[name] = LayerEntry(name, meta, source, position, protected, skip, relu, pool)
        order.append(name)

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
        down = bd.stride != 1 or entries[out].meta.out_channels != bd.channels
        skip = f"{p}.down" if down else out
        add(f"{p}.conv1", out, bd.channels, 3, bd.stride, hinge.FIRST_IN_BASIC)
        add(f"{p}.conv2", f"{p}.conv1", bd.channels, 3, 1, hinge.SECOND_IN_BASIC,
            protected=True, skip=skip)
        if down:
            add(skip, out, bd.channels, 1, bd.stride, protected=True, relu=False)
            order.insert(-2, order.pop())  # evaluated before the block's convs
        else:
            entries[out] = replace(entries[out], protected=True)
        out = f"{p}.conv2"
    add("head", out, arch.classes, 1, 1, relu=False, pool=True)
    return tuple(entries.values()), tuple(entries[name] for name in order)


class Network:
    """Stem conv -> blocks -> global average pool -> 1x1 conv classifier.

    `layers` maps every name in `arch.table` to its convolution. The
    forward runs `arch.order`: each row reads its source's output (pooled
    for the head), runs its conv, adds its skip's output and applies its
    relu, each step making a new array; the logits are the last conv's
    output. A caching forward keeps each relu row's mask in `relu_masks`,
    which backward pops. The backward runs the same order reversed. The
    stem reads the network input, so it computes no input gradient.
    """

    def __init__(self, arch: ArchSpec, layers: dict, modes: dict | None = None):
        self.arch = arch
        self.layers = dict(layers)
        self.modes = modes  # layer name -> mode in a compacted network, else None
        self.relu_masks = {}
        # how many readers each output has: its convs and its skips
        self._readers = Counter([e.source for e in arch.order]
                                + [e.skip for e in arch.order if e.skip is not None])
        widest = max(e.meta.out_h * e.meta.out_w * e.meta.patch_size for e in arch.table)
        self.inference_batch = max(1, INFERENCE_PATCH_BYTES // (8 * widest))  # float64

    def forward(self, x: np.ndarray, cache: bool = True) -> np.ndarray:
        """Logits of a batch. With `cache=False` no layer keeps anything
        for a backward pass (the inference forward), and the batch runs in
        slices of `inference_batch` samples whose logits are concatenated."""
        self.relu_masks = {}
        n = self.inference_batch
        if cache or len(x) <= n:
            return self._logits(x, cache)
        return np.concatenate([self._logits(x[s:s + n], False) for s in range(0, len(x), n)])

    def _logits(self, x: np.ndarray, cache: bool) -> np.ndarray:
        # each output is dropped after its last reader and each pre-relu
        # sum at once, so later patch matrices reuse the freed memory
        outs, left = {None: x}, self._readers.copy()

        def read(name):
            left[name] -= 1
            return outs[name] if left[name] else outs.pop(name)

        for entry in self.arch.order:
            y = read(entry.source)
            if entry.pool:
                y = y.mean(axis=(2, 3), keepdims=True)
            y = self.layers[entry.name].forward(y, cache)
            if entry.skip is not None:
                y = y + read(entry.skip)
            if entry.relu:
                mask = y > 0
                if cache:
                    self.relu_masks[entry.name] = mask
                y = y * mask
                del mask  # an inference forward frees it before the next conv
            outs[entry.name] = y
        return y.reshape(y.shape[:2])  # the head's (B, classes, 1, 1) output

    def backward(self, dlogits: np.ndarray) -> None:
        grads = {self.arch.order[-1].name: dlogits[:, :, None, None]}

        def add(name, d):
            grads[name] = grads[name] + d if name in grads else d

        for entry in reversed(self.arch.order):
            d = grads.pop(entry.name)
            if entry.relu:
                d = d * self.relu_masks.pop(entry.name)
            if entry.skip is not None:
                add(entry.skip, d)
            # the stem reads the network input: no input gradient
            d = self.layers[entry.name].backward(d, input_grad=entry.source is not None)
            if entry.pool:  # the mean's gradient, channels-last like the activations
                src = self.layers[entry.source].meta
                d = np.broadcast_to(d.transpose(0, 2, 3, 1) / (src.out_h * src.out_w),
                                    (len(d), src.out_h, src.out_w, d.shape[1]))
                d = d.transpose(0, 3, 1, 2)
            if entry.source is not None:
                add(entry.source, d)

    @property
    def compacted(self) -> bool:
        return self.modes is not None

    def named_layers(self):
        for entry in self.arch.table:
            yield entry.name, self.layers[entry.name]

    def hinged_layers(self):
        return [(name, layer) for name, layer in self.named_layers()
                if isinstance(layer, HingedConv2d)]

    def params(self):
        for name, layer in self.named_layers():
            yield from layer.params(name)

    def zero_grads(self):
        for _, _, _, grad in self.params():
            grad[...] = 0.0

    def state_tensors(self) -> OrderedDict:
        """The checkpoint tensors in table order: each layer's params, after
        its mode byte in a compacted network. A network under compression
        gives its params alone, which no checkpoint reader accepts."""
        out = OrderedDict()
        for name, layer in self.named_layers():
            if self.modes is not None:
                out[f"{name}/mode"] = np.array([hinge.MODE_BYTES[self.modes[name]]], np.uint8)
            for key, _, value, _ in layer.params(name):
                out[key] = value
        return out


_MODE_NAMES = {byte: mode for mode, byte in hinge.MODE_BYTES.items()}


def _tensor(tensors, key):
    if key not in tensors:
        raise checkpoint.CheckpointError(f"checkpoint missing tensor {key!r}")
    return tensors.pop(key)


def _mode(tensors, name):
    """The mode a compacted checkpoint records for a layer."""
    mode_t = _tensor(tensors, f"{name}/mode")
    if mode_t.size != 1 or int(mode_t.flat[0]) not in _MODE_NAMES:
        raise checkpoint.CheckpointError(f"{name}: mode {mode_t.tolist()} is not one "
                                         f"of the bytes {sorted(_MODE_NAMES)}")
    return _MODE_NAMES[int(mode_t.flat[0])]


def _checked_layer(entry, tensors, layers, compacted):
    """The mode of one conv and the conv built from its tensors, taken out
    of `tensors` and checked against its table entry and against the layer
    it reads. A baseline layer is read as untouched."""
    name, nominal = entry.name, entry.meta
    mode = _mode(tensors, name) if compacted else hinge.UNTOUCHED
    if entry.position is None and mode != hinge.UNTOUCHED:
        raise checkpoint.CheckpointError(
            f"{name}: mode byte is not {hinge.MODE_BYTES[hinge.UNTOUCHED]} (untouched), "
            "and a layer without a hinge position is never compressed")
    w, b = _tensor(tensors, f"{name}/W"), _tensor(tensors, f"{name}/b")
    a = tensors.pop(f"{name}/A", None)
    for key, value in (("W", w), ("A", a), ("b", b)):
        if value is not None and not np.isfinite(value).all():  # no writer stores one
            raise checkpoint.CheckpointError(f"{name}/{key}: an entry is not finite")
    if a is not None and mode != hinge.DECOMPOSE:
        raise checkpoint.CheckpointError(
            f"{name}: an A tensor in mode {mode}; only a decomposed layer keeps a pair")
    out_ch = b.shape[0] if b.ndim == 1 else 0
    full = mode != hinge.PRUNE or entry.protected
    if not 0 < out_ch <= nominal.out_channels or (full and out_ch != nominal.out_channels):
        raise checkpoint.CheckpointError(
            f"{name}: bias {b.shape} in mode {mode}, the architecture has "
            f"{nominal.out_channels} output channels")
    in_ch = (layers[entry.source].meta.out_channels if entry.source is not None
             else nominal.in_channels)
    meta = replace(nominal, in_channels=in_ch, out_channels=out_ch)
    try:
        return mode, Conv2d(meta, w, a, b)
    except linalg.DimensionError as exc:
        raise checkpoint.CheckpointError(f"{name}: {exc}") from exc


def network_from_tensors(arch: ArchSpec, tensors) -> Network:
    """The network in a baseline or a compacted checkpoint, carrying the
    layer modes it was read with (None for a baseline). A file without
    mode bytes is a baseline, read as if every layer were untouched.
    Channel counts come from the stored tensor shapes and must fit the
    architecture: whole kernels per input channel, as many inputs as the
    source layer produces, and no more outputs than nominal (exactly
    nominal unless pruned, and always for a protected layer). A layer
    without a hinge position is untouched, only a decomposed layer has
    an `A`, every entry is finite, and every tensor belongs to a layer."""
    compacted = any(key.endswith("/mode") for key in tensors)
    left, layers, modes = dict(tensors), {}, {}
    for entry in arch.table:
        modes[entry.name], layers[entry.name] = _checked_layer(entry, left, layers, compacted)
    if left:
        raise checkpoint.CheckpointError(f"tensor {next(iter(left))!r} belongs to no layer")
    return Network(arch, layers, modes if compacted else None)


def build_network(arch: ArchSpec, seed: int) -> Network:
    """Baseline network: plain convolutions everywhere, seeded init."""
    rng = np.random.default_rng(seed)
    # drawn in evaluation order, a block's skip projection before its convs
    # although the table lists it last, the head last: the seeded baselines
    # depend on it. He init, but gain 1 for the head, which no relu follows
    layers = {}
    for entry in arch.order:
        m = entry.meta
        std = np.sqrt((1.0 if entry.pool else 2.0) / m.patch_size)
        shape = (m.patch_size, m.out_channels)
        try:
            layers[entry.name] = Conv2d(m, rng.normal(0.0, std, size=shape))
        except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index holds
            raise ArchSizeError(f"{entry.name}: numpy cannot allocate its weights of "
                                f"shape {shape} ({exc})") from exc
    return Network(arch, layers)


def attach_hinges(net: Network, init: str = hinge.SVD_INIT,
                  first_kind: str | None = None,
                  plain_kind: str | None = None) -> Network:
    """Replace every convolution that has a hinge position by its hinged
    version in place.

    `first_kind` picks the group kind for the first conv of each basic
    block (default rows), `plain_kind` for plain-block convs (default
    columns). A protected layer always gets rows: the skip reads its
    output channels, so they must survive. The stem, skip projections and
    head have no hinge position and stay unhinged. A compacted network is
    refused (ValueError) before any SVD: its layers are already cut.
    """
    if net.compacted:
        raise ValueError("the network is already compacted; hinges attach to a baseline")
    kinds = {hinge.FIRST_IN_BASIC: first_kind or linalg.ROWS,
             hinge.STANDALONE: plain_kind or linalg.COLUMNS}
    for entry in net.arch.table:
        if entry.position is None:
            continue
        kind = linalg.ROWS if entry.protected else kinds[entry.position]
        conv = net.layers[entry.name]
        w_new, a_new = hinge.attach(conv.w, init)
        n = conv.meta.out_channels
        net.layers[entry.name] = HingedConv2d(conv.meta, w_new, a_new, b=conv.b.copy(),
                                              scheme=linalg.GroupScheme(kind, (n, n)))
    return net
