import hashlib
import importlib.util
import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch
from hingenet import config, linalg, losses, net
from hingenet.hinge import FIRST_IN_BASIC, SECOND_IN_BASIC, STANDALONE, ConvMeta
from hingenet.compaction import compact
from hingenet.net import (ArchSpec, BlockDef, Conv2d, HingedConv2d, attach_hinges,
                          build_network, col2im, im2col)

ROOT = Path(__file__).resolve().parents[1]


def naive_conv(x, w_mat, bias, meta):
    """Direct sliding-window convolution; w_mat rows ordered (c, kh, kw)."""
    b, c, h, wd = x.shape
    p, s = meta.padding, meta.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    w4 = w_mat.reshape(c, meta.kernel_h, meta.kernel_w, meta.out_channels)
    out = np.zeros((b, meta.out_channels, meta.out_h, meta.out_w))
    for n in range(b):
        for oc in range(meta.out_channels):
            for i in range(meta.out_h):
                for j in range(meta.out_w):
                    patch = xp[n, :, i * s:i * s + meta.kernel_h,
                               j * s:j * s + meta.kernel_w]
                    out[n, oc, i, j] = np.sum(patch * w4[:, :, :, oc]) + bias[oc]
    return out


def scatter_patch_rows(dcol, x_shape, kh, kw, stride, pad):
    """Oracle for col2im: add every patch row of the full (B*oh*ow,
    kh*kw*C) gradient back onto its window, tap by tap."""
    b, c, h, w = x_shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    dcol = dcol.reshape(b, out_h, out_w, kh, kw, c)
    dxp = np.zeros((b, h + 2 * pad, w + 2 * pad, c))
    for i, j in itertools.product(range(kh), range(kw)):
        dxp[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += dcol[:, :, :, i, j]
    return dxp[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)


def flipped_filter_product(dz, w, x_shape, kernel, pad):
    """Oracle for a stride-1 col2im: `dz` as a channels-last image, padded
    by `kernel - 1 - pad` and unfolded whole, times the filters flipped in
    space with input channels and outputs swapped, built tap by tap."""
    b, c, h, wd = x_shape
    k, out = dz.shape[1], h + 2 * pad - kernel + 1  # square inputs
    w_flip = np.empty((kernel * kernel * k, c))
    for i, j in itertools.product(range(kernel), range(kernel)):
        tap = ((kernel - 1 - i) * kernel + kernel - 1 - j) * c
        w_flip[(i * kernel + j) * k:(i * kernel + j + 1) * k] = w[tap:tap + c].T
    img = dz.reshape(b, out, out, k).transpose(0, 3, 1, 2)
    dx = im2col(img, kernel, kernel, 1, kernel - 1 - pad) @ w_flip
    return dx.reshape(b, h, wd, c).transpose(0, 3, 1, 2)


class TestConv:
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_against_naive_oracle(self, rng, stride, pad):
        meta = ConvMeta(3, 4, 3, 3, stride, pad,
                        (8 + 2 * pad - 3) // stride + 1, (8 + 2 * pad - 3) // stride + 1)
        conv = Conv2d(meta, rng.normal(size=(27, 4)), b=rng.normal(size=4))
        x = rng.normal(size=(2, 3, 8, 8))
        got = conv.forward(x)
        want = naive_conv(x, conv.w, conv.b, meta)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("stride,pad,channels",
                             list(itertools.product((1, 2), (0, 1), (1, 3))))
    def test_im2col_col2im_adjoint(self, rng, stride, pad, channels):
        # col2im(dz, w) is the input gradient of the conv im2col(x) @ w:
        # <im2col(x) @ w, dz> == <x, col2im(dz, w)>
        x = rng.normal(size=(2, channels, 6, 6))
        w = rng.normal(size=(9 * channels, 4))
        col = im2col(x, 3, 3, stride, pad)
        dz = rng.normal(size=(col.shape[0], 4))
        dx = col2im(dz, w, x.shape, 3, 3, stride, pad)
        assert abs(np.sum((col @ w) * dz) - np.sum(x * dx)) <= 1e-10
        want = scatter_patch_rows(dz @ w.T, x.shape, 3, 3, stride, pad)
        if channels > 1:
            # tap by tap, the same sums in the same order as the oracle
            assert np.array_equal(dx, want)
        else:
            # numpy hands a one-column product to the BLAS matrix-vector
            # kernel, whose dot products round differently
            assert np.abs(dx - want).max() <= 1e-12
        if stride == 1:
            # a backward's stride-1 input gradient: a conv of dz with the
            # flipped filters, other sums than the scatter's
            dx, _ = net._flipped_filter_grads(dz, w, x, 3, pad)
            assert np.array_equal(dx, flipped_filter_product(dz, w, x.shape, 3, pad))
            assert np.abs(dx - want).max() <= 1e-12

    def test_im2col_feature_order_is_kernel_then_channel(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        col = im2col(x, 3, 3, 2, 1).reshape(2, 3, 3, 27)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n, i, j in itertools.product(range(2), range(3), range(3)):
            patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
            assert np.array_equal(col[n, i, j], patch.transpose(1, 2, 0).ravel())

    @pytest.mark.parametrize("kernel,stride,pad,channels,layout", list(itertools.product(
        (1, 3), (1, 2), (0, 1), (1, 3), ("nchw", "channels-last"))))
    def test_im2col_equals_loop_built_patches(self, rng, kernel, stride, pad, channels,
                                              layout):
        x = rng.normal(size=(2, channels, 5, 6))
        if layout == "channels-last":
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out_h = (5 + 2 * pad - kernel) // stride + 1
        out_w = (6 + 2 * pad - kernel) // stride + 1
        want = np.array([[xp[n, c, i * stride + di, j * stride + dj]
                          for di in range(kernel) for dj in range(kernel)
                          for c in range(channels)]
                         for n in range(2) for i in range(out_h) for j in range(out_w)])
        col = im2col(x, kernel, kernel, stride, pad)
        assert col.shape == want.shape and col.flags.c_contiguous
        assert np.array_equal(col, want)
        if (kernel, stride, pad, layout) == (1, 1, 0, "channels-last"):
            # the patch matrix is the input itself, so it must not be writable
            assert np.shares_memory(col, x) and not col.flags.writeable

    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (2, 0)])
    def test_layout_of_input_does_not_change_result(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 7, 7))
        x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        assert x_cl.shape == x.shape and not x_cl.flags.c_contiguous
        col = im2col(x, 3, 3, stride, pad)
        assert np.array_equal(col, im2col(x_cl, 3, 3, stride, pad))
        w = rng.normal(size=(27, 4))
        dz = rng.normal(size=(col.shape[0], 4))
        dx = col2im(dz, w, x.shape, 3, 3, stride, pad)
        assert np.array_equal(dx, col2im(np.asfortranarray(dz), w, x.shape, 3, 3, stride, pad))
        # the gradient comes back channels-last: channels are the unit stride
        assert dx.strides[1] == dx.itemsize

    @pytest.mark.parametrize("hinge", [False, True, "kept-pair"])
    def test_grad_w_rows_in_stored_order(self, rng, hinge):
        # finite differences through the (c, kh, kw) naive oracle: grad_w must
        # come back in the stored row order whatever order im2col uses inside.
        # hinge: False a plain conv, True a square hinge under compression,
        # "kept-pair" a compacted rank-2 pair
        meta = ConvMeta(2, 3, 3, 3, 2, 1, 3, 3)
        x = rng.normal(size=(2, 2, 5, 5))
        g = rng.normal(size=(2, 3, 3, 3))
        rank = 2 if hinge == "kept-pair" else 3
        a = rng.normal(size=(rank, 3))
        b = rng.normal(size=3)
        w = rng.normal(size=(18, rank))
        if hinge is True:
            layer = HingedConv2d(meta, w, a, b, scheme=linalg.GroupScheme(linalg.ROWS, (3, 3)))
        else:
            layer = Conv2d(meta, w, a if hinge else None, b)
        layer.forward(x)
        layer.backward(g)

        def loss(w_mat):
            return np.sum(g * naive_conv(x, w_mat @ a if hinge else w_mat, b, meta))

        h = 1e-6
        fd = np.zeros_like(w)
        for r, c in itertools.product(range(18), range(rank)):
            step = np.zeros_like(w)
            step[r, c] = h
            fd[r, c] = (loss(w + step) - loss(w - step)) / (2 * h)
        assert np.abs(layer.grad_w - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_hinged_equals_conv_then_1x1(self, rng):
        meta = ConvMeta(2, 5, 3, 3, 1, 1, 8, 8)
        w = rng.normal(size=(18, 5))
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        pair = Conv2d(meta, w, a, b)
        plain = Conv2d(meta, w=w @ a, b=b)
        x = rng.normal(size=(3, 2, 8, 8))
        assert np.abs(pair.forward(x) - plain.forward(x)).max() <= 1e-12


TOY_ARCH = ArchSpec(1, 16, 16, 4, 16, (BlockDef("basic", 16, 1), BlockDef("basic", 32, 2)))
WIDE_ARCH = ArchSpec(3, 16, 16, 10, 32, (BlockDef("basic", 64, 1), BlockDef("basic", 128, 2)))
# every conv of configs/toy.json's net and of perfbench's wide-compress net
SWEPT_CONVS = {f"{tag}-{e.name}": e.meta
               for tag, arch in (("toy", TOY_ARCH), ("wide", WIDE_ARCH)) for e in arch.table}


def channels_last(rng, shape):
    """A (B, C, H, W) normal draw laid out channels-last, as activations are."""
    b, c, h, w = shape
    return rng.normal(size=(b, h, w, c)).transpose(0, 3, 1, 2)


class TestWeightGradOrientation:
    """A backward that unfolds its input again (the stem's, a strided
    conv's, or any without an input gradient, as here) takes the weight
    gradient as the product `(dz.T @ col).T`, which BLAS runs faster than
    `col.T @ dz`. The change rests on the two giving the same bits; this
    sweep pins that on every layer shape the toy and wide-compress runs
    multiply, at the train, compress and inference batch sizes, for a
    plain conv and kept pairs of rank 1 to 33. `grad_a` is the product
    `(dz.T @ pre).T` in every backward. The forward makes `pre` in the
    conv's blocks of samples, and a blocked product can differ in the last
    bit from a whole one, so `grad_a`'s reference `pre` is made from the
    same blocks."""

    @pytest.mark.parametrize("batch", [1, 7, 16, 32])
    @pytest.mark.parametrize("layer", list(SWEPT_CONVS))
    def test_conv_grads_equal_tn_products(self, rng, layer, batch):
        meta = SWEPT_CONVS[layer]
        h = meta.out_h * meta.stride  # the input size of every swept conv
        x = channels_last(rng, (batch, meta.in_channels, h, h))
        col = im2col(x, meta.kernel_h, meta.kernel_w, meta.stride, meta.padding)
        dy = channels_last(rng, (batch, meta.out_channels, meta.out_h, meta.out_w))
        dz = dy.transpose(0, 2, 3, 1).reshape(-1, meta.out_channels)
        for rank in [None, *range(1, 34)]:
            k = meta.out_channels if rank is None else rank
            w = rng.normal(size=(meta.patch_size, k))
            a = None if rank is None else rng.normal(size=(rank, meta.out_channels))
            conv = Conv2d(meta, w, a)
            conv.forward(x)
            conv.backward(dy, input_grad=False)
            w_cols, dpre = net._patch_rows(w, meta), dz
            if a is not None:
                rows = conv._block * meta.out_h * meta.out_w  # patch rows per forward block
                pre = np.concatenate([col[s:s + rows] @ w_cols
                                      for s in range(0, len(col), rows)])
                assert np.array_equal(conv.grad_a, pre.T @ dz), rank
                dpre = dz @ a.T
            want = net._patch_rows(col.T @ dpre, meta, inverse=True)
            assert np.array_equal(conv.grad_w, want), rank

    @pytest.mark.parametrize("batch", [1, 7, 16, 32])
    @pytest.mark.parametrize("features,classes", [(32, 4), (128, 10), (16, 33)])
    def test_linear_grad_w_equals_tn_product(self, rng, features, classes, batch):
        # the head: a 1x1 conv on the pooled (B, C, 1, 1) features
        meta = ConvMeta(features, classes, 1, 1, 1, 0, 1, 1)
        head = Conv2d(meta, rng.normal(size=(features, classes)))
        x = rng.normal(size=(batch, features))
        dy = rng.normal(size=(batch, classes))
        head.forward(x[:, :, None, None])
        head.backward(dy[:, :, None, None])
        assert np.array_equal(head.grad_w, x.T @ dy)


class TestBlockedForward:
    """A conv forward unfolds its batch in blocks of `Conv2d._block`
    samples, so no patch matrix it materializes is larger than
    `PATCH_BLOCK_BYTES` unless one sample's alone is, and that sample
    runs alone. A conv whose width mod 8 is 1 to 4 multiplies its batch
    whole. So the blocks change no bit of a toy layer's product at any
    width from 1 to 33, nor of a wide layer's at its own width. On the
    wide layers of 576 and 1152 patch columns, BLAS rounds some narrower
    products (5 to 27 wide) by their row count too; those are not pinned."""

    @pytest.mark.parametrize("batch", [1, 7, 16, 28, 32])
    @pytest.mark.parametrize("arch", [TOY_ARCH, WIDE_ARCH], ids=["toy", "wide"])
    def test_no_patch_block_over_budget(self, rng, monkeypatch, arch, batch):
        model = build_network(arch, seed=0)
        blocks, unfold = [], net.im2col

        def recorded(x, *args):
            col = unfold(x, *args)
            blocks.append((len(x), col.nbytes))
            return col
        monkeypatch.setattr(net, "im2col", recorded)
        x = rng.normal(size=(batch, arch.input_channels, arch.input_h, arch.input_w))
        for cache in (True, False):
            model.forward(x, cache)
        assert sum(samples for samples, _ in blocks) == 2 * batch * len(arch.table)
        over = [samples for samples, nbytes in blocks if nbytes > net.PATCH_BLOCK_BYTES]
        assert set(over) <= {1}, max(nbytes for _, nbytes in blocks)

    @pytest.mark.parametrize("batch", [1, 7, 16, 28, 32])
    @pytest.mark.parametrize("layer", list(SWEPT_CONVS))
    def test_blocked_forward_equals_whole_batch_product(self, rng, layer, batch):
        meta = SWEPT_CONVS[layer]
        h = meta.out_h * meta.stride  # the input size of every swept conv
        x = channels_last(rng, (batch, meta.in_channels, h, h))
        col = im2col(x, meta.kernel_h, meta.kernel_w, meta.stride, meta.padding)
        ranks = [r for r in range(1, 34) if layer.startswith("toy") or r % 8 in (1, 2, 3, 4)]
        for rank in [None, *ranks]:
            k = meta.out_channels if rank is None else rank
            a = None if rank is None else rng.normal(size=(rank, meta.out_channels))
            conv = Conv2d(meta, rng.normal(size=(meta.patch_size, k)), a,
                          b=rng.normal(size=meta.out_channels))
            want = col @ net._patch_rows(conv.w, meta)
            want = (want if a is None else want @ a) + conv.b
            got = conv.forward(x, cache=False)
            assert np.array_equal(got.transpose(0, 2, 3, 1).reshape(want.shape), want), rank


# the stride-1 convs below the stem of both nets: their input gradient is
# a blocked conv of dz with the flipped filters
STRIDE_1_CONVS = {f"{tag}-{e.name}": e.meta
                  for tag, arch in (("toy", TOY_ARCH), ("wide", WIDE_ARCH))
                  for e in arch.table if e.meta.stride == 1 and e.source is not None}


def stride_1_widths(meta):
    """(input channels, kept-pair rank or None) per case of a stride-1 conv:
    the nominal width, a pruned predecessor's widths 1 to 4 mod 8, and
    kept-pair ranks 1 to 33 at the nominal width."""
    c_in = meta.in_channels
    pruned = [c_in - 8 + r for r in (1, 2, 3, 4) if c_in > 8]
    return [(c, None) for c in (c_in, *pruned)] + [(c_in, rank) for rank in range(1, 34)]


class TestBlockedInputGrad:
    """A stride-1 conv's input gradient unfolds dz in blocks of samples
    whose patch matrix fits `PATCH_BLOCK_BYTES`, unless one sample's alone
    does not, and a product whose width, the conv's input channels, mod 8
    is 1 to 4 takes its batch whole. So the blocks change no bit of the
    whole-batch flipped-filter product: at the nominal widths, at a pruned
    predecessor's widths 1 to 4 mod 8, and at kept-pair ranks 1 to 33. On
    the wide layers of 576 and 1152 patch columns BLAS rounds some narrower
    products (5 to 8 and 13 wide) by their row count too; those are not
    pinned."""

    @pytest.mark.parametrize("batch", [1, 7, 16, 28, 32])
    @pytest.mark.parametrize("layer", list(STRIDE_1_CONVS))
    def test_blocked_input_grad_equals_whole_batch_product(self, rng, monkeypatch, layer,
                                                          batch):
        meta = STRIDE_1_CONVS[layer]
        blocks, unfold = [], net.im2col

        def recorded(x, *args):
            col = unfold(x, *args)
            blocks.append((len(x), col.nbytes))
            return col
        monkeypatch.setattr(net, "im2col", recorded)
        for c, rank in stride_1_widths(meta):
            k = meta.out_channels if rank is None else rank
            x = channels_last(rng, (batch, c, meta.out_h, meta.out_w))
            dz = rng.normal(size=(batch * meta.out_h * meta.out_w, k))
            w = rng.normal(size=(meta.kernel_h * meta.kernel_w * c, k))
            blocks.clear()
            got, _ = net._flipped_filter_grads(dz, w, x, meta.kernel_h, meta.padding)
            assert sum(samples for samples, _ in blocks) == batch
            if c % 8 in (1, 2, 3, 4):
                assert len(blocks) == 1, (c, k)
            else:
                over = [samples for samples, nbytes in blocks if nbytes > net.PATCH_BLOCK_BYTES]
                assert set(over) <= {1}, (c, k)
            want = flipped_filter_product(dz, w, x.shape, meta.kernel_h, meta.padding)
            assert np.array_equal(got, want), (c, k)


class TestBlockedWeightGrad:
    """A stride-1 conv that computes its input gradient takes its weight
    gradient from the same blocks of `dz` patches: `x_blk.T @ col_dz`,
    summed over the blocks and flipped in space, is `grad_w` in the stored
    (c, kh, kw) row order. The blocks sum in another order than the
    whole-batch `(dz.T @ im2col(x)).T`, so the two agree to 1e-12
    relative, not bit for bit; `dx` keeps the bits of
    `TestBlockedInputGrad`'s oracle. Swept through `Conv2d.backward` on the
    same layers, batches and widths, a kept pair's `A` included."""

    @pytest.mark.parametrize("batch", [1, 7, 16, 28, 32])
    @pytest.mark.parametrize("layer", list(STRIDE_1_CONVS))
    def test_fused_grads_match_whole_batch_products(self, rng, layer, batch):
        nominal = STRIDE_1_CONVS[layer]
        for c, rank in stride_1_widths(nominal):
            meta = replace(nominal, in_channels=c)
            k = meta.out_channels if rank is None else rank
            a = None if rank is None else rng.normal(size=(rank, meta.out_channels))
            conv = Conv2d(meta, rng.normal(size=(meta.patch_size, k)), a)
            x = channels_last(rng, (batch, c, meta.out_h, meta.out_w))
            dy = channels_last(rng, (batch, meta.out_channels, meta.out_h, meta.out_w))
            conv.forward(x)
            dx = conv.backward(dy)
            dz = dy.transpose(0, 2, 3, 1).reshape(-1, meta.out_channels)
            dpre = dz if a is None else dz @ a.T
            col = im2col(x, meta.kernel_h, meta.kernel_w, 1, meta.padding)
            want = net._patch_rows((dpre.T @ col).T, meta, inverse=True)
            err = np.abs(conv.grad_w - want).max()
            assert err <= 1e-12 * np.abs(want).max(), (c, rank, err)
            w_cols = net._patch_rows(conv.w, meta)
            assert np.array_equal(dx, flipped_filter_product(dpre, w_cols, x.shape,
                                                             meta.kernel_h, meta.padding))


class TestNetworkForward:
    def test_zero_weights_uniform_logits(self, rng):
        arch = small_residual_arch()
        model = build_network(arch, seed=0)
        for _, _, value, _ in model.params():
            value[...] = 0.0
        logits = model.forward(rng.normal(size=(4, 1, 8, 8)))
        assert np.all(logits == 0.0)

    def test_identity_composition(self, rng):
        # 1x1 identity convs everywhere: on non-negative inputs the relus
        # pass through and logits equal the pooled input through the head.
        arch = ArchSpec(3, 6, 6, 2, 3, (BlockDef("plain", 3),))
        meta = ConvMeta(3, 3, 1, 1, 1, 0, 6, 6)
        head = Conv2d(ConvMeta(3, 2, 1, 1, 1, 0, 1, 1), rng.normal(size=(3, 2)),
                      b=rng.normal(size=2))
        layers = {"stem": Conv2d(meta, w=np.eye(3)), "block0.conv": Conv2d(meta, w=np.eye(3)),
                  "head": head}
        model = net.Network(arch, layers)
        x = np.abs(rng.normal(size=(5, 3, 6, 6)))
        want = x.mean(axis=(2, 3)) @ head.w + head.b
        assert np.abs(model.forward(x) - want).max() <= 1e-12

    def test_forward_deterministic(self, rng):
        model = build_network(small_residual_arch(), seed=3)
        x = rng.normal(size=(4, 1, 8, 8))
        first = model.forward(x)
        second = model.forward(x)
        assert np.array_equal(first, second)

    def test_state_round_trip(self, rng):
        model = build_network(small_residual_arch(), seed=3)
        clone = net.network_from_tensors(model.arch, model.state_tensors())
        assert clone.modes is None
        x = rng.normal(size=(2, 1, 8, 8))
        assert np.array_equal(model.forward(x), clone.forward(x))


def inference_case(kind):
    """A network of each kind the inference forward must reproduce."""
    if kind == "plain":
        return build_network(small_plain_arch(), seed=4)
    if kind == "basic":
        return build_network(small_residual_arch(), seed=4)
    model = build_network(small_residual_arch(channels=(6, 8)), seed=17)
    attach_hinges(model, init="svd", first_kind="columns")
    if kind == "hinged":
        return model
    for _, layer in model.hinged_layers():
        layer.mask[[0, 2, 3]] = False
    compacted = compact(model).network
    assert any(layer.a is not None for layer in compacted.layers.values())
    assert not any(isinstance(layer, HingedConv2d) for layer in compacted.layers.values())
    return compacted


def caching_parts(model):
    """What `model` keeps for backward: "<name>/conv" for each conv that
    holds a cache and "<name>/relu" for each relu mask the network holds."""
    return ({f"{name}/conv" for name, layer in model.layers.items() if layer._cache is not None}
            | {f"{name}/relu" for name in model.relu_masks})


def every_part(arch):
    """What a caching forward of `arch` keeps: one cache per conv, one mask
    per relu row."""
    return {f"{e.name}/conv" for e in arch.table} | {f"{e.name}/relu" for e in arch.table
                                                     if e.relu}


LAYER_KINDS = ("conv", "hinged", "kept-pair", "linear")


def layer_case(rng, kind):
    """One conv of each kind, and an input; "linear" is the head, a 1x1
    conv on pooled features."""
    meta = ConvMeta(2, 3, 3, 3, 1, 1, 4, 4)
    scheme = linalg.GroupScheme(linalg.ROWS, (3, 3))
    return {
        "conv": (Conv2d(meta, rng.normal(size=(18, 3))), rng.normal(size=(2, 2, 4, 4))),
        "hinged": (HingedConv2d(meta, rng.normal(size=(18, 3)), rng.normal(size=(3, 3)),
                                scheme=scheme),
                   rng.normal(size=(2, 2, 4, 4))),
        "kept-pair": (Conv2d(meta, rng.normal(size=(18, 2)), rng.normal(size=(2, 3))),
                      rng.normal(size=(2, 2, 4, 4))),
        "linear": (Conv2d(ConvMeta(5, 3, 1, 1, 1, 0, 1, 1), rng.normal(size=(5, 3))),
                   rng.normal(size=(2, 5, 1, 1))),
    }[kind]


class TestInferenceForward:
    @pytest.mark.parametrize("kind", ["plain", "basic", "hinged", "compacted-kept-pair"])
    def test_same_logits_and_nothing_cached(self, rng, kind):
        model = inference_case(kind)
        arch = model.arch
        x = rng.normal(size=(3, arch.input_channels, arch.input_h, arch.input_w))
        cached = model.forward(x)
        assert caching_parts(model) == every_part(arch)
        model.backward(np.ones_like(cached))
        assert not caching_parts(model)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(cached))
        model.forward(x)  # the inference forward drops what this one keeps
        assert np.array_equal(model.forward(x, cache=False), cached)
        assert not caching_parts(model)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(cached))

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_backward_after_inference_forward_raises(self, rng, kind):
        layer, x = layer_case(rng, kind)
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        assert np.array_equal(layer.forward(x, cache=False), y)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(y))


CACHE_CASES = ("baseline", "hinged", "kept-pair", "plain-into-identity-skip")


def cache_case(kind):
    """A network of each kind whose backward the cache contract covers."""
    if kind == "plain-into-identity-skip":
        return build_network(TABLE_CASES[kind][0], seed=5)
    return inference_case({"baseline": "basic", "hinged": "hinged",
                           "kept-pair": "compacted-kept-pair"}[kind])


class TestBackwardCache:
    """A caching conv forward keeps the array it received, not its patch
    matrix, which backward unfolds again; so nothing may write into a conv
    input before its backward. Every backward takes its layer's cache."""

    @pytest.mark.parametrize("kind", CACHE_CASES)
    def test_conv_caches_its_unchanged_input(self, rng, monkeypatch, kind):
        model = cache_case(kind)
        arch = model.arch
        seen, checked = {}, []
        for name, layer in model.layers.items():
            def forward(x, cache=True, name=name, fwd=layer.forward):
                seen[name] = (x, x.copy())
                return fwd(x, cache)

            def backward(dy, input_grad=True, name=name, layer=layer, bwd=layer.backward):
                x, x0 = seen[name]
                assert layer._cache[0] is x, name
                assert np.array_equal(x, x0), name
                checked.append(name)
                return bwd(dy, input_grad)
            monkeypatch.setattr(layer, "forward", forward)
            monkeypatch.setattr(layer, "backward", backward)
        x = rng.normal(size=(3, arch.input_channels, arch.input_h, arch.input_w))
        logits = model.forward(x)
        for name, layer in model.layers.items():
            assert layer._cache[0] is seen[name][0], name
        model.backward(np.ones_like(logits))
        assert sorted(checked) == sorted(model.layers)
        assert not caching_parts(model)
        monkeypatch.undo()  # the head's own backward is the first to raise
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(logits))

    @pytest.mark.parametrize("kind", LAYER_KINDS)
    def test_second_backward_raises(self, rng, kind):
        layer, x = layer_case(rng, kind)
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        assert layer._cache is None
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(y))


def sliced_case(kind):
    """A 32x32 net whose widest patch matrix, block0's 16 channels x 9 taps
    x 1024 positions in float64 (1.18 MB a sample), lets 7 samples into an
    8 MiB inference slice: a baseline, a hinged or a compacted net."""
    arch = ArchSpec(1, 32, 32, 4, 16, (BlockDef("basic", 16, 1), BlockDef("basic", 32, 2)))
    model = build_network(arch, seed=4)
    if kind == "baseline":
        return model
    attach_hinges(model, init="svd", first_kind="columns")
    if kind == "hinged":
        return model
    for _, layer in model.hinged_layers():
        layer.mask[[0, 2, 3]] = False
    return compact(model).network


def record_stem_batches(monkeypatch, model):
    """The batch sizes the stem sees from now on."""
    stem = model.layers["stem"]
    sizes, stem_forward = [], stem.forward

    def recorded(x, cache=True):
        sizes.append(len(x))
        return stem_forward(x, cache)
    monkeypatch.setattr(stem, "forward", recorded)
    return sizes


class TestSlicedInference:
    """The inference forward runs its batch in slices of `inference_batch`
    samples. It is bit-equal to caching forwards of the same slices. Against
    one-sample forwards it agrees to rounding only: BLAS's product of a few
    rows can depend on the row count in the last bit (a one-row product is a
    matrix-vector call), and the head multiplies one row per sample."""

    @pytest.mark.parametrize("kind", ["baseline", "hinged", "compacted"])
    def test_slices_equal_caching_forwards(self, rng, monkeypatch, kind):
        model = sliced_case(kind)
        assert model.inference_batch == 7
        x = rng.normal(size=(17, 1, 32, 32))
        sizes = record_stem_batches(monkeypatch, model)
        got = model.forward(x, cache=False)
        assert sizes == [7, 7, 3]
        assert not caching_parts(model)
        per_slice = np.concatenate([model.forward(x[s:s + 7]) for s in (0, 7, 14)])
        per_sample = np.concatenate([model.forward(x[i:i + 1]) for i in range(17)])
        assert np.array_equal(got, per_slice)
        np.testing.assert_allclose(got, per_sample, rtol=0, atol=1e-12)

    def test_sample_over_budget_runs_alone(self, rng, monkeypatch):
        # block0.conv: 32 channels x 9 taps x 4096 positions x 8 bytes = 9.4 MB
        model = build_network(ArchSpec(1, 64, 64, 3, 32, (BlockDef("plain", 8),)), seed=2)
        assert model.inference_batch == 1
        x = rng.normal(size=(3, 1, 64, 64))
        sizes = record_stem_batches(monkeypatch, model)
        got = model.forward(x, cache=False)
        assert sizes == [1, 1, 1]
        assert not caching_parts(model)
        assert np.array_equal(got, np.concatenate([model.forward(x[i:i + 1]) for i in range(3)]))


def traced_peak(run, x):
    """Peak traced bytes of `run(x)`, after a one-sample warm-up run."""
    run(x[:1])
    tracemalloc.start()
    try:
        run(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def training_step(model):
    """A caching forward and a backward of unit logit gradients."""
    return lambda x: model.backward(np.ones_like(model.forward(x)))


class TestForwardMemory:
    """The forward drops every activation after its last reader, and an
    inference forward each relu mask once applied. A conv forward unfolds
    its batch in blocks within `PATCH_BLOCK_BYTES`; a caching conv keeps
    its input, not its patch matrix (9x larger for a 3x3 kernel). Every
    backward takes its layer's cache; a stride-1 conv below the stem
    unfolds `dz` in blocks for both its gradients, and only the stem and
    the strided convs unfold their whole input again. Measured peaks
    (numpy 2.4): the wide inference forward 4.19 MiB, the toy caching
    forward 5.65 MiB, a toy training step at batch 32 7.97 MiB and a
    hinged toy step at batch 16, the phase's batch, 5.52 MiB. Unfolding
    the whole input again in every backward, the last two read 13.55 and
    8.30 MiB; caching each conv's whole patch matrix, the last three read
    35.65, 35.65 and 19.15 MiB. Keeping every output to the end of the
    forward reads 6.16 MiB for the wide forward, and keeping the last relu
    mask until the next one 4.30 MiB."""

    def test_wide_inference_forward_peak(self, rng):
        # perfbench's wide-compress net: 16 samples run as slices of 7, 7, 2
        model = build_network(WIDE_ARCH, seed=0)
        peak = traced_peak(lambda x: model.forward(x, cache=False),
                           rng.normal(size=(16, 3, 16, 16)))
        assert peak <= 4.25 * 2 ** 20

    def test_toy_caching_forward_peak(self, rng):
        model = build_network(TOY_ARCH, seed=0)
        peak = traced_peak(model.forward, rng.normal(size=(32, 1, 16, 16)))
        assert peak <= 5.9 * 2 ** 20

    def test_toy_training_step_peak(self, rng):
        model = build_network(TOY_ARCH, seed=0)
        peak = traced_peak(training_step(model), rng.normal(size=(32, 1, 16, 16)))
        assert peak <= 8.2 * 2 ** 20

    def test_hinged_toy_training_step_peak(self, rng):
        model = attach_hinges(build_network(TOY_ARCH, seed=0), init="svd")
        peak = traced_peak(training_step(model), rng.normal(size=(16, 1, 16, 16)))
        assert peak <= 5.75 * 2 ** 20


# (name, source, hinge position, protected, skip, relu, pool) per conv, in
# checkpoint order
TABLE_CASES = {
    "plain": (small_plain_arch(), [
        ("stem", None, None, False, None, True, False),
        ("block0.conv", "stem", STANDALONE, False, None, True, False),
        ("block1.conv", "block0.conv", STANDALONE, False, None, True, False),
        ("head", "block1.conv", None, False, None, False, True)]),
    "basic": (ArchSpec(1, 8, 8, 3, 4, (BlockDef("basic", 4, 1),)), [
        ("stem", None, None, True, None, True, False),
        ("block0.conv1", "stem", FIRST_IN_BASIC, False, None, True, False),
        ("block0.conv2", "block0.conv1", SECOND_IN_BASIC, True, "stem", True, False),
        ("head", "block0.conv2", None, False, None, False, True)]),
    "downsampling": (small_residual_arch(), [
        ("stem", None, None, True, None, True, False),
        ("block0.conv1", "stem", FIRST_IN_BASIC, False, None, True, False),
        ("block0.conv2", "block0.conv1", SECOND_IN_BASIC, True, "stem", True, False),
        ("block1.conv1", "block0.conv2", FIRST_IN_BASIC, False, None, True, False),
        ("block1.conv2", "block1.conv1", SECOND_IN_BASIC, True, "block1.down", True, False),
        ("block1.down", "block0.conv2", None, True, None, False, False),
        ("head", "block1.conv2", None, False, None, False, True)]),
    "plain-into-identity-skip": (
        ArchSpec(1, 8, 8, 3, 5, (BlockDef("plain", 6), BlockDef("basic", 6, 1))), [
            ("stem", None, None, False, None, True, False),
            ("block0.conv", "stem", STANDALONE, True, None, True, False),
            ("block1.conv1", "block0.conv", FIRST_IN_BASIC, False, None, True, False),
            ("block1.conv2", "block1.conv1", SECOND_IN_BASIC, True, "block0.conv", True,
             False),
            ("head", "block1.conv2", None, False, None, False, True)]),
}


class TestLayerTable:
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_table_matches_built_layers(self, case):
        arch, want = TABLE_CASES[case]
        model = build_network(arch, seed=0)
        table = arch.table
        assert [(e.name, e.source, e.position, e.protected, e.skip, e.relu, e.pool)
                for e in table] == want
        convs = list(model.named_layers())
        assert [name for name, _ in convs] == [e.name for e in table]
        for entry, (_, layer) in zip(table, convs):
            assert layer.meta == entry.meta
            assert layer.w.shape == (entry.meta.patch_size, entry.meta.out_channels)
            if entry.source is None:
                assert entry.meta.in_channels == arch.input_channels
            else:
                assert entry.meta.in_channels == model.layers[entry.source].meta.out_channels
        # the head reads the last block's main path, never a skip projection,
        # pooled to 1x1, and maps it to the classes
        head = table[-1]
        assert head.source == [e.name for e in table[:-1] if not e.name.endswith(".down")][-1]
        assert head.meta == ConvMeta(model.layers[head.source].meta.out_channels, arch.classes,
                                     1, 1, 1, 0, 1, 1)
        assert arch.order[-1] is head
        # the forward pass runs through exactly these geometries
        x = np.zeros((1, arch.input_channels, arch.input_h, arch.input_w))
        assert model.forward(x).shape == (1, arch.classes)

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_network_runs_the_table_wiring(self, monkeypatch, case):
        # a skip projection is evaluated before its block's convs, every
        # other entry is followed by its own relu, and only the stem reads
        # the network input
        arch, want = TABLE_CASES[case]
        model = build_network(arch, seed=0)
        order = [e.name for e in arch.order]
        assert sorted(order) == sorted(e.name for e in arch.table)
        for entry in arch.order:
            if entry.source is not None:
                assert order.index(entry.source) < order.index(entry.name)
            if entry.skip is not None:
                assert order.index(entry.skip) < order.index(entry.name)
        downs = [row[0] for row in want if not row[5] and not row[6]]
        for name in downs:
            block = name.rpartition(".")[0]
            assert order.index(name) < order.index(f"{block}.conv1")
        input_grads = {}
        for name, layer in model.layers.items():
            def backward(dy, input_grad=True, name=name, bwd=layer.backward):
                input_grads[name] = input_grad
                return bwd(dy, input_grad)
            monkeypatch.setattr(layer, "backward", backward)
        logits = model.forward(np.zeros((1, arch.input_channels, arch.input_h, arch.input_w)))
        assert sorted(model.relu_masks) == sorted(row[0] for row in want if row[5])
        model.backward(np.ones_like(logits))
        assert input_grads == {name: name != "stem" for name in model.layers}

    @pytest.mark.parametrize("case", [*TABLE_CASES, "toy", "wide"])
    def test_every_hinge_position_has_a_relu(self, case):
        # the phase's column mask rests on it: a dead column's output channel
        # reads 0, and the relu after it passes no gradient to the dead bias
        if case == "toy":
            arch = config.load_config(ROOT / "configs" / "toy.json").arch
        elif case == "wide":
            spec = importlib.util.spec_from_file_location(
                "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
            workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(workloads)
            arch = config.parse_config(workloads.WIDE_CONFIG).arch
        else:
            arch = TABLE_CASES[case][0]
        hinged = [e for e in arch.table if e.position is not None]
        assert hinged
        assert all(e.relu for e in hinged), [e.name for e in hinged if not e.relu]

    def test_spatial_sizes_follow_strides(self):
        arch = small_residual_arch()
        metas = {e.name: e.meta for e in arch.table}
        assert (metas["block0.conv2"].out_h, metas["block0.conv2"].out_w) == (8, 8)
        assert (metas["block1.conv1"].out_h, metas["block1.down"].out_h) == (4, 4)

    @pytest.mark.parametrize("blocks,stem", [
        ((BlockDef("basic", 4, 0),), 4),
        ((BlockDef("plain", 0),), 4),
        ((BlockDef("plain", 4),), 0),
    ])
    def test_bad_sizes_rejected(self, blocks, stem):
        with pytest.raises(ValueError):
            ArchSpec(1, 8, 8, 3, stem, blocks)

    def test_init_draw_order_pinned(self):
        # SHA-256 of the seeded toy baseline. It pins the init draw order
        # (stem, then per block the skip projection before conv1 and conv2,
        # then the head), on which every seeded baseline checkpoint depends
        arch = ArchSpec(1, 16, 16, 4, 16, (BlockDef("basic", 16, 1), BlockDef("basic", 32, 2)))
        h = hashlib.sha256()
        for name, arr in build_network(arch, seed=42).state_tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == "1a0d4d5778cb35e41ba490965c49ecf551b011247c9e825abd9ebec23062073c"


class TestGradients:
    def loss_grad(self, model, x, y):
        model.zero_grads()
        logits = model.forward(x)
        loss, dlogits = losses.cross_entropy(logits, y)
        model.backward(dlogits)
        return loss

    def fd_check(self, model, x, y, rng, samples=3, h=1e-5, tol=1e-4):
        self.loss_grad(model, x, y)
        grads = {name: grad.copy() for name, _, _, grad in model.params()}
        worst = 0.0
        for name, _, p, _ in model.params():
            flat = p.reshape(-1)
            gflat = grads[name].reshape(-1)
            for idx in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = losses.cross_entropy(model.forward(x), y)
                flat[idx] = orig - h
                lm, _ = losses.cross_entropy(model.forward(x), y)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                worst = max(worst, abs(gflat[idx] - fd) / (abs(gflat[idx]) + 1e-8))
        assert worst <= tol

    def test_zero_loss_grad_gives_zero_param_grads(self, rng):
        model = build_network(small_residual_arch(), seed=5)
        model.zero_grads()
        model.forward(rng.normal(size=(2, 1, 8, 8)))
        model.backward(np.zeros((2, 3)))
        for name, _, _, grad in model.params():
            assert np.all(grad == 0.0), name

    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_hinged_finite_differences(self, rng, case):
        # in "plain-into-identity-skip" the plain conv's output has two
        # readers, conv1 and the identity skip, so its gradient is a sum
        arch = TABLE_CASES[case][0]
        model = build_network(arch, seed=5)
        attach_hinges(model, init="svd")
        x = rng.normal(size=(3, arch.input_channels, arch.input_h, arch.input_w))
        y = rng.integers(0, 3, 3)
        self.fd_check(model, x, y, rng)

    def test_hinge_chain_rule(self, rng):
        # single hinged 1x1 conv on a 1x1 image is exactly Z = X W A + b:
        # grad_W must equal X^T (dL/dZ) A^T
        meta = ConvMeta(4, 3, 1, 1, 1, 0, 1, 1)
        w = rng.normal(size=(4, 3))
        a = rng.normal(size=(3, 3))
        layer = Conv2d(meta, w, a)
        x = rng.normal(size=(6, 4, 1, 1))
        out = layer.forward(x)
        dz = rng.normal(size=out.shape)
        layer.backward(dz)
        x2 = x.reshape(6, 4)
        dz2 = dz.reshape(6, 3)
        assert np.abs(layer.grad_w - x2.T @ dz2 @ a.T).max() <= 1e-12
        assert np.abs(layer.grad_a - (x2 @ w).T @ dz2).max() <= 1e-12

    def test_backward_before_forward_is_usage_error(self, rng):
        meta = ConvMeta(2, 3, 3, 3, 1, 1, 8, 8)
        conv = Conv2d(meta, rng.normal(size=(18, 3)))
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 3, 8, 8)))

    def test_grad_accumulates_until_zeroed(self, rng):
        model = build_network(small_plain_arch(), seed=7)
        x = rng.normal(size=(2, 2, 8, 8))
        y = rng.integers(0, 3, 2)
        self.loss_grad(model, x, y)
        g1 = model.layers["head"].grad_w.copy()
        logits = model.forward(x)
        _, dlogits = losses.cross_entropy(logits, y)
        model.backward(dlogits)
        assert np.abs(model.layers["head"].grad_w - 2 * g1).max() <= 1e-12


def private_conv_outputs(monkeypatch, model):
    """Hand every conv output on as a private copy, so that no in-place
    edit downstream can reach a buffer the conv still holds."""
    for layer in model.layers.values():
        monkeypatch.setattr(layer, "forward", lambda x, cache=True, fwd=layer.forward:
                            fwd(x, cache).copy(order="K"))


def gradient_state(model, x, y):
    model.zero_grads()
    logits = model.forward(x)
    model.backward(losses.cross_entropy(logits, y)[1])
    return logits, {name: grad.copy() for name, _, _, grad in model.params()}


class TestInPlaceEpilogues:
    """The bias add, the skip sum and the relu each make a new array: no
    forward changes its input, and handing every conv output on as a
    private copy changes no logit and no gradient bit."""

    @pytest.mark.parametrize("kind", ["plain", "basic", "hinged", "compacted-kept-pair"])
    def test_network_forward_leaves_input_unchanged(self, rng, kind):
        model = inference_case(kind)
        arch = model.arch
        x = rng.normal(size=(3, arch.input_channels, arch.input_h, arch.input_w))
        x0 = x.copy()
        model.forward(x)
        model.forward(x, cache=False)
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("case", ["plain", "hinged", "kept-pair", "1x1-view"])
    def test_conv_forward_leaves_input_unchanged(self, rng, case):
        if case == "1x1-view":  # im2col hands back a view of the input here
            meta = ConvMeta(4, 3, 1, 1, 1, 0, 5, 5)
            conv = Conv2d(meta, rng.normal(size=(4, 3)))
        else:
            meta = ConvMeta(4, 3, 3, 3, 1, 1, 5, 5)
            rank = 2 if case == "kept-pair" else 3
            a = None if case == "plain" else rng.normal(size=(rank, 3))
            conv = Conv2d(meta, rng.normal(size=(36, rank)), a, rng.normal(size=3))
        x = channels_last(rng, (2, 4, 5, 5))
        x0 = x.copy()
        conv.forward(x)
        assert np.array_equal(x, x0)

    @pytest.mark.parametrize("hinged", [False, True])
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_gradients_equal_private_copy_run(self, rng, monkeypatch, case, hinged):
        # in "plain-into-identity-skip" one relu output has two readers,
        # conv1 and conv2's skip sum
        arch = TABLE_CASES[case][0]
        model = build_network(arch, seed=5)
        if hinged:
            attach_hinges(model, init="svd")
        x = rng.normal(size=(4, arch.input_channels, arch.input_h, arch.input_w))
        y = rng.integers(0, arch.classes, 4)
        logits, grads = gradient_state(model, x, y)
        private_conv_outputs(monkeypatch, model)
        want_logits, want = gradient_state(model, x, y)
        assert np.array_equal(logits, want_logits)
        assert grads.keys() == want.keys()
        for name in grads:
            assert np.array_equal(grads[name], want[name]), name


def test_every_product_goes_through_matmul(rng, monkeypatch):
    # perfbench books BLAS time to the `linalg.matmul` span through the
    # `net.matmul` binding; a product made around it would be booked to
    # its caller. One toy forward and backward makes per conv one forward
    # product per block of samples and its gradients: below the stem at
    # stride 1, two products per block of `dz` samples (the input gradient
    # and the weight gradient's share); for the stem one weight gradient;
    # for a strided conv one weight gradient and one product per kernel
    # tap. A hinge adds one forward and two backward products (grad_a and
    # the gradient of `pre`).
    calls, counted = [], net.matmul

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)
    monkeypatch.setattr(net, "matmul", counting)
    model = build_network(TOY_ARCH, seed=0)
    x = rng.normal(size=(8, 1, 16, 16))
    table = TOY_ARCH.table
    blocks = sum(-(-len(x) // model.layers[e.name]._block) for e in table)
    assert blocks > len(table)  # some conv runs the batch in several blocks

    def backward_products(m, reads_input):
        if not reads_input:
            return 1
        if m.stride > 1:
            return 1 + m.kernel_h * m.kernel_w
        dz_patch_bytes = 8 * m.out_h * m.out_w * m.kernel_h * m.kernel_w * m.out_channels
        return 2 * -(-len(x) // net._samples_per_block(m.in_channels, dz_patch_bytes))
    backward = [backward_products(e.meta, e.source is not None) for e in table]
    # some stride-1 gradient runs in several blocks
    assert any(n > 2 for e, n in zip(table, backward) if e.meta.stride == 1)
    plain = blocks + sum(backward)
    for hinged, want in ((False, plain), (True, plain + 4 * 3)):
        if hinged:
            attach_hinges(model, init="svd")
        calls.clear()
        logits = model.forward(x)
        model.backward(np.ones_like(logits))
        assert len(calls) == want
