import hashlib
import itertools

import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch
from hingenet import losses, net
from hingenet.hinge import FIRST_IN_BASIC, SECOND_IN_BASIC, STANDALONE, ConvMeta
from hingenet.compaction import compact
from hingenet.net import (ArchSpec, BlockDef, Conv2d, GlobalAvgPool, HingedConv2d, Linear,
                          ReLU, attach_hinges, build_network, col2im, im2col)


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


class TestConv:
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_against_naive_oracle(self, rng, stride, pad):
        meta = ConvMeta(3, 4, 3, 3, stride, pad,
                        (8 + 2 * pad - 3) // stride + 1, (8 + 2 * pad - 3) // stride + 1)
        conv = Conv2d(meta, rng=rng)
        conv.b = rng.normal(size=4)
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

    def test_im2col_feature_order_is_kernel_then_channel(self, rng):
        x = rng.normal(size=(2, 3, 5, 5))
        col = im2col(x, 3, 3, 2, 1).reshape(2, 3, 3, 27)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n, i, j in itertools.product(range(2), range(3), range(3)):
            patch = xp[n, :, 2 * i:2 * i + 3, 2 * j:2 * j + 3]
            assert np.array_equal(col[n, i, j], patch.transpose(1, 2, 0).ravel())

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

    @pytest.mark.parametrize("hinged", [False, True])
    def test_grad_w_rows_in_stored_order(self, rng, hinged):
        # finite differences through the (c, kh, kw) naive oracle: grad_w must
        # come back in the stored row order whatever order im2col uses inside
        meta = ConvMeta(2, 3, 3, 3, 2, 1, 3, 3)
        x = rng.normal(size=(2, 2, 5, 5))
        g = rng.normal(size=(2, 3, 3, 3))
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        w = rng.normal(size=(18, 3))
        layer = (HingedConv2d(meta, w, a, b=b) if hinged
                 else Conv2d(meta, w=w, b=b))
        layer.forward(x)
        layer.backward(g)

        def loss(w_mat):
            return np.sum(g * naive_conv(x, w_mat @ a if hinged else w_mat, b, meta))

        h = 1e-6
        fd = np.zeros_like(w)
        for r, c in itertools.product(range(18), range(3)):
            step = np.zeros_like(w)
            step[r, c] = h
            fd[r, c] = (loss(w + step) - loss(w - step)) / (2 * h)
        assert np.abs(layer.grad_w - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_hinged_equals_conv_then_1x1(self, rng):
        meta = ConvMeta(2, 5, 3, 3, 1, 1, 8, 8)
        w = rng.normal(size=(18, 5))
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=5)
        hinged = HingedConv2d(meta, w, a, b=b)
        plain = Conv2d(meta, w=w @ a, b=b)
        x = rng.normal(size=(3, 2, 8, 8))
        assert np.abs(hinged.forward(x) - plain.forward(x)).max() <= 1e-12


class TestNetworkForward:
    def test_zero_weights_uniform_logits(self, rng):
        arch = small_residual_arch()
        model = build_network(arch, seed=0)
        for _, _, layer, attr in model.params():
            setattr(layer, attr, np.zeros_like(getattr(layer, attr)))
        logits = model.forward(rng.normal(size=(4, 1, 8, 8)))
        assert np.all(logits == 0.0)

    def test_identity_composition(self, rng):
        # 1x1 identity convs everywhere: on non-negative inputs the relus
        # pass through and logits equal the pooled input through the head.
        arch = ArchSpec(3, 6, 6, 2, 3, (BlockDef("plain", 3),))
        meta = ConvMeta(3, 3, 1, 1, 1, 0, 6, 6)
        layers = {"stem": Conv2d(meta, w=np.eye(3)), "block0.conv": Conv2d(meta, w=np.eye(3))}
        head = Linear(3, 2, w=rng.normal(size=(3, 2)), b=rng.normal(size=2))
        model = net.Network(arch, layers, head)
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
        attach_hinges(model, init="svd")
        clone, modes = net.network_from_tensors(model.arch, model.state_tensors())
        assert modes is None
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
    assert any(isinstance(layer, HingedConv2d) for layer in compacted.layers.values())
    return compacted


def caching_parts(model):
    """Every object of `model` that keeps something for backward."""
    parts = [*model.layers.values(), model.head, model.stem_relu, model.pool]
    for blk in model.blocks:
        parts += [part for part in vars(blk).values() if hasattr(part, "_cache")]
    return parts


class TestInferenceForward:
    @pytest.mark.parametrize("kind", ["plain", "basic", "hinged", "compacted-kept-pair"])
    def test_same_logits_and_nothing_cached(self, rng, kind):
        model = inference_case(kind)
        arch = model.arch
        x = rng.normal(size=(3, arch.input_channels, arch.input_h, arch.input_w))
        cached = model.forward(x)
        assert all(part._cache is not None for part in caching_parts(model))
        assert np.array_equal(model.forward(x, cache=False), cached)
        assert all(part._cache is None for part in caching_parts(model))
        with pytest.raises(RuntimeError, match="backward called before forward"):
            model.backward(np.ones_like(cached))

    @pytest.mark.parametrize("kind", ["conv", "hinged", "linear", "relu", "pool"])
    def test_backward_after_inference_forward_raises(self, rng, kind):
        meta = ConvMeta(2, 3, 3, 3, 1, 1, 4, 4)
        layer, x = {
            "conv": (Conv2d(meta, rng=rng), rng.normal(size=(2, 2, 4, 4))),
            "hinged": (HingedConv2d(meta, rng.normal(size=(18, 3)), rng.normal(size=(3, 3))),
                       rng.normal(size=(2, 2, 4, 4))),
            "linear": (Linear(5, 3, rng=rng), rng.normal(size=(2, 5))),
            "relu": (ReLU(), rng.normal(size=(2, 5))),
            "pool": (GlobalAvgPool(), rng.normal(size=(2, 3, 4, 4))),
        }[kind]
        y = layer.forward(x)
        layer.backward(np.ones_like(y))
        assert np.array_equal(layer.forward(x, cache=False), y)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(y))


# (name, source, hinge position, protected) per conv, in checkpoint order
TABLE_CASES = {
    "plain": (small_plain_arch(), [
        ("stem", None, None, False),
        ("block0.conv", "stem", STANDALONE, False),
        ("block1.conv", "block0.conv", STANDALONE, False)]),
    "basic": (ArchSpec(1, 8, 8, 3, 4, (BlockDef("basic", 4, 1),)), [
        ("stem", None, None, True),
        ("block0.conv1", "stem", FIRST_IN_BASIC, False),
        ("block0.conv2", "block0.conv1", SECOND_IN_BASIC, True)]),
    "downsampling": (small_residual_arch(), [
        ("stem", None, None, True),
        ("block0.conv1", "stem", FIRST_IN_BASIC, False),
        ("block0.conv2", "block0.conv1", SECOND_IN_BASIC, True),
        ("block1.conv1", "block0.conv2", FIRST_IN_BASIC, False),
        ("block1.conv2", "block1.conv1", SECOND_IN_BASIC, True),
        ("block1.down", "block0.conv2", None, True)]),
    "plain-into-identity-skip": (
        ArchSpec(1, 8, 8, 3, 5, (BlockDef("plain", 6), BlockDef("basic", 6, 1))), [
            ("stem", None, None, False),
            ("block0.conv", "stem", STANDALONE, True),
            ("block1.conv1", "block0.conv", FIRST_IN_BASIC, False),
            ("block1.conv2", "block1.conv1", SECOND_IN_BASIC, True)]),
}


class TestLayerTable:
    @pytest.mark.parametrize("case", list(TABLE_CASES))
    def test_table_matches_built_layers(self, case):
        arch, want = TABLE_CASES[case]
        model = build_network(arch, seed=0)
        table = arch.table
        assert [(e.name, e.source, e.position, e.protected) for e in table] == want
        convs = [(name, layer) for name, layer in model.named_layers() if name != "head"]
        assert [name for name, _ in convs] == [e.name for e in table]
        for entry, (_, layer) in zip(table, convs):
            assert layer.meta == entry.meta
            assert layer.w.shape == (entry.meta.patch_size, entry.meta.out_channels)
            if entry.source is None:
                assert entry.meta.in_channels == arch.input_channels
            else:
                assert entry.meta.in_channels == model.layers[entry.source].meta.out_channels
        # the head reads the last block's main path, never a skip projection
        assert arch.output == [e.name for e in table if not e.name.endswith(".down")][-1]
        # the forward pass runs through exactly these geometries
        x = np.zeros((1, arch.input_channels, arch.input_h, arch.input_w))
        assert model.forward(x).shape == (1, arch.classes)

    def test_blocks_are_assembled_from_named_layers(self):
        model = build_network(small_residual_arch(), seed=0)
        blk = model.blocks[1]
        assert blk.conv1 is model.layers["block1.conv1"]
        assert blk.conv2 is model.layers["block1.conv2"]
        assert blk.downsample is model.layers["block1.down"]
        assert model.blocks[0].downsample is None
        assert model.stem is model.layers["stem"] and not model.stem.needs_input_grad

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
        grads = {name: getattr(layer, f"grad_{attr}").copy()
                 for name, _, layer, attr in model.params()}
        worst = 0.0
        for name, _, layer, attr in model.params():
            p = getattr(layer, attr)
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
        for name, _, layer, attr in model.params():
            assert np.all(getattr(layer, f"grad_{attr}") == 0.0), name

    def test_residual_hinged_finite_differences(self, rng):
        model = build_network(small_residual_arch(), seed=5)
        attach_hinges(model, init="svd")
        x = rng.normal(size=(3, 1, 8, 8))
        y = rng.integers(0, 3, 3)
        self.fd_check(model, x, y, rng)

    def test_plain_chain_finite_differences(self, rng):
        model = build_network(small_plain_arch(), seed=6)
        attach_hinges(model, init="identity")
        x = rng.normal(size=(3, 2, 8, 8))
        y = rng.integers(0, 3, 3)
        self.fd_check(model, x, y, rng)

    def test_hinge_chain_rule(self, rng):
        # single hinged 1x1 conv on a 1x1 image is exactly Z = X W A + b:
        # grad_W must equal X^T (dL/dZ) A^T
        meta = ConvMeta(4, 3, 1, 1, 1, 0, 1, 1)
        w = rng.normal(size=(4, 3))
        a = rng.normal(size=(3, 3))
        layer = HingedConv2d(meta, w, a)
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
        conv = Conv2d(meta, rng=rng)
        with pytest.raises(RuntimeError):
            conv.backward(np.zeros((1, 3, 8, 8)))

    def test_grad_accumulates_until_zeroed(self, rng):
        model = build_network(small_plain_arch(), seed=7)
        x = rng.normal(size=(2, 2, 8, 8))
        y = rng.integers(0, 3, 2)
        self.loss_grad(model, x, y)
        g1 = model.head.grad_w.copy()
        logits = model.forward(x)
        _, dlogits = losses.cross_entropy(logits, y)
        model.backward(dlogits)
        assert np.abs(model.head.grad_w - 2 * g1).max() <= 1e-12
