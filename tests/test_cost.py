import hashlib

import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch
from hingenet import cost
from hingenet.hinge import ConvMeta
from hingenet.net import ArchSpec, BlockDef, attach_hinges, build_network


class TestConvFlops:
    def test_stated_convention(self):
        # 2 * in * kh * kw * out * spatial
        meta = ConvMeta(16, 32, 3, 3, 1, 1, 8, 8)
        assert cost.conv_flops(meta, 16, 32) == 2 * 16 * 9 * 32 * 64 == 589_824

    def test_linearity_in_out_channels(self):
        meta = ConvMeta(16, 32, 3, 3, 1, 1, 8, 8)
        assert cost.conv_flops(meta, 16, 16) * 2 == cost.conv_flops(meta, 16, 32)

    def test_one_by_one(self):
        meta = ConvMeta(4, 4, 1, 1, 1, 0, 1, 1)
        assert cost.conv_flops(meta, 4, 4) == 32

    def test_alive_bounds(self):
        meta = ConvMeta(4, 4, 1, 1, 1, 0, 1, 1)
        with pytest.raises(ValueError):
            cost.conv_flops(meta, 5, 4)


class TestDecomposeSaves:
    def test_boundary_144_32(self):
        meta = ConvMeta(16, 32, 3, 3, 1, 1, 8, 8)  # patch 144, out 32
        # pair saves iff rank < 144*32/(144+32) = 26.18...
        assert cost.decompose_saves(meta, 16)
        assert cost.decompose_saves(meta, 26)
        assert not cost.decompose_saves(meta, 27)

    def test_full_rank_never_saves(self):
        meta = ConvMeta(2, 6, 3, 3, 1, 1, 8, 8)
        assert not cost.decompose_saves(meta, 6)

    def test_rank_validation(self):
        meta = ConvMeta(2, 6, 3, 3, 1, 1, 8, 8)
        with pytest.raises(ValueError):
            cost.decompose_saves(meta, 0)


def model_digest(model):
    h = hashlib.sha256()
    for name, arr in model.state_tensors().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestCompressionRatio:
    def test_gamma_one_at_zero_threshold_prune_mode(self, rng):
        model = build_network(small_plain_arch(), seed=1)
        attach_hinges(model, init="identity", plain_kind="columns")
        assert cost.compression_ratio(model, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_gamma_one_at_zero_threshold_decompose_mode(self, rng):
        # full-rank pairs are merged back, so the ratio is 1, not > 1
        model = build_network(small_residual_arch(), seed=1)
        attach_hinges(model, init="svd")
        assert cost.compression_ratio(model, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_floor_at_infinite_threshold(self, rng):
        model = build_network(small_residual_arch(), seed=2)
        attach_hinges(model, init="svd")
        gamma = cost.compression_ratio(model, np.inf)
        assert 0.0 < gamma < 1.0
        for _, layer in model.hinged_layers():
            # ratio computed as if one group per layer survived
            assert layer.mask.all()  # and the call must not mutate masks

    def test_staircase_monotone_non_increasing(self, rng):
        model = build_network(small_residual_arch(), seed=3)
        attach_hinges(model, init="svd")
        norms = np.concatenate([l.group_norms() for _, l in model.hinged_layers()])
        thresholds = np.concatenate([[0.0], np.sort(np.unique(norms)) + 1e-12, [np.inf]])
        gammas = [cost.compression_ratio(model, t) for t in thresholds]
        assert all(g1 >= g2 - 1e-15 for g1, g2 in zip(gammas, gammas[1:]))
        assert gammas[0] == pytest.approx(1.0)

    def test_purity(self, rng):
        model = build_network(small_residual_arch(), seed=4)
        attach_hinges(model, init="svd")
        before = model_digest(model)
        cost.compression_ratio(model, 0.7)
        assert model_digest(model) == before

    @pytest.mark.parametrize("arch,name", [
        (small_residual_arch(), "block0.conv2"),
        # a plain conv whose output the next block's identity skip reads
        (ArchSpec(1, 8, 8, 3, 6, (BlockDef("plain", 6), BlockDef("basic", 6, 1))),
         "block0.conv"),
    ], ids=["basic-conv2", "plain-into-identity-skip"])
    def test_skip_output_prune_rejected(self, rng, arch, name):
        from hingenet import linalg
        model = build_network(arch, seed=6)
        attach_hinges(model, init="svd")
        layer = model.layers[name]
        # bypass the group-kind rule of attach_hinges on purpose
        n = layer.meta.out_channels
        layer.scheme = linalg.GroupScheme(linalg.COLUMNS, (n, n))
        layer.mask = np.ones(n, dtype=bool)
        with pytest.raises(ValueError):
            cost.compression_ratio(model, 0.0)


class TestParams:
    def test_params_mirror_flops_without_spatial(self):
        meta = ConvMeta(16, 32, 3, 3, 1, 1, 8, 8)
        assert cost.conv_params(meta, 16, 32) == 16 * 9 * 32 + 32
        assert cost.pair_params(meta, 16, 5) == 16 * 9 * 5 + 5 * 32 + 32

    def test_report_params_match_stored_tensor_walk(self, rng):
        from hingenet import compaction
        model = build_network(small_residual_arch(), seed=7)
        attach_hinges(model, init="svd")
        for _, layer in model.hinged_layers():
            layer.mask[rng.choice(layer.scheme.group_count, 2, replace=False)] = False
            layer.apply_mask()
        cm = compaction.compact(model)
        walk = sum(t.size for name, t in cm.network.state_tensors().items()
                   if not name.endswith("/mask"))
        assert walk == cm.report.params_compressed
