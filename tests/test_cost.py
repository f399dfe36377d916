import hashlib

import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch, staircase, state_with_masks
from hingenet import cost
from hingenet.net import ArchSpec, BlockDef, attach_hinges, build_network


def wide_plain(kind):
    """A 16-channel stem and one plain 16 -> 32, 3x3 conv at 8x8 (patch
    144) hinged with `kind` groups, and that conv."""
    model = build_network(ArchSpec(1, 8, 8, 3, 16, (BlockDef("plain", 32),)), seed=0)
    attach_hinges(model, init="svd", plain_kind=kind)
    return model, model.layers["block0.conv"]


def plans_of(model, threshold=None):
    return {p.name: p for p in cost.build_plan(model, threshold)}


class TestConvFlops:
    def test_stated_convention(self):
        # 2 * in * kh * kw * out * spatial
        model, _ = wide_plain("columns")
        plan = plans_of(model)["block0.conv"]
        assert plan.flops == plan.flops_original == 2 * 16 * 9 * 32 * 64 == 589_824

    def test_linearity_in_out_channels(self):
        model, layer = wide_plain("columns")
        layer.mask[16:] = False
        plans = plans_of(model)
        assert plans["block0.conv"].flops * 2 == plans["block0.conv"].flops_original
        assert plans["head"].alive_in == 16   # the pruned outputs leave the head too

    def test_one_by_one(self):
        # the head is the same rule at one position
        model, _ = wide_plain("columns")
        head = plans_of(model)["head"]
        assert head.flops == 2 * 32 * 3 and head.params == 32 * 3 + 3

    def test_alive_bounds(self):
        model = build_network(small_residual_arch(), seed=5)
        attach_hinges(model, init="svd", first_kind="columns")
        nominal = {e.name: e.meta.out_channels for e in model.arch.table}
        for threshold in (0.0, 1.0, np.inf):
            for p in cost.build_plan(model, threshold):
                assert 1 <= p.alive_out <= nominal[p.name]
                assert p.rank is None or 1 <= p.rank <= nominal[p.name]
                assert p.flops <= p.flops_original


class TestDecomposeSaves:
    def test_boundary_144_32(self):
        model, layer = wide_plain("rows")
        # the pair is kept iff rank < 144*32/(144+32) = 26.18...
        for rank, kept in ((16, True), (26, True), (27, False)):
            layer.mask[:] = np.arange(32) < rank
            plan = plans_of(model)["block0.conv"]
            assert (plan.rank, plan.kept_pair) == (rank, kept)
            weights = rank * (144 + 32) if kept else 144 * 32
            assert plan.flops == 2 * weights * 64 and plan.params == weights + 32

    def test_full_rank_never_saves(self):
        model, _ = wide_plain("rows")
        plan = plans_of(model)["block0.conv"]
        assert plan.mode == "decompose" and not plan.kept_pair
        assert plan.flops == plan.flops_original


def model_digest(model):
    h = hashlib.sha256()
    for name, arr in state_with_masks(model).items():
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
        gammas = staircase(model)
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
        model = build_network(small_residual_arch(), seed=8)
        attach_hinges(model, init="svd", first_kind="columns")
        for p in cost.build_plan(model, threshold=1.0):
            positions = model.layers[p.name].meta.spatial
            assert p.flops == 2 * positions * (p.params - p.alive_out)

    def test_report_params_match_stored_tensor_walk(self):
        """Over random masked models, each layer's plan prices the tensors
        compaction stores: flops are 2 * positions * (W.size + A.size), and
        params add b.size. The original count is the baseline's tensors."""
        from hingenet import compaction, verify
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(12):
            model = verify.random_masked_model(rng)
            network, plans = compaction.compact(model)
            seen |= {(p.mode, p.kept_pair) for p in plans}
            tensors = network.state_tensors()
            report = cost.report(plans)
            for p in plans:
                positions = model.layers[p.name].meta.spatial
                weights = sum(tensors[f"{p.name}/{key}"].size
                              for key in ("W", "A") if f"{p.name}/{key}" in tensors)
                assert p.flops == 2 * positions * weights, p.name
                assert p.params == weights + tensors[f"{p.name}/b"].size, p.name
            walk = sum(t.size for name, t in tensors.items() if not name.endswith("/mode"))
            assert walk == report["params_compressed"]
            baseline = build_network(model.arch, seed=0).state_tensors()
            assert report["params_original"] == sum(t.size for t in baseline.values())
        assert len(seen) == 4   # untouched, pruned, kept pair and merged back
