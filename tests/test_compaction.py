import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch
from hingenet import checkpoint, cost, hinge, linalg
from hingenet import net as net_module
from hingenet.compaction import (StructuralError, compact, compact_decompose,
                                 compact_prune, verify_equivalence)
from hingenet.hinge import ConvMeta
from hingenet.net import (Conv2d, HingedConv2d, attach_hinges, build_network,
                          network_from_tensors)


def hinged_layer(rng, patch=12, n=8, kind="columns"):
    meta = ConvMeta(3, n, 2, 2, 1, 0, 4, 4)
    w = rng.normal(size=(patch, n))
    a = rng.normal(size=(n, n))
    scheme = (linalg.column_scheme(n, n) if kind == "columns"
              else linalg.row_scheme(n, n))
    return HingedConv2d(meta, w, a, b=rng.normal(size=n), scheme=scheme)


class TestCompactPrune:
    def test_no_masks_gives_full_product(self, rng):
        layer = hinged_layer(rng)
        merged, alive = compact_prune(layer)
        assert np.array_equal(merged, layer.w @ layer.a)
        assert alive.tolist() == list(range(8))

    def test_identity_hinge_drops_columns(self, rng):
        layer = hinged_layer(rng)
        layer.a = np.eye(8)
        layer.mask[[2, 4]] = False
        layer.apply_mask()
        merged, alive = compact_prune(layer)
        keep = [0, 1, 3, 5, 6, 7]
        assert np.array_equal(merged, layer.w[:, keep])
        assert alive.tolist() == keep

    def test_forward_equals_alive_columns(self, rng):
        layer = hinged_layer(rng)
        layer.mask[rng.choice(8, 3, replace=False)] = False
        layer.apply_mask()
        merged, alive = compact_prune(layer)
        x = rng.normal(size=(10, 12))
        assert np.abs(x @ merged - (x @ layer.w @ layer.a)[:, alive]).max() <= 1e-12

    def test_wrong_scheme_rejected(self, rng):
        layer = hinged_layer(rng, kind="rows")
        with pytest.raises(hinge.SchemeLegalityError):
            compact_prune(layer)


class TestCompactDecompose:
    def test_no_masks_unchanged(self, rng):
        layer = hinged_layer(rng, kind="rows")
        w_r, a_r, alive = compact_decompose(layer)
        assert np.array_equal(w_r, layer.w)
        assert np.array_equal(a_r, layer.a)

    def test_rank_one(self, rng):
        layer = hinged_layer(rng, kind="rows")
        layer.mask[:] = False
        layer.mask[3] = True
        layer.apply_mask()
        w_r, a_r, alive = compact_decompose(layer)
        assert w_r.shape == (12, 1) and a_r.shape == (1, 8)
        assert np.abs(w_r @ a_r - layer.w @ layer.a).max() <= 1e-12

    def test_product_reproduces_masked_exactly(self, rng):
        layer = hinged_layer(rng, kind="rows", n=16)
        layer.mask[rng.choice(16, 5, replace=False)] = False
        layer.apply_mask()
        w_r, a_r, _ = compact_decompose(layer)
        assert np.abs(w_r @ a_r - layer.w @ layer.a).max() <= 1e-12

    def test_pair_cost_matches_saves_verdict(self, rng):
        layer = hinged_layer(rng, kind="rows", n=16)
        layer.mask[rng.choice(16, 5, replace=False)] = False
        layer.apply_mask()
        rank = int(layer.mask.sum())
        meta = layer.meta
        pair = cost.pair_flops(meta, meta.in_channels, rank)
        merged = cost.conv_flops(meta, meta.in_channels, meta.out_channels)
        assert (pair < merged) == cost.decompose_saves(meta, rank)


class TestPropagate:
    def test_untouched_model_is_identical(self, rng):
        model = build_network(small_residual_arch(), seed=1)
        attach_hinges(model, init="svd")
        cm = compact(model)
        assert verify_equivalence(model, cm.network, 8, seed=2) <= 1e-10

    def test_plain_chain_input_rows_removed(self, rng):
        model = build_network(small_plain_arch(channels=(4, 6)), seed=2)
        attach_hinges(model, init="identity", plain_kind="columns")
        first = model.blocks[0].conv
        first.mask[[1, 3]] = False
        first.apply_mask()
        cm = compact(model)
        second = cm.network.blocks[1].conv
        # 2 of 4 channels pruned: next conv loses the matching kernel rows
        assert second.meta.in_channels == 2
        assert second.w.shape[0] == 2 * 9
        assert verify_equivalence(model, cm.network, 16, seed=3) <= 1e-10

    def test_head_input_adjusted(self, rng):
        model = build_network(small_plain_arch(channels=(5, 4)), seed=3)
        attach_hinges(model, init="identity", plain_kind="columns")
        last = model.blocks[1].conv
        last.mask[[0, 2]] = False
        last.apply_mask()
        cm = compact(model)
        assert cm.network.head.w.shape[0] == 2
        assert verify_equivalence(model, cm.network, 16, seed=4) <= 1e-10

    def test_basic_block_output_shape_unchanged(self, rng):
        model = build_network(small_residual_arch(), seed=4)
        attach_hinges(model, init="svd")
        conv2 = model.blocks[0].conv2
        conv2.mask[rng.choice(conv2.scheme.group_count, 2, replace=False)] = False
        conv2.apply_mask()
        cm = compact(model)
        out_meta = (cm.network.blocks[0].conv2.meta)
        assert out_meta.out_channels == conv2.meta.out_channels
        assert verify_equivalence(model, cm.network, 16, seed=5) <= 1e-10

    def test_first_conv_columns_shrinks_second_conv_input(self, rng):
        model = build_network(small_residual_arch(), seed=5)
        attach_hinges(model, init="identity", first_kind="columns")
        conv1 = model.blocks[0].conv1
        conv1.mask[[0, 1]] = False
        conv1.apply_mask()
        cm = compact(model)
        blk = cm.network.blocks[0]
        assert blk.conv1.meta.out_channels == conv1.meta.out_channels - 2
        assert blk.conv2.meta.in_channels == conv1.meta.out_channels - 2
        assert verify_equivalence(model, cm.network, 16, seed=6) <= 1e-10

    def test_plain_into_identity_skip_forced_to_rows(self, rng):
        arch = net_module.ArchSpec(1, 8, 8, 3, 6,
                                   (net_module.BlockDef("plain", 6),
                                    net_module.BlockDef("basic", 6, 1)))
        model = net_module.build_network(arch, seed=13)
        attach_hinges(model, init="identity", plain_kind="columns")
        plain_conv = model.blocks[0].conv
        assert plain_conv.scheme.kind == linalg.ROWS  # columns overridden
        plain_conv.mask[[1, 4]] = False
        plain_conv.apply_mask()
        cm = compact(model)
        assert verify_equivalence(model, cm.network, 16, seed=7) <= 1e-10

    def test_identity_skip_with_pruned_input_rejected(self, rng):
        arch = net_module.ArchSpec(1, 8, 8, 3, 6,
                                   (net_module.BlockDef("plain", 6),
                                    net_module.BlockDef("basic", 6, 1)))
        model = net_module.build_network(arch, seed=14)
        attach_hinges(model, init="identity")
        plain_conv = model.blocks[0].conv
        plain_conv.scheme = linalg.column_scheme(6, 6)  # bypass the guard
        plain_conv.mask = np.ones(6, dtype=bool)
        plain_conv.mask[2] = False
        plain_conv.apply_mask()
        with pytest.raises(ValueError):
            cost.compression_ratio(model, None)

    def test_merge_back_when_pair_does_not_save(self, rng):
        # masking nothing on a rows-scheme layer keeps full rank: the pair
        # costs more than one conv, so the compact layer must be merged
        model = build_network(small_residual_arch(), seed=6)
        attach_hinges(model, init="svd")
        cm = compact(model)
        for plan in cm.plans:
            if plan.mode == "decompose":
                assert not plan.kept_pair
        for blk in cm.network.blocks:
            assert isinstance(blk.conv1, Conv2d)
            assert isinstance(blk.conv2, Conv2d)


class TestVerifyEquivalence:
    def test_self_is_zero(self, rng):
        model = build_network(small_residual_arch(), seed=7)
        assert verify_equivalence(model, model, 4, seed=0) == 0.0

    def test_corruption_detected(self, rng):
        model = build_network(small_residual_arch(), seed=8)
        attach_hinges(model, init="svd")
        cm = compact(model)
        cm.network.head.w[0, 0] += 1e-3
        assert verify_equivalence(model, cm.network, 4, seed=0) > 0.0

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_non_finite_logits_raise(self, which):
        good = build_network(small_residual_arch(), seed=7)
        bad = build_network(small_residual_arch(), seed=7)
        bad.layers["block1.conv2"].w[0, 0] = np.inf
        models = (bad, good) if which == "first" else (good, bad)
        with pytest.raises(linalg.NumericError):
            verify_equivalence(*models, 4, seed=0)

    def test_shape_divergence_raises(self, rng):
        a = build_network(small_residual_arch(classes=3), seed=9)
        b = build_network(small_residual_arch(classes=4), seed=9)
        b.arch = a.arch
        with pytest.raises(StructuralError):
            verify_equivalence(a, b, 2, seed=0)


class TestSerialization:
    def test_compact_round_trip(self, rng, tmp_path):
        model = build_network(small_residual_arch(channels=(6, 8)), seed=10)
        attach_hinges(model, init="svd")
        for _, layer in model.hinged_layers():
            layer.mask[rng.choice(layer.scheme.group_count, 3, replace=False)] = False
            layer.apply_mask()
        cm = compact(model)
        path = tmp_path / "compact.hngw"
        checkpoint.save(path, cm.network.state_tensors(cm.modes))

        rebuilt, modes = network_from_tensors(model.arch, checkpoint.load(path))
        assert modes["stem"] == hinge.UNTOUCHED
        assert modes["block0.conv1"] in (hinge.PRUNE, hinge.DECOMPOSE)
        # f32 storage: equality up to single-precision rounding
        assert verify_equivalence(cm.network, rebuilt, 8, seed=1) <= 1e-4

    @pytest.mark.parametrize("kind", ["baseline", "compacted"])
    def test_read_then_write_is_byte_equal(self, tmp_path, kind):
        model = build_network(small_residual_arch(channels=(6, 8)), seed=17)
        modes = None
        if kind == "compacted":
            attach_hinges(model, init="svd", first_kind="columns")
            for _, layer in model.hinged_layers():
                layer.mask[[0, 2, 3]] = False
            cm = compact(model)
            model, modes = cm.network, cm.modes
            assert {hinge.PRUNE, hinge.DECOMPOSE} <= set(modes.values())
            assert any(isinstance(layer, HingedConv2d) for layer in model.layers.values())
        first, second = tmp_path / "first.hngw", tmp_path / "second.hngw"
        checkpoint.save(first, model.state_tensors(modes))
        rebuilt, read_modes = network_from_tensors(model.arch, checkpoint.load(first))
        assert read_modes == (None if modes is None
                              else {e.name: modes[e.name] for e in model.arch.table})
        checkpoint.save(second, rebuilt.state_tensors(read_modes))
        assert second.read_bytes() == first.read_bytes()

    def test_pruned_plain_round_trip(self, rng):
        model = build_network(small_plain_arch(channels=(5, 4)), seed=15)
        attach_hinges(model, init="identity", plain_kind="columns")
        for _, layer in model.hinged_layers():
            layer.mask[[0, 2]] = False
            layer.apply_mask()
        cm = compact(model)
        rebuilt, _ = network_from_tensors(model.arch, cm.network.state_tensors(cm.modes))
        assert rebuilt.layers["block1.conv"].meta.in_channels == 3
        assert verify_equivalence(cm.network, rebuilt, 8, seed=2) == 0.0

    @pytest.mark.parametrize("corrupt", [
        "rows-not-whole-kernels", "input-channels", "pruned-protected",
        "wider-than-nominal", "unknown-mode", "baseline-narrow-conv",
        "baseline-missing-head-b", "head-mode-unknown", "head-mode-pruned",
        "head-mode-missing"])
    def test_compact_checkpoint_must_fit_arch(self, corrupt):
        arch = small_residual_arch(channels=(6, 8))
        model = build_network(arch, seed=16)
        attach_hinges(model, init="svd")
        cm = compact(model)
        tensors = cm.network.state_tensors(cm.modes)
        if corrupt == "rows-not-whole-kernels":
            tensors["block0.conv1/W"] = tensors["block0.conv1/W"][:-1]
        elif corrupt == "input-channels":
            tensors["block0.conv1/W"] = tensors["block0.conv1/W"][:-9]
        elif corrupt == "pruned-protected":
            tensors["block0.conv2/mode"] = np.array([1], dtype=np.uint8)
            tensors["block0.conv2/W"] = tensors["block0.conv2/W"][:, :-1]
            tensors["block0.conv2/b"] = tensors["block0.conv2/b"][:-1]
        elif corrupt == "wider-than-nominal":
            tensors["block0.conv1/mode"] = np.array([1], dtype=np.uint8)
            tensors["block0.conv1/W"] = np.hstack([tensors["block0.conv1/W"]] * 2)
            tensors["block0.conv1/b"] = np.hstack([tensors["block0.conv1/b"]] * 2)
        elif corrupt == "unknown-mode":
            tensors["stem/mode"] = np.array([7], dtype=np.uint8)
        elif corrupt == "head-mode-missing":
            del tensors["head/mode"]
        elif corrupt.startswith("head-mode"):   # the head is always untouched
            byte = 7 if corrupt == "head-mode-unknown" else hinge.MODE_BYTES[hinge.PRUNE]
            tensors["head/mode"] = np.array([byte], dtype=np.uint8)
        else:
            # a baseline is read as untouched: every conv at nominal width
            tensors = build_network(arch, seed=16).state_tensors()
            if corrupt == "baseline-narrow-conv":
                tensors["block0.conv1/W"] = tensors["block0.conv1/W"][:, :-1]
                tensors["block0.conv1/b"] = tensors["block0.conv1/b"][:-1]
            else:
                del tensors["head/b"]
        with pytest.raises(checkpoint.CheckpointError):
            network_from_tensors(arch, tensors)

    def test_accuracy_identical_after_compaction(self, rng):
        from hingenet import data, train
        model = build_network(small_residual_arch(), seed=12)
        attach_hinges(model, init="svd")
        for _, layer in model.hinged_layers():
            layer.mask[rng.choice(layer.scheme.group_count, 2, replace=False)] = False
            layer.apply_mask()
        cm = compact(model)
        ds = data.SyntheticDataset(seed=2, classes=3, n_train=8, n_test=64,
                                   channels=1, height=8, width=8)
        assert (train.evaluate(model, ds.x_test, ds.y_test)[0]
                == train.evaluate(cm.network, ds.x_test, ds.y_test)[0])

    def test_gamma_report_equals_hypothetical(self, rng):
        model = build_network(small_residual_arch(), seed=11)
        attach_hinges(model, init="svd")
        for _, layer in model.hinged_layers():
            layer.mask[rng.choice(layer.scheme.group_count, 2, replace=False)] = False
            layer.apply_mask()
        hypothetical = cost.compression_ratio(model, None)
        cm = compact(model)
        assert abs(cm.report.gamma - hypothetical) <= 1e-12
