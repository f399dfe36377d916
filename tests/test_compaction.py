import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import small_plain_arch, small_residual_arch
from hingenet import checkpoint, compaction, cost, hinge, linalg, verify
from hingenet import net as net_module
from hingenet.compaction import StructuralError, verify_equivalence
from hingenet.config import load_config
from hingenet.net import (Conv2d, HingedConv2d, attach_hinges, build_network,
                          network_from_tensors)


def compact(model):
    """`compaction.compact`, read as this module's tests read it: the
    network, and the report, `cost.report` of the plans with the plans as
    `per_layer`."""
    network, plans = compaction.compact(model)
    fields = cost.report(plans)
    report = SimpleNamespace(**{**fields, "per_layer": plans}, to_dict=lambda: fields)
    return SimpleNamespace(network=network, report=report)


def one_hinge_net(rng, kind, n=8):
    """A 3-channel stem and one plain block whose conv carries a random
    n x n hinge with `kind` groups; the net and that conv."""
    model = build_network(net_module.ArchSpec(1, 8, 8, 3, 3,
                                              (net_module.BlockDef("plain", n),)), seed=0)
    attach_hinges(model, init="identity", plain_kind=kind)
    layer = model.layers["block0.conv"]
    layer.a = rng.normal(size=(n, n))
    return model, layer


def compacted_conv(model):
    cm = compact(model)
    return cm.network.layers["block0.conv"], cm.report.per_layer[1]


class TestCompactPrune:
    def test_no_masks_gives_full_product(self, rng):
        model, layer = one_hinge_net(rng, "columns")
        conv, plan = compacted_conv(model)
        assert plan.mode == hinge.PRUNE
        assert type(conv) is Conv2d and conv.a is None
        assert np.array_equal(conv.w, layer.w @ layer.a)
        assert plan.alive_out_idx.tolist() == list(range(8))

    def test_identity_hinge_drops_columns(self, rng):
        model, layer = one_hinge_net(rng, "columns")
        layer.a = np.eye(8)
        layer.mask[[2, 4]] = False
        conv, plan = compacted_conv(model)
        keep = [0, 1, 3, 5, 6, 7]
        assert np.array_equal(conv.w, layer.w[:, keep])
        assert np.array_equal(conv.b, layer.b[keep])
        assert plan.alive_out_idx.tolist() == keep

    def test_forward_equals_alive_columns(self, rng):
        model, layer = one_hinge_net(rng, "columns")
        layer.mask[rng.choice(8, 3, replace=False)] = False
        conv, plan = compacted_conv(model)
        assert conv.meta.out_channels == 5
        x = rng.normal(size=(10, 27))
        assert np.abs(x @ conv.w - (x @ layer.w @ layer.a)[:, plan.alive_out_idx]).max() <= 1e-12

    def test_wrong_scheme_rejected(self, rng):
        # column groups on a layer a skip reads: compact refuses to prune it
        model = build_network(small_residual_arch(), seed=0)
        attach_hinges(model, init="identity")
        conv2 = model.layers["block0.conv2"]
        n = conv2.meta.out_channels
        conv2.scheme = linalg.GroupScheme(linalg.COLUMNS, (n, n))
        with pytest.raises(ValueError, match="may not be pruned"):
            compact(model)


class TestCompactDecompose:
    def test_no_masks_unchanged(self, rng):
        # full rank: the pair would cost more, so it is merged back
        model, layer = one_hinge_net(rng, "rows")
        conv, plan = compacted_conv(model)
        assert plan.mode == hinge.DECOMPOSE and not plan.kept_pair
        assert type(conv) is Conv2d and conv.a is None
        assert np.array_equal(conv.w, layer.w @ layer.a)

    def test_rank_one(self, rng):
        model, layer = one_hinge_net(rng, "rows")
        layer.mask[:] = False
        layer.mask[3] = True
        conv, plan = compacted_conv(model)
        assert plan.kept_pair and plan.rank == 1
        assert type(conv) is Conv2d and conv.a is not None
        assert conv.w.shape == (27, 1) and conv.a.shape == (1, 8)
        assert np.array_equal(conv.w, layer.w[:, [3]])
        assert np.array_equal(conv.a, layer.a[[3]])
        assert np.abs(conv.w @ conv.a - layer.w @ layer.a).max() <= 1e-12

    def test_product_reproduces_masked_exactly(self, rng):
        model, layer = one_hinge_net(rng, "rows", n=16)
        layer.mask[rng.choice(16, 8, replace=False)] = False
        conv, plan = compacted_conv(model)
        assert plan.kept_pair  # a 27x16 filter's pair saves below rank 10.05
        assert np.abs(conv.w @ conv.a - layer.w @ layer.a).max() <= 1e-12

    def test_pair_cost_matches_saves_verdict(self, rng):
        """At every rank, compaction keeps the pair exactly when its two
        tensors hold fewer weights than the merged filter, and the plan
        prices what it stores."""
        model, layer = one_hinge_net(rng, "rows", n=16)
        merged = layer.w.size   # a 27 x 16 filter
        for rank in range(16, 0, -1):
            layer.mask = np.arange(16) < rank
            conv, plan = compacted_conv(model)
            pair = layer.w[:, layer.mask].size + layer.a[layer.mask].size
            assert plan.kept_pair == (pair < merged) == (conv.a is not None), rank
            kept = conv.w.size + (conv.a.size if conv.a is not None else 0)
            assert kept == min(pair, merged)
            assert plan.flops == 2 * layer.meta.spatial * kept


@pytest.mark.parametrize("kind", ["columns", "rows"], ids=["pruned", "kept-pair"])
def test_attach_hinges_refuses_a_compacted_network(rng, monkeypatch, kind):
    # a compacted layer is already cut: hinging it again would write mode
    # bytes beside hinge `A`s, or fail on a kept pair's narrow filter
    model, layer = one_hinge_net(rng, kind)
    layer.mask[1:] = False
    compacted = compact(model).network
    conv = compacted.layers["block0.conv"]
    if kind == "columns":
        assert compacted.modes["block0.conv"] == hinge.PRUNE and conv.meta.out_channels == 1
    else:
        assert compacted.modes["block0.conv"] == hinge.DECOMPOSE and conv.a.shape == (1, 8)
    layers = dict(compacted.layers)
    attached = []
    monkeypatch.setattr(hinge, "attach", lambda *args: attached.append(args))
    with pytest.raises(ValueError, match="^the network is already compacted"):
        attach_hinges(compacted)
    assert attached == []   # refused before any SVD
    assert compacted.layers == layers and not compacted.hinged_layers()


class TestPropagate:
    def test_untouched_model_is_identical(self, rng):
        model = build_network(small_residual_arch(), seed=1)
        attach_hinges(model, init="svd")
        cm = compact(model)
        assert verify_equivalence(model, cm.network, 8, seed=2) <= 1e-10

    def test_plain_chain_input_rows_removed(self, rng):
        model = build_network(small_plain_arch(channels=(4, 6)), seed=2)
        attach_hinges(model, init="identity", plain_kind="columns")
        first = model.layers["block0.conv"]
        first.mask[[1, 3]] = False
        first.apply_mask()
        cm = compact(model)
        second = cm.network.layers["block1.conv"]
        # 2 of 4 channels pruned: next conv loses the matching kernel rows
        assert second.meta.in_channels == 2
        assert second.w.shape[0] == 2 * 9
        assert verify_equivalence(model, cm.network, 16, seed=3) <= 1e-10

    def test_head_input_adjusted(self, rng):
        model = build_network(small_plain_arch(channels=(5, 4)), seed=3)
        attach_hinges(model, init="identity", plain_kind="columns")
        last = model.layers["block1.conv"]
        last.mask[[0, 2]] = False
        last.apply_mask()
        cm = compact(model)
        assert cm.network.layers["head"].w.shape[0] == 2
        assert verify_equivalence(model, cm.network, 16, seed=4) <= 1e-10

    def test_basic_block_output_shape_unchanged(self, rng):
        model = build_network(small_residual_arch(), seed=4)
        attach_hinges(model, init="svd")
        conv2 = model.layers["block0.conv2"]
        conv2.mask[rng.choice(conv2.scheme.group_count, 2, replace=False)] = False
        conv2.apply_mask()
        cm = compact(model)
        out_meta = cm.network.layers["block0.conv2"].meta
        assert out_meta.out_channels == conv2.meta.out_channels
        assert verify_equivalence(model, cm.network, 16, seed=5) <= 1e-10

    def test_first_conv_columns_shrinks_second_conv_input(self, rng):
        model = build_network(small_residual_arch(), seed=5)
        attach_hinges(model, init="identity", first_kind="columns")
        conv1 = model.layers["block0.conv1"]
        conv1.mask[[0, 1]] = False
        conv1.apply_mask()
        cm = compact(model)
        compact_layers = cm.network.layers
        assert compact_layers["block0.conv1"].meta.out_channels == conv1.meta.out_channels - 2
        assert compact_layers["block0.conv2"].meta.in_channels == conv1.meta.out_channels - 2
        assert verify_equivalence(model, cm.network, 16, seed=6) <= 1e-10

    def test_plain_into_identity_skip_forced_to_rows(self, rng):
        arch = net_module.ArchSpec(1, 8, 8, 3, 6,
                                   (net_module.BlockDef("plain", 6),
                                    net_module.BlockDef("basic", 6, 1)))
        model = net_module.build_network(arch, seed=13)
        attach_hinges(model, init="identity", plain_kind="columns")
        plain_conv = model.layers["block0.conv"]
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
        plain_conv = model.layers["block0.conv"]
        plain_conv.scheme = linalg.GroupScheme(linalg.COLUMNS, (6, 6))  # bypass the guard
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
        for plan in cm.report.per_layer:
            if plan.mode == "decompose":
                assert not plan.kept_pair
        for name in ("block0.conv1", "block0.conv2", "block1.conv1", "block1.conv2"):
            layer = cm.network.layers[name]
            assert type(layer) is Conv2d and layer.a is None


class TestVerifyEquivalence:
    def test_self_is_zero(self, rng):
        model = build_network(small_residual_arch(), seed=7)
        assert verify_equivalence(model, model, 4, seed=0) == 0.0

    def test_corruption_detected(self, rng):
        model = build_network(small_residual_arch(), seed=8)
        attach_hinges(model, init="svd")
        cm = compact(model)
        cm.network.layers["head"].w[0, 0] += 1e-3
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
        checkpoint.save(path, cm.network.state_tensors())

        rebuilt = network_from_tensors(model.arch, checkpoint.load(path))
        assert rebuilt.modes == cm.network.modes
        assert rebuilt.modes["stem"] == hinge.UNTOUCHED
        assert rebuilt.modes["block0.conv1"] in (hinge.PRUNE, hinge.DECOMPOSE)
        assert verify_equivalence(cm.network, rebuilt, 8, seed=1) == 0.0

    @pytest.mark.parametrize("kind", ["baseline", "compacted"])
    def test_read_then_write_is_byte_equal(self, tmp_path, kind):
        model = build_network(small_residual_arch(channels=(6, 8)), seed=17)
        if kind == "compacted":
            attach_hinges(model, init="svd", first_kind="columns")
            for _, layer in model.hinged_layers():
                layer.mask[[0, 2, 3]] = False
            model = compact(model).network
            assert {hinge.PRUNE, hinge.DECOMPOSE} <= set(model.modes.values())
            assert any(layer.a is not None for layer in model.layers.values())
            assert not any(isinstance(layer, HingedConv2d) for layer in model.layers.values())
        first, second = tmp_path / "first.hngw", tmp_path / "second.hngw"
        checkpoint.save(first, model.state_tensors())
        rebuilt = network_from_tensors(model.arch, checkpoint.load(first))
        assert rebuilt.modes == model.modes
        saved, read = model.state_tensors(), rebuilt.state_tensors()
        assert list(read) == list(saved)
        for name, arr in saved.items():  # the saved network is the network
            assert read[name].dtype == arr.dtype and np.array_equal(read[name], arr), name
        checkpoint.save(second, rebuilt.state_tensors())
        assert second.read_bytes() == first.read_bytes()

    def test_pruned_plain_round_trip(self, rng):
        model = build_network(small_plain_arch(channels=(5, 4)), seed=15)
        attach_hinges(model, init="identity", plain_kind="columns")
        for _, layer in model.hinged_layers():
            layer.mask[[0, 2]] = False
            layer.apply_mask()
        cm = compact(model)
        rebuilt = network_from_tensors(model.arch, cm.network.state_tensors())
        assert rebuilt.layers["block1.conv"].meta.in_channels == 3
        assert verify_equivalence(cm.network, rebuilt, 8, seed=2) == 0.0

    @pytest.mark.parametrize("corrupt", [
        "rows-not-whole-kernels", "input-channels", "pruned-protected",
        "wider-than-nominal", "unknown-mode", "baseline-narrow-conv",
        "baseline-missing-head-b", "head-mode-unknown", "head-mode-pruned",
        "head-mode-missing", "hinge-rank-mismatch", "pair-untouched", "pair-pruned"])
    def test_compact_checkpoint_must_fit_arch(self, corrupt):
        arch = small_residual_arch(channels=(6, 8))
        model = build_network(arch, seed=16)
        attach_hinges(model, init="svd")
        cm = compact(model)
        tensors = cm.network.state_tensors()
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
        elif corrupt == "hinge-rank-mismatch":   # a rank-3 A after a full-width W
            tensors["block0.conv1/A"] = np.ones((3, tensors["block0.conv1/b"].size))
        elif corrupt.startswith("pair-"):   # only a decomposed layer keeps an A
            name, mode = {"pair-untouched": ("stem", hinge.UNTOUCHED),
                          "pair-pruned": ("block0.conv1", hinge.PRUNE)}[corrupt]
            tensors[f"{name}/mode"] = np.array([hinge.MODE_BYTES[mode]], dtype=np.uint8)
            tensors[f"{name}/W"] = tensors[f"{name}/W"][:, :2]
            tensors[f"{name}/A"] = np.ones((2, tensors[f"{name}/b"].size))
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


def test_compaction_golden_sha256():
    """Thirty random masked models of the equivalence suite, covering
    untouched, pruned, kept-pair and merged-back layers: the compacted
    checkpoint tensors and the cost report are pinned bit for bit. The
    digest was recorded before compaction built its networks through
    `network_from_tensors`."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    seen = set()
    for _ in range(30):
        cm = compact(verify.random_masked_model(rng))
        for name, arr in cm.network.state_tensors().items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(cm.report.to_dict(), sort_keys=True).encode())
        seen |= {(p.mode, p.kept_pair) for p in cm.report.per_layer}
    assert seen == {(hinge.UNTOUCHED, False), (hinge.PRUNE, False),
                    (hinge.DECOMPOSE, True), (hinge.DECOMPOSE, False)}
    assert h.hexdigest() == "b44624f2a54e826b928338cde1df725efe3b594111d6a6eb7d38279b600f8609"


def test_phase_free_compression_is_one_global_singular_value_cutoff(tmp_path, monkeypatch):
    """`compress` with SVD init, rows everywhere and no phase epochs keeps
    each layer's singular values at or above one shared threshold: the
    hinge's row i has norm s_i, so each compacted pair W_r A_r is that
    layer's rank-r truncated SVD (Denton et al. 2014, one cutoff for all
    layers)."""
    from hingenet import cli
    doc = json.loads((Path(__file__).parent.parent / "configs" / "toy.json").read_text())
    doc["arch"]["first_hinge_groups"] = "rows"
    doc["compress"]["max_epochs"] = 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    arch = load_config(cfg).arch
    base = tmp_path / "base.hngw"
    checkpoint.save(base, build_network(arch, seed=42).state_tensors())
    baseline = network_from_tensors(arch, checkpoint.load(base))  # the stored filters
    compact_fn, compacted = compaction.compact, []

    def recording(model):
        compacted.append(compact_fn(model))
        return compacted[-1]
    monkeypatch.setattr(compaction, "compact", recording)
    report = tmp_path / "report.json"
    assert cli.main(["compress", "--config", str(cfg), "--ckpt", str(base),
                     "--out", str(tmp_path / "c.hngw"), "--report", str(report)]) == 0
    threshold = json.loads(report.read_text())["threshold"]
    [(network, plans)] = compacted
    ranks = {}
    for plan in plans[:-1]:
        if plan.mode == hinge.UNTOUCHED:
            continue
        assert plan.mode == hinge.DECOMPOSE
        w = baseline.layers[plan.name].w
        svd = linalg.svd(w)
        s = svd.singular_values
        # the threshold is one of the row norms, each an s_i up to rounding,
        # so a singular value within rounding of it counts as at or above it
        at_or_above = int(np.sum(s >= threshold * (1.0 - 1e-12)))
        assert plan.rank == max(at_or_above, 1)  # update_mask keeps one group
        r = plan.rank
        layer = network.layers[plan.name]
        product = layer.w if layer.a is None else layer.w @ layer.a
        truncated = (svd.u[:, :r] * s[:r]) @ svd.vt[:r]
        assert np.abs(product - truncated).max() <= 1e-12
        ranks[plan.name] = r
    # all four hinged convs are decomposed, each below full rank
    assert len(ranks) == 4
    assert all(r < baseline.layers[n].meta.out_channels for n, r in ranks.items())
