import numpy as np
import pytest

from hingenet.hinge import ConvMeta, attach, mean_alive_norm, update_mask
from hingenet.linalg import COLUMNS, ROWS, DimensionError, GroupScheme, group_norms
from hingenet.net import ArchSpec, BlockDef, HingedConv2d, attach_hinges, build_network


class TestAttach:
    def test_identity_init(self, rng):
        w = rng.normal(size=(18, 4))
        w_new, a = attach(w, "identity")
        assert np.array_equal(w_new, w)
        assert np.array_equal(a, np.eye(4))

    def test_svd_reconstruction(self, rng):
        w = rng.normal(size=(36, 8))
        w_new, a = attach(w, "svd")
        assert np.linalg.norm(w_new @ a - w) <= 1e-8
        assert np.abs(np.linalg.norm(w_new, axis=0) - 1.0).max() <= 1e-10

    def test_svd_row_norms_are_singular_values(self, rng):
        w = rng.normal(size=(20, 5))
        _, a = attach(w, "svd")
        sv = np.linalg.svd(w, compute_uv=False)
        assert np.abs(np.linalg.norm(a, axis=1) - sv).max() <= 1e-9

    @pytest.mark.parametrize("init", ["identity", "svd"])
    def test_forward_preserved(self, rng, init):
        w = rng.normal(size=(27, 6))
        x = rng.normal(size=(40, 27))
        w_new, a = attach(w, init)
        ref = x @ w
        rel = np.linalg.norm(ref - x @ w_new @ a) / np.linalg.norm(ref)
        assert rel <= 1e-8

    def test_rank_deficient_allowed(self, rng):
        w = np.outer(rng.normal(size=12), rng.normal(size=5))
        w_new, a = attach(w, "svd")
        assert np.linalg.norm(w_new @ a - w) <= 1e-8

    def test_wide_filter_rejected_for_svd(self, rng):
        with pytest.raises(DimensionError):
            attach(rng.normal(size=(4, 9)), "svd")
        w_new, a = attach(rng.normal(size=(4, 9)), "identity")
        assert a.shape == (9, 9)


PLAIN = (BlockDef("plain", 6),)
BASIC = (BlockDef("basic", 4, 1),)
PLAIN_INTO_SKIP = PLAIN + (BlockDef("basic", 6, 1),)  # the skip reads block0.conv


def scheme_kinds(blocks, **kinds):
    """The group kind `attach_hinges` gives each hinge of a 6-channel-stem
    net with these blocks; every scheme is n x n with all groups alive."""
    model = build_network(ArchSpec(1, 8, 8, 3, 6, blocks), seed=0)
    attach_hinges(model, init="identity", **kinds)
    for _, layer in model.hinged_layers():
        n = layer.meta.out_channels
        assert layer.scheme == GroupScheme(layer.scheme.kind, (n, n))
        assert layer.mask.shape == (n,) and layer.mask.all()
    return {name: layer.scheme.kind for name, layer in model.hinged_layers()}


class TestMakeScheme:
    """The group scheme `attach_hinges` makes at each hinge position: the
    one place that states the group-kind rule."""

    def test_second_in_basic_is_rows(self):
        assert scheme_kinds(BASIC)["block0.conv2"] == ROWS

    def test_columns_illegal_on_second(self):
        # columns requested everywhere: every layer a skip reads still gets rows
        assert scheme_kinds(BASIC, first_kind=COLUMNS) == {
            "block0.conv1": COLUMNS, "block0.conv2": ROWS}
        assert scheme_kinds(PLAIN_INTO_SKIP, plain_kind=COLUMNS, first_kind=COLUMNS) == {
            "block0.conv": ROWS, "block1.conv1": COLUMNS, "block1.conv2": ROWS}

    def test_first_in_basic_defaults_rows_but_allows_columns(self):
        assert scheme_kinds(BASIC)["block0.conv1"] == ROWS
        assert scheme_kinds(BASIC, first_kind=COLUMNS)["block0.conv1"] == COLUMNS

    def test_standalone_defaults_columns(self):
        assert scheme_kinds(PLAIN) == {"block0.conv": COLUMNS}
        assert scheme_kinds(PLAIN, plain_kind=ROWS) == {"block0.conv": ROWS}

    def test_unknown_position(self):
        # hinge positions come from the layer table, which refuses a block
        # kind it has none for
        with pytest.raises(ValueError, match="unsupported block kind"):
            ArchSpec(1, 8, 8, 3, 6, (BlockDef("middle", 4),))

    def test_columns_scheme_8x8(self):
        scheme = GroupScheme(COLUMNS, (8, 8))
        assert scheme.group_count == 8
        # every group holds 8 entries: the norm of an all-ones group is sqrt(8)
        assert np.all(group_norms(np.ones((8, 8)), scheme) == np.sqrt(8.0))


class TestGroupStats:
    """`mean_alive_norm`, the one group statistic the phase reads."""

    def test_identity_columns(self):
        a = np.eye(4)
        scheme = GroupScheme(COLUMNS, (4, 4))
        assert mean_alive_norm(a, scheme, np.ones(4, dtype=bool)) == pytest.approx(1.0)

    def test_masked_groups_excluded(self):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        scheme = GroupScheme(COLUMNS, (4, 4))
        mask = np.array([True, False, True, False])
        assert mean_alive_norm(a, scheme, mask) == 2.0   # the norms 1 and 3 only

    def test_mean_matches_recompute(self, rng):
        a = rng.normal(size=(6, 6))
        scheme = GroupScheme(COLUMNS, (6, 6))
        mask = rng.random(6) > 0.3
        mask[0] = True
        want = group_norms(a, scheme)[mask].mean()
        assert mean_alive_norm(a, scheme, mask) == pytest.approx(want, rel=1e-12)

    def test_all_dead_is_zero(self, rng):
        scheme = GroupScheme(ROWS, (5, 5))
        got = mean_alive_norm(rng.normal(size=(5, 5)), scheme, np.zeros(5, dtype=bool))
        assert got == 0.0 and type(got) is float


class TestMasking:
    def test_apply_mask_idempotent(self, rng):
        # a column layer: the dead groups' biases go with them
        layer = HingedConv2d(ConvMeta(2, 5, 1, 1, 1, 0, 3, 3), rng.normal(size=(2, 5)),
                             rng.normal(size=(5, 5)), rng.normal(size=5),
                             scheme=GroupScheme(COLUMNS, (5, 5)))
        layer.mask = np.array([True, False, True, True, False])
        layer.apply_mask()
        once = layer.a.copy(), layer.b.copy()
        layer.apply_mask()
        assert np.array_equal(layer.a, once[0]) and np.array_equal(layer.b, once[1])
        assert np.all(once[0][:, [1, 4]] == 0.0) and np.all(once[1][[1, 4]] == 0.0)
        assert np.all(once[0][:, [0, 2, 3]] != 0.0) and np.all(once[1][[0, 2, 3]] != 0.0)

    def test_update_mask_thresholds(self):
        norms = np.array([0.5, 0.001, 2.0, 0.004])
        mask = np.ones(4, dtype=bool)
        out = update_mask(norms, mask, 0.005)
        assert out.tolist() == [True, False, True, False]

    def test_update_mask_permanent(self):
        norms = np.array([1.0, 1.0])
        mask = np.array([True, False])
        out = update_mask(norms, mask, 0.005)
        assert out.tolist() == [True, False]  # dead stays dead

    def test_update_mask_min_alive(self):
        norms = np.array([0.001, 0.003, 0.002])
        out = update_mask(norms, np.ones(3, dtype=bool), 0.005)
        assert out.tolist() == [False, True, False]  # largest survivor kept
