import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hingenet import checkpoint, cli, data, hinge, regularizers
from hingenet.config import ConfigError, RunConfig, load_config, parse_config
from hingenet.net import (ArchSpec, BlockDef, Network, attach_hinges, build_network,
                          network_from_tensors)
from hingenet.train import evaluate

TINY_CONFIG = {
    "arch": {
        "input": {"channels": 1, "height": 8, "width": 8},
        "classes": 3,
        "stem_channels": 4,
        "blocks": [{"kind": "basic", "channels": 4},
                   {"kind": "basic", "channels": 6, "stride": 2}],
        "hinge_init": "svd",
    },
    "data": {"n_train": 48, "n_test": 24},
    "train": {"epochs": 2, "batch_size": 16, "lr": 0.03,
              "finetune_epochs": 2, "finetune_lr": 0.001},
    "compress": {"target_ratio": 0.6, "stop_margin": 0.1,
                 "nullify_threshold": 0.005,
                 "regularizer": {"kind": "l1", "lambda": 0.05},
                 "eta": 0.3, "max_epochs": 8, "batch_size": 16},
    "distill": {"balance": 0.4, "temperature": 4.0},
    "seed": 7,
}


def write_config(tmp_path, doc=None, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc if doc is not None else TINY_CONFIG))
    return str(path)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = parse_config({"seed": 1})
        assert cfg.arch == ArchSpec(1, 16, 16, 4, 16, (BlockDef("basic", 16, 1),
                                                       BlockDef("basic", 32, 2)))
        assert cfg.compress.regularizer.kind == "l1"
        assert cfg.compress.regularizer.lam == 2e-4
        assert cfg.compress.eta == 0.1
        assert cfg.compress.lr_ratio == 0.01
        assert cfg.compress.m == 1.35
        assert cfg.compress.stop_margin == 0.1
        assert cfg.compress.nullify_threshold == 0.005
        assert cfg.compress.weight_decay == cfg.train.weight_decay == 1e-4
        assert parse_config({"train": {"weight_decay": 0.5}}).compress.weight_decay == 0.5
        assert cfg.distill.balance == 0.4
        assert cfg.distill.temperature == 4.0

    @pytest.mark.parametrize("doc", [
        {"seeds": 1},
        {"arch": {"inputs": {}}},
        {"arch": {"input": {"chan": 1}}},
        {"arch": {"blocks": [{"kind": "basic", "chan": 4}]}},
        {"data": {"n": 4}},
        {"train": {"epoch": 4}},
        {"compress": {"target": 0.5}},
        {"compress": {"regularizer": {"type": "l1"}}},
        {"distill": {"alpha": 0.4}},
    ])
    def test_unknown_keys_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("doc", [
        {"arch": {"hinge_init": "random"}},
        {"arch": {"first_hinge_groups": "diagonals"}},
        {"compress": {"regularizer": {"kind": "l0"}}},
        {"compress": {"target_ratio": 2.0}},
        {"distill": {"balance": 3.0}},
        {"arch": {"blocks": []}},
        {"arch": {"blocks": [{"kind": "bottleneck", "channels": 4}]}},
    ])
    def test_invalid_values_rejected(self, doc):
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_compress_seed_defaults_to_global(self):
        cfg = parse_config({"seed": 99})
        assert cfg.compress.seed == 99


class TestCliTrain:
    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o.hngw")])
        assert rc == cli.EXIT_USAGE

    def test_writes_checkpoint_and_metrics(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "base.hngw"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        metrics = json.loads((tmp_path / "base.metrics.json").read_text())
        assert 0.0 <= metrics["test_accuracy"] <= 1.0
        assert len(metrics["history"]) == 2
        _assert_final_metrics_are_last_epoch(metrics)

    def test_zero_epochs_evaluates_fresh_model(self, tmp_path):
        cfg = write_config(tmp_path, _with("train", epochs=0))
        out = tmp_path / "zero.hngw"
        assert cli.main(["train", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((tmp_path / "zero.metrics.json").read_text())
        assert metrics["history"] == []
        config = load_config(cfg)
        dataset = config.make_dataset()
        model = build_network(config.arch, seed=config.seed)
        acc, loss = evaluate(model, dataset.x_test, dataset.y_test)
        assert (metrics["test_accuracy"], metrics["test_loss"]) == (acc, loss)

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.hngw", tmp_path / "b.hngw"
        assert cli.main(["train", "--config", cfg, "--out", str(a)]) == 0
        assert cli.main(["train", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_divergence_exits_3(self, tmp_path):
        doc = dict(TINY_CONFIG)
        doc["train"] = dict(TINY_CONFIG["train"], lr=1e5, epochs=30)
        cfg = write_config(tmp_path, doc)
        rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "d.hngw")])
        assert rc == cli.EXIT_NUMERIC


def _assert_final_metrics_are_last_epoch(metrics):
    last = metrics["history"][-1]
    assert metrics["test_accuracy"] == last["test_accuracy"]
    assert metrics["test_loss"] == last["test_loss"]


def _with(section, **values):
    doc = json.loads(json.dumps(TINY_CONFIG))
    if section is None:
        doc.update(values)
    else:
        doc[section].update(values)
    return doc


def _with_key(path, value):
    """TINY_CONFIG with the value at `path` (keys and list indices) replaced."""
    doc = json.loads(json.dumps(TINY_CONFIG))
    *outer, last = path
    section = doc
    for key in outer:
        section = section[key]
    section[last] = value
    return doc


WIDE_PLAIN_ARCH = dict(TINY_CONFIG["arch"], stem_channels=1,
                       blocks=[{"kind": "plain", "channels": 16}])

# every key that sizes an array; numpy cannot hold 2**63 or more as int64
SIZE_KEYS = [("arch", "classes"), ("arch", "stem_channels"), ("arch", "input", "channels"),
             ("arch", "input", "height"), ("arch", "input", "width"),
             ("arch", "blocks", 0, "channels"), ("arch", "blocks", 0, "stride"),
             ("data", "n_train"), ("data", "n_test"), ("train", "batch_size"),
             ("compress", "batch_size")]
OVERSIZED = [(path, 2 ** e) for path in SIZE_KEYS for e in (63, 70)]
# dataset sizes that fit in int64 but whose arrays hold more bytes than an
# address space, so numpy refuses them without allocating anything
UNALLOCATABLE = [(("arch", "classes"), 2 ** 62), (("data", "n_train"), 2 ** 50),
                 (("data", "n_test"), 2 ** 50)]


def _key_name(path):
    """How config errors name the key at `path`, e.g. arch.blocks[0].channels."""
    return re.sub(r"\.(\d+)", r"[\1]", ".".join(map(str, path)))


@pytest.mark.parametrize("doc", [
    _with("arch", blocks=[{"kind": "basic", "channels": 4, "stride": 0}]),
    _with("arch", blocks=[{"kind": "basic", "channels": 0}]),
    _with(None, arch=WIDE_PLAIN_ARCH),   # svd init on a 9 x 16 filter
    _with(None, seed="abc"),
    _with("train", epochs="x"),
    _with("train", batch_size=0),
    _with("data", n_train=0),
    _with("train", epochs=-1),
    _with("compress", regularizer={"kind": ["l1"]}),
    _with("compress", regularizer={"kind": {"l1": 1}}),
    _with("train", lr=10 ** 400),   # an integer no float holds
    _with("compress", anneal_decay=1.5),   # a removed key, so unknown
    _with("compress", anneal_decay=2.0),
] + [_with_key(path, value) for path, value in OVERSIZED],
    ids=["stride-0", "channels-0", "svd-wide-filter", "seed-string", "epochs-string",
         "batch-size-0", "n-train-0", "epochs-negative", "regularizer-kind-list",
         "regularizer-kind-object", "lr-10**400", "anneal-decay-1.5", "anneal-decay-2.0"]
    + [f"{_key_name(path)}-2**{value.bit_length() - 1}" for path, value in OVERSIZED])
def test_bad_config_value_is_usage_error(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o.hngw").exists()


@pytest.mark.parametrize("path,value", UNALLOCATABLE)
def test_unallocatable_dataset_error_names_its_key(tmp_path, capsys, path, value):
    # numpy refuses each size's first array before allocating anything
    cfg = write_config(tmp_path, _with_key(path, value))
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {_key_name(path)} is too large: numpy cannot allocate")


@pytest.mark.parametrize("key", ["height", "width"])
def test_unallocatable_input_size_error_names_its_key(tmp_path, capsys, key):
    # the templates' (2, height, width) int64 pixel grid would take 2**59
    # bytes, so numpy refuses it before allocating anything
    cfg = write_config(tmp_path, _with_key(("arch", "input", key), 2 ** 52))
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("error: arch.input is too large: numpy cannot allocate")


def test_unallocatable_input_channels_error_names_input(tmp_path, capsys):
    # one (channels, height, width) sample would take 2**61 bytes: it is
    # refused under arch.input before any per-class array is sized
    doc = _with_key(("arch", "input", "channels"), 2 ** 50)
    doc["arch"]["hinge_init"] = "identity"
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith("error: arch.input is too large: numpy cannot allocate")


# architecture widths that fit in int64 but whose first weights in draw
# order hold more bytes than an index (stem) or an address space (block0's
# skip projection), so numpy refuses them without allocating anything;
# identity init, since svd init refuses a filter wider than tall
UNALLOCATABLE_WIDTHS = [(("arch", "stem_channels"), 2 ** 60, "stem", (9, 2 ** 60)),
                        (("arch", "blocks", 0, "channels"), 2 ** 50, "block0.down",
                         (4, 2 ** 50))]


@pytest.mark.parametrize("path,value,layer,shape", UNALLOCATABLE_WIDTHS,
                         ids=[_key_name(path) for path, *_ in UNALLOCATABLE_WIDTHS])
def test_unallocatable_weights_error_names_the_layer(tmp_path, capsys, path, value, layer,
                                                     shape):
    doc = _with_key(path, value)
    doc["arch"]["hinge_init"] = "identity"
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {layer}: numpy cannot allocate its weights of shape {shape}")
    assert not (tmp_path / "o.hngw").exists()


@pytest.mark.parametrize("key", ["anneal_decay", "anneal_trigger"])
def test_removed_anneal_key_is_unknown(tmp_path, capsys, key):
    # a config written for the removed lambda decay is refused, not
    # silently run without it
    cfg = write_config(tmp_path, _with("compress", **{key: 0.5}))
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown keys in compress: ['{key}']\n"
    assert not (tmp_path / "o.hngw").exists()


@pytest.mark.parametrize("section,key", [
    ("compress.regularizer", "epsilon"),   # derived from the step: 0.5*sqrt(step)
    ("train", "lr_drop_factor"),           # always 0.1
    ("compress", "seed"),                  # the phase uses the run's seed
    ("compress", "weight_decay"),          # the phase uses train.weight_decay
], ids=["compress.regularizer.epsilon", "train.lr_drop_factor", "compress.seed",
        "compress.weight_decay"])
def test_removed_key_is_unknown(tmp_path, capsys, section, key):
    # a config that still sets a removed key is refused before any work,
    # not run as if the key were honoured
    cfg = write_config(tmp_path, _with_key((*section.split("."), key), 0.5))
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    assert rc == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown keys in {section}: ['{key}']\n"
    assert not (tmp_path / "o.hngw").exists()


@pytest.mark.parametrize("path,value", OVERSIZED)
def test_oversized_integer_error_names_its_key(path, value):
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(_key_name(path))} must fit in a 64-bit integer"):
        parse_config(_with_key(path, value))


TOY_DOC = json.loads((Path(__file__).resolve().parents[1] / "configs" / "toy.json")
                     .read_text(encoding="utf-8"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 64, 2 ** 64)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _paths(node, path=()):
    """The path of every key and list entry under `node`, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_mutated_toy_config_parses_or_raises_config_error(data):
    # one to three edits of the shipped config: delete a key or a list entry,
    # add a key to an object, or set a key or an entry to any JSON value
    doc = json.loads(json.dumps(TOY_DOC))
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["delete", "add", "set"]))
        paths = list(_paths(doc))
        if op == "add":
            objects = [()] + [p for p in paths if isinstance(_at(doc, p), dict)]
            path = data.draw(st.sampled_from(objects)) + (data.draw(st.text(max_size=8)),)
        elif paths:
            path = data.draw(st.sampled_from(paths))
        else:
            continue
        parent = _at(doc, path[:-1])
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    try:
        assert isinstance(parse_config(doc), RunConfig)
    except ConfigError:
        pass


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_table_names_only_known_keys():
    text = README.read_text(encoding="utf-8").split("\n## Configuration\n")[1]
    keys = re.findall(r"^\| `([\w.]+)` \|", text.split("\n## ")[0], flags=re.M)
    assert len(keys) >= 5
    for key in keys:
        *outer, last = key.split(".")
        doc = section = {}
        for part in outer:
            section = section.setdefault(part, {})
        section[last] = 0   # a placeholder: only an unknown key fails here
        try:
            parse_config(doc)
        except ConfigError as exc:
            assert not str(exc).startswith("unknown keys"), f"README row {key}: {exc}"


def test_integer_of_too_many_digits_is_usage_error(tmp_path, capsys):
    # Python refuses to parse an integer literal of more than 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 1' + "0" * 5000 + "}")
    rc = cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny train+compress run shared by the CLI tests."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(tmp_path)
    base = tmp_path / "base.hngw"
    compact = tmp_path / "compact.hngw"
    report = tmp_path / "report.json"
    assert cli.main(["train", "--config", cfg, "--out", str(base)]) == 0
    rc = cli.main(["compress", "--config", cfg, "--ckpt", str(base),
                   "--out", str(compact), "--report", str(report)])
    assert rc == 0
    return {"tmp": tmp_path, "cfg": cfg, "base": base, "compact": compact,
            "report": report}


def _compressed(pipeline, ratio):
    """The pipeline's baseline compacted at `ratio`, written once."""
    out = pipeline["tmp"] / f"compact_{ratio}.hngw"
    if not out.exists():
        rc = cli.main(["compress", "--config", pipeline["cfg"], "--ckpt", str(pipeline["base"]),
                       "--target-ratio", str(ratio), "--out", str(out)])
        assert rc == 0
    return out


# output paths that cannot be written, refused before any work starts
OUTPUT_CASES = ("out-is-directory", "report-is-directory", "finetune-out-is-directory",
                "out-directory-missing", "report-directory-missing", "metrics-is-directory",
                "finetune-metrics-is-directory")


@pytest.mark.parametrize("case", [
    "ckpt-is-directory", "out-is-directory", "report-is-directory",
    "compress-compacted-0.999", "compress-compacted-0.5", "compress-hinged-state",
    "finetune-out-is-directory", "out-directory-missing", "report-directory-missing",
    "metrics-is-directory", "finetune-metrics-is-directory"])
def test_unusable_path_is_usage_error(pipeline, capsys, case):
    cfg, tmp = pipeline["cfg"], pipeline["tmp"]
    again = tmp / "again.hngw"
    compress = ["compress", "--config", cfg, "--out", str(again)]
    named = None
    if case == "ckpt-is-directory":
        argv = ["evaluate", "--config", cfg, "--ckpt", str(tmp)]
    elif case == "out-is-directory":
        argv = ["train", "--config", cfg, "--out", str(tmp)]
    elif case == "report-is-directory":
        argv = compress + ["--ckpt", str(pipeline["base"]), "--report", str(tmp)]
    elif case == "finetune-out-is-directory":
        argv = ["finetune", "--config", cfg, "--ckpt", str(pipeline["compact"]),
                "--out", str(tmp)]
    elif case == "out-directory-missing":
        named = str(tmp / "missing" / "base.hngw")
        argv = ["train", "--config", cfg, "--out", named]
    elif case == "report-directory-missing":
        named = str(tmp / "missing" / "report.json")
        argv = compress + ["--ckpt", str(pipeline["base"]), "--report", named]
    elif case.endswith("metrics-is-directory"):   # the file train and finetune write beside --out
        named = str(tmp / "again.metrics.json")
        Path(named).mkdir(exist_ok=True)
        argv = (["finetune", "--ckpt", str(pipeline["compact"])] if case.startswith("finetune")
                else ["train"]) + ["--config", cfg, "--out", str(again)]
    elif case == "compress-hinged-state":   # a network still being compressed
        model = network_from_tensors(load_config(cfg).arch, checkpoint.load(pipeline["base"]))
        named = str(tmp / "hinged.hngw")
        checkpoint.save(named, attach_hinges(model).state_tensors())
        argv = compress + ["--ckpt", named]
    else:
        ratio = float(case.rpartition("-")[2])
        named = str(_compressed(pipeline, ratio))
        # at 0.999 every layer is merged back to nominal width; at 0.5 a pair is kept
        assert any(key.endswith("/A") for key in checkpoint.load(named)) == (ratio == 0.5)
        argv = compress + ["--ckpt", named]
    capsys.readouterr()
    rc = cli.main(argv)
    *progress, err = capsys.readouterr().err.splitlines()
    assert rc == cli.EXIT_USAGE
    assert err.startswith("error:") and all(line.startswith("{") for line in progress)
    assert named is None or named in err
    if case in OUTPUT_CASES:   # refused before any work: no progress, no file
        assert progress == []
        assert not again.exists() and not (tmp / "missing").exists()


@pytest.mark.parametrize("stage", ["train", "compress", "finetune"])
def test_huge_learning_rate_is_numeric_error(pipeline, capsys, stage):
    """A run that diverges ends in exit 3 with one `numeric error:` line
    after its progress records, and no numpy warning reaches stderr."""
    tmp = pipeline["tmp"]
    out = tmp / f"diverged_{stage}.hngw"
    if stage == "compress":
        doc = _with("compress", eta=1e8, lr_ratio=1.0)
        argv = ["--ckpt", str(pipeline["base"])]
    else:
        doc = _with("train", lr=1e5, finetune_lr=1e5, epochs=30, finetune_epochs=30)
        argv = ["--ckpt", str(pipeline["compact"])] if stage == "finetune" else []
    cfg = write_config(tmp, doc, name=f"diverge_{stage}.json")
    capsys.readouterr()
    rc = cli.main([stage, "--config", cfg, "--out", str(out)] + argv)
    *progress, err = capsys.readouterr().err.splitlines()
    assert rc == cli.EXIT_NUMERIC
    assert err.startswith("numeric error:")
    assert all(line.startswith("{") and "Warning" not in line for line in progress)
    if stage == "compress":
        assert "compression diverged" in err   # in the proximal phase
    assert not out.exists()


@pytest.mark.parametrize("m", [5000, -5000])
def test_extreme_lr_exponent_is_numeric_error(pipeline, capsys, m):
    """`eta / rho^m` overflowing or reaching zero ends in exit 3 with one
    `numeric error:` line naming the block and `compress.m`."""
    tmp = pipeline["tmp"]
    out = tmp / "extreme_m.hngw"
    cfg = write_config(tmp, _with("compress", m=m), name="extreme_m.json")
    capsys.readouterr()
    rc = cli.main(["compress", "--config", cfg, "--ckpt", str(pipeline["base"]),
                   "--out", str(out)])
    *progress, err = capsys.readouterr().err.splitlines()
    assert rc == cli.EXIT_NUMERIC
    assert err.startswith("numeric error: block") and "compress.m" in err
    assert all(line.startswith("{") for line in progress)
    assert not out.exists()


@pytest.mark.parametrize("regularizer,code,prefix", [
    ({"kind": "l1_minus_2", "lambda": 1e6}, cli.EXIT_NUMERIC, "numeric error: l1-l2"),
], ids=["l1-l2-shrinks-every-group"])
def test_regularizer_failing_in_phase(pipeline, capsys, regularizer, code, prefix):
    """A regularizer the phase cannot apply ends in its exit code with one
    line, not a traceback."""
    tmp = pipeline["tmp"]
    out = tmp / "bad_regularizer.hngw"
    cfg = write_config(tmp, _with("compress", regularizer=regularizer),
                       name="bad_regularizer.json")
    capsys.readouterr()
    rc = cli.main(["compress", "--config", cfg, "--ckpt", str(pipeline["base"]),
                   "--out", str(out)])
    *progress, err = capsys.readouterr().err.splitlines()
    assert rc == code
    assert err.startswith(prefix)
    assert all(line.startswith("{") for line in progress)
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["1.5", "0", "nan"])
def test_bad_target_ratio_is_usage_error(pipeline, capsys, ratio):
    """`--target-ratio` goes through the compress config's own range rule:
    outside (0, 1) it ends in exit 2 with one line naming the flag, before
    any work."""
    out = pipeline["tmp"] / "bad_target.hngw"
    capsys.readouterr()
    rc = cli.main(["compress", "--config", pipeline["cfg"], "--ckpt", str(pipeline["base"]),
                   "--target-ratio", ratio, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == cli.EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error: --target-ratio")
    assert not out.exists()


def test_cli_import_leaves_scipy_unloaded():
    # importing scipy.optimize costs every process about 0.3 s and 49 MB
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hingenet.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "False\n"


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    """Any other exception escaping a subcommand ends in the last-resort
    code with one line, not exit 1 (verification failure) and a traceback."""
    def broken(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_verify", broken)
    rc = cli.main(["verify", "--prox"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL == 5
    assert captured.err == "internal error: RuntimeError('boom')\n"
    assert captured.out == ""


class TestCliCompress:
    def test_report_validates_against_shipped_schema(self, pipeline):
        import jsonschema
        schema_path = (Path(cli.__file__).parent / "schemas" / "report.schema.json")
        schema = json.loads(schema_path.read_text())
        report = json.loads(Path(pipeline["report"]).read_text())
        jsonschema.validate(report, schema)

    def test_phase_free_report_counts_zero_epochs(self, pipeline):
        import jsonschema
        doc = dict(TINY_CONFIG, compress=dict(TINY_CONFIG["compress"], max_epochs=0))
        cfg = write_config(pipeline["tmp"], doc, name="phase_free_cfg.json")
        rep = pipeline["tmp"] / "phase_free_report.json"
        rc = cli.main(["compress", "--config", cfg, "--ckpt", str(pipeline["base"]),
                       "--out", str(pipeline["tmp"] / "phase_free.hngw"),
                       "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["compression_phase"]["epochs"] == 0
        schema_path = Path(cli.__file__).parent / "schemas" / "report.schema.json"
        jsonschema.validate(report, json.loads(schema_path.read_text()))

    def test_phase_free_compress_builds_no_dataset(self, tmp_path, monkeypatch):
        """With `compress.max_epochs: 0` nothing reads the data, so none is
        synthesized. The report and checkpoint are pinned bit for bit."""
        doc = dict(TINY_CONFIG, compress=dict(TINY_CONFIG["compress"], max_epochs=0))
        cfg = write_config(tmp_path, doc)
        base, out, rep = tmp_path / "base.hngw", tmp_path / "c.hngw", tmp_path / "r.json"
        checkpoint.save(base, build_network(load_config(cfg).arch, seed=7).state_tensors())

        def no_dataset(self):
            raise AssertionError("phase-free compress synthesized a dataset")
        monkeypatch.setattr(data.SyntheticDataset, "__post_init__", no_dataset)
        rc = cli.main(["compress", "--config", cfg, "--ckpt", str(base),
                       "--out", str(out), "--report", str(rep)])
        assert rc == 0
        digest = hashlib.sha256(out.read_bytes() + rep.read_bytes()).hexdigest()
        assert digest == "0d4901db364f53e63faefff6de4ce3d06f9f324b308eacfd2bb789938db719ff"

    def test_report_content(self, pipeline):
        report = json.loads(Path(pipeline["report"]).read_text())
        assert report["infeasible"] is False
        assert report["gamma"] == pytest.approx(
            report["flops_compressed"] / report["flops_original"], rel=1e-12)
        assert sum(p["flops"] for p in report["per_layer"]) == report["flops_compressed"]
        assert report["equivalence_max_abs_deviation"] <= 1e-10

    def test_infeasible_target_exits_4(self, pipeline):
        rc = cli.main(["compress", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["base"]),
                       "--target-ratio", "0.001",
                       "--out", str(pipeline["tmp"] / "x.hngw"),
                       "--report", str(pipeline["tmp"] / "x.json")])
        assert rc == cli.EXIT_INFEASIBLE
        report = json.loads((pipeline["tmp"] / "x.json").read_text())
        assert report["infeasible"] is True
        assert report["gamma_floor"] > 0.001

    def test_loose_target_near_noop(self, pipeline):
        out = pipeline["tmp"] / "loose.hngw"
        rep = pipeline["tmp"] / "loose.json"
        rc = cli.main(["compress", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["base"]),
                       "--target-ratio", "0.999",
                       "--out", str(out), "--report", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["equivalence_max_abs_deviation"] <= 1e-10

    def test_idempotent_rerun_byte_identical(self, pipeline):
        out2 = pipeline["tmp"] / "compact2.hngw"
        rep2 = pipeline["tmp"] / "report2.json"
        rc = cli.main(["compress", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["base"]),
                       "--out", str(out2), "--report", str(rep2)])
        assert rc == 0
        assert out2.read_bytes() == Path(pipeline["compact"]).read_bytes()
        assert rep2.read_text() == Path(pipeline["report"]).read_text()


class TestCliFinetune:
    def test_distill_finetune(self, pipeline):
        out = pipeline["tmp"] / "final.hngw"
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"]),
                       "--teacher", str(pipeline["base"]),
                       "--distill", "--out", str(out)])
        assert rc == 0
        metrics = json.loads((pipeline["tmp"] / "final.metrics.json").read_text())
        assert metrics["distilled"] is True
        assert len(metrics["history"]) == 2
        _assert_final_metrics_are_last_epoch(metrics)

    def test_plain_finetune_without_distill_flag(self, pipeline):
        out = pipeline["tmp"] / "plain_ft.hngw"
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"]), "--out", str(out)])
        assert rc == 0
        metrics = json.loads((pipeline["tmp"] / "plain_ft.metrics.json").read_text())
        assert metrics["distilled"] is False
        _assert_final_metrics_are_last_epoch(metrics)

    def test_zero_finetune_epochs_evaluates_checkpoint(self, pipeline, capsys):
        cfg = write_config(pipeline["tmp"], _with("train", finetune_epochs=0),
                           name="no_finetune.json")
        out = pipeline["tmp"] / "no_ft.hngw"
        rc = cli.main(["finetune", "--config", cfg, "--ckpt", str(pipeline["compact"]),
                       "--teacher", str(pipeline["base"]), "--distill",
                       "--out", str(out)])
        assert rc == 0
        metrics = json.loads((pipeline["tmp"] / "no_ft.metrics.json").read_text())
        assert metrics["history"] == []
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", cfg, "--ckpt", str(out)]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert metrics["test_accuracy"] == evaluated["test_accuracy"]
        assert metrics["test_loss"] == evaluated["test_loss"]

    def test_distill_requires_teacher(self, pipeline):
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"]),
                       "--distill", "--out", str(pipeline["tmp"] / "z.hngw")])
        assert rc == cli.EXIT_USAGE

    def test_teacher_requires_distill(self, pipeline, capsys):
        # the mirror of --distill without --teacher; the teacher is never opened
        out = pipeline["tmp"] / "teacher_only.hngw"
        capsys.readouterr()
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"]),
                       "--teacher", str(pipeline["tmp"] / "no_such_teacher.hngw"),
                       "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == "error: --teacher requires --distill\n"
        assert not out.exists()

    def test_teacher_equal_student_allowed(self, pipeline):
        out = pipeline["tmp"] / "self_ft.hngw"
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["base"]),
                       "--teacher", str(pipeline["base"]),
                       "--distill", "--out", str(out)])
        assert rc == 0

    def test_compacted_teacher_allowed(self, pipeline):
        teacher = _compressed(pipeline, 0.5)
        assert any(key.endswith("/A") for key in checkpoint.load(teacher))  # a kept pair
        rc = cli.main(["finetune", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"]),
                       "--teacher", str(teacher),
                       "--distill", "--out", str(pipeline["tmp"] / "compact_teacher.hngw")])
        assert rc == 0

    @pytest.mark.parametrize("arch_change,ckpt", [
        ({"stem_channels": 5}, "base"),                       # shape mismatch
        ({"blocks": TINY_CONFIG["arch"]["blocks"]
          + [{"kind": "basic", "channels": 6}]}, "base"),     # missing tensor
        ({"blocks": TINY_CONFIG["arch"]["blocks"]
          + [{"kind": "basic", "channels": 6}]}, "compact"),
        ({"stem_channels": 5}, "compact"),                    # compact shape mismatch
    ])
    def test_evaluate_other_arch_is_usage_error(self, pipeline, capsys, arch_change, ckpt):
        doc = dict(TINY_CONFIG, arch=dict(TINY_CONFIG["arch"], **arch_change))
        cfg = write_config(pipeline["tmp"], doc, name="other_arch.json")
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", cfg, "--ckpt", str(pipeline[ckpt])])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63, 3)],
                             ids=["product-wraps-to-0", "product-overflows-int64"])
    def test_evaluate_overflowing_dims_is_usage_error(self, pipeline, capsys, dims):
        path = pipeline["tmp"] / "overflow.hngw"
        path.write_bytes(b"HNGW" + struct.pack("<IIH", checkpoint.VERSION, 1, 6) + b"stem/W"
                         + struct.pack(f"<B{len(dims)}Q", len(dims), *dims))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: truncated checkpoint\n"

    def test_evaluate_version_1_is_usage_error(self, pipeline, capsys):
        # the baseline under a version-1 header: the reader stops at the version
        blob = pipeline["base"].read_bytes()
        path = pipeline["tmp"] / "v1.hngw"
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: unsupported checkpoint version 1\n"

    @pytest.mark.parametrize("stage", ["train", "finetune"])
    def test_evaluate_reads_the_metrics_file(self, pipeline, capsys, stage):
        """A saved network is the network: `evaluate` on the checkpoint a
        run wrote prints the test metrics in the file beside it, bit for bit."""
        ckpt = pipeline["base"]
        if stage == "finetune":
            ckpt = pipeline["tmp"] / "evaluated_ft.hngw"
            assert cli.main(["finetune", "--config", pipeline["cfg"],
                             "--ckpt", str(pipeline["compact"]),
                             "--teacher", str(pipeline["base"]), "--distill",
                             "--out", str(ckpt)]) == 0
        metrics = json.loads(ckpt.with_suffix(".metrics.json").read_text())
        assert metrics["history"]
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(ckpt)]) == 0
        evaluated = json.loads(capsys.readouterr().out)
        assert evaluated == {"test_accuracy": metrics["test_accuracy"],
                             "test_loss": metrics["test_loss"]}

    @pytest.mark.parametrize("byte", [7, 1, None], ids=["unknown", "pruned", "missing"])
    def test_evaluate_head_mode_not_untouched_is_usage_error(self, pipeline, capsys, byte):
        tensors = checkpoint.load(pipeline["compact"])
        if byte is None:
            del tensors["head/mode"]
        else:
            tensors["head/mode"] = np.array([byte], dtype=np.uint8)
        path = pipeline["tmp"] / "head_mode.hngw"
        checkpoint.save(path, tensors)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "head" in err

    @pytest.mark.parametrize("layer", ["stem", "block1.down"])
    @pytest.mark.parametrize("mode", ["prune", "decompose"])
    def test_evaluate_unhinged_layer_not_untouched_is_usage_error(self, pipeline, capsys,
                                                                  layer, mode):
        # a layer without a hinge position is never compressed, so a
        # compacted file that says otherwise is corrupt
        tensors = checkpoint.load(pipeline["compact"])
        tensors[f"{layer}/mode"] = np.array([hinge.MODE_BYTES[mode]], dtype=np.uint8)
        path = pipeline["tmp"] / "unhinged_mode.hngw"
        checkpoint.save(path, tensors)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: {layer}: mode byte")

    def test_evaluate_pair_on_untouched_layer_is_usage_error(self, pipeline, capsys):
        # only a decomposed layer keeps an `A`: on the untouched stem it
        # would be a rank-2 pair the cost report never priced
        tensors = checkpoint.load(pipeline["compact"])
        tensors["stem/W"] = tensors["stem/W"][:, :2]
        tensors["stem/A"] = np.ones((2, tensors["stem/b"].size))
        path = pipeline["tmp"] / "untouched_pair.hngw"
        checkpoint.save(path, tensors)
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: stem: an A tensor")

    def test_evaluate_repeated_tensor_is_usage_error(self, pipeline, capsys):
        # the baseline with its stem/W record appended again, count one higher
        blob = pipeline["base"].read_bytes()
        single = pipeline["tmp"] / "stem_w.hngw"
        checkpoint.save(single, {"stem/W": checkpoint.load(pipeline["base"])["stem/W"]})
        (count,) = struct.unpack("<I", blob[8:12])
        path = pipeline["tmp"] / "repeated.hngw"
        path.write_bytes(blob[:8] + struct.pack("<I", count + 1) + blob[12:]
                         + single.read_bytes()[12:])
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {path}: tensor 'stem/W' appears more than once\n"

    @pytest.mark.parametrize("command", ["evaluate", "finetune-ckpt", "finetune-teacher",
                                         "compress"])
    @pytest.mark.parametrize("case,named", [
        ("hinged", "block0.conv1: an A tensor in mode untouched"),
        ("stray-tensor", "tensor 'junk/W' belongs to no layer"),
        ("missing-tensor", "checkpoint missing tensor 'head/b'"),
        ("pair-on-untouched", "stem: an A tensor in mode untouched"),
        ("mode-3", "block0.conv1: mode [3] is not one of the bytes [0, 1, 2]")],
        ids=["hinged", "stray-tensor", "missing-tensor", "pair-on-untouched", "mode-3"])
    def test_bad_checkpoint_names_its_file(self, pipeline, capsys, command, case, named):
        """Each command that reads a checkpoint refuses one that is neither
        a baseline nor a compacted network, or does not fit the
        architecture, with exit 2 and one line naming the file."""
        cfg, tmp = pipeline["cfg"], pipeline["tmp"]
        base = network_from_tensors(load_config(cfg).arch, checkpoint.load(pipeline["base"]))
        tensors = checkpoint.load(pipeline["compact"])
        if case == "hinged":   # a network under compression
            tensors = attach_hinges(base).state_tensors()
        elif case == "stray-tensor":
            tensors = dict(base.state_tensors(), **{"junk/W": np.ones((1, 1))})
        elif case == "missing-tensor":
            tensors = base.state_tensors()
            del tensors["head/b"]
        elif case == "pair-on-untouched":
            tensors["stem/W"] = tensors["stem/W"][:, :2]
            tensors["stem/A"] = np.ones((2, tensors["stem/b"].size))
        else:
            tensors["block0.conv1/mode"] = np.array([3], dtype=np.uint8)
        path, out = tmp / f"bad_{case}.hngw", tmp / "bad_out.hngw"
        checkpoint.save(path, tensors)
        argv = {"evaluate": ["evaluate", "--ckpt", str(path)],
                "finetune-ckpt": ["finetune", "--ckpt", str(path), "--out", str(out)],
                "finetune-teacher": ["finetune", "--ckpt", str(pipeline["compact"]),
                                     "--teacher", str(path), "--distill", "--out", str(out)],
                "compress": ["compress", "--ckpt", str(path), "--out", str(out)]}[command]
        capsys.readouterr()
        rc = cli.main(argv + ["--config", cfg])
        assert rc == cli.EXIT_USAGE
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {path}: {named}")
        assert not out.exists()

    def test_mutated_compact_checkpoint_is_refused_or_evaluated(self, pipeline, capsys):
        """Byte-mutated copies of a real compacted checkpoint: `evaluate`
        scores each or refuses it with exit 2 and one line naming the file,
        never an internal error, a numeric error or a traceback. A NaN or
        an infinity in a stored weight is refused as the file's fault."""
        blob = pipeline["compact"].read_bytes()
        path = pipeline["tmp"] / "mutated.hngw"
        argv = ["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)]
        # the first entry of stem/W, after its name, ndim byte and two u64 dims
        entry = blob.index(b"stem/W") + len("stem/W") + 1 + 2 * 8

        @settings(max_examples=300, deadline=None, database=None)
        @given(edits=st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                              min_size=1, max_size=4))
        @example(edits=list(enumerate(np.float64(np.nan).tobytes(), start=entry)))
        @example(edits=list(enumerate(np.float64(-np.inf).tobytes(), start=entry)))
        def check(edits):
            data = bytearray(blob)
            for pos, value in edits:
                data[pos] = value
            path.write_bytes(bytes(data))
            capsys.readouterr()
            rc = cli.main(argv)
            err = capsys.readouterr().err
            if rc == cli.EXIT_OK:
                assert err == ""
            else:
                assert rc == cli.EXIT_USAGE, err
                [line] = err.splitlines()
                assert line.startswith(f"error: {path}: ")

        check()

    def test_evaluate_compact(self, pipeline, capsys):
        rc = cli.main(["evaluate", "--config", pipeline["cfg"],
                       "--ckpt", str(pipeline["compact"])])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["test_accuracy"] <= 1.0


class TestCliVerify:
    def test_injected_prox_bug_detected(self, monkeypatch, capsys):
        # off-by-lambda soft threshold: shrinks by 2*step instead of step
        def broken_prox_l1(a, scheme, step):
            from hingenet.linalg import group_norms, scale_groups
            norms = group_norms(a, scheme)
            new = np.maximum(norms - 2 * step, 0.0)
            factors = np.where(norms > 0, new / np.where(norms > 0, norms, 1.0), 0.0)
            return scale_groups(a, scheme, factors)

        monkeypatch.setattr(regularizers, "prox_l1", broken_prox_l1)
        from hingenet import verify
        results = verify.prox_suite(cases=60, seed=0)
        by_name = {r.name: r for r in results}
        assert not by_name["prox_l1"].passed
        assert by_name["prox_l1"].failures
        assert by_name["prox_l_half"].passed

    @pytest.mark.parametrize("name", ["prox_l1", "prox_l1_minus_2"])
    def test_nan_prox_detected(self, monkeypatch, name):
        monkeypatch.setattr(regularizers, name, lambda a, scheme, step: np.full_like(a, np.nan))
        from hingenet import verify
        by_name = {r.name: r for r in verify.prox_suite(cases=5, seed=0)}
        assert not by_name[name].passed
        assert len(by_name[name].failures) == 5
        assert np.isnan(by_name[name].max_deviation)

    def test_nan_gradient_detected(self, monkeypatch):
        def nan_backward(model, dlogits):
            for _, _, _, grad in model.params():
                grad[...] = np.nan
        monkeypatch.setattr(Network, "backward", nan_backward)
        from hingenet import verify
        results = verify.grad_suite()
        assert [r.name for r in results] == ["grad_cross_entropy", "grad_distill",
                                             "grad_plain_chain"]
        for r in results:
            assert r.line().startswith(f"{r.name}: FAIL (cases=1, max deviation nan")
            assert r.failures

    def test_nan_gamma_deviation_detected(self, monkeypatch):
        from hingenet import verify
        monkeypatch.setattr(verify, "compression_ratio", lambda model, threshold: np.nan)
        by_name = {r.name: r for r in verify.equivalence_suite(cases=3)}
        assert by_name["compaction_equivalence"].passed
        assert by_name["compaction_equivalence"].failures == []
        assert not by_name["compaction_gamma"].passed
        assert np.isnan(by_name["compaction_gamma"].max_deviation)
        assert [f["case"] for f in by_name["compaction_gamma"].failures] == [0, 1, 2]

    def test_full_rank_kept_pair_fails_gamma(self, monkeypatch):
        """A compaction that keeps every decomposed pair at full rank
        computes the same function but saves none of the planned FLOPs; the
        gamma check counts them from the compacted tensors, so it fails."""
        from hingenet import compaction, verify
        conv_tensors = compaction._conv_tensors

        def full_rank(layer, plan):
            tensors = conv_tensors(layer, plan)
            if plan.kept_pair:  # W's rows of the alive inputs, all of its columns
                k = layer.meta.kernel_h * layer.meta.kernel_w
                rows = (plan.alive_in_idx[:, None] * k + np.arange(k)).ravel()
                tensors.update(W=layer.w[rows], A=layer.a.copy())
            return tensors
        monkeypatch.setattr(compaction, "_conv_tensors", full_rank)
        by_name = {r.name: r for r in verify.equivalence_suite()}
        assert by_name["compaction_equivalence"].passed
        assert not by_name["compaction_gamma"].passed
        assert by_name["compaction_gamma"].max_deviation > 0.01

    def test_exit_code_contract(self, monkeypatch):
        from hingenet import verify

        def fake_suites(which):
            return [verify.SuiteResult("prox_l1", False, 1.0, 1e-6, 1,
                                       [{"group_norm": 1.0}])]
        monkeypatch.setattr(verify, "run_suites", fake_suites)
        rc = cli.main(["verify", "--prox"])
        assert rc == cli.EXIT_VERIFY

    def test_grad_suite_passes(self, capsys):
        rc = cli.main(["verify", "--grad"])
        assert rc == 0
        assert "grad_cross_entropy: ok" in capsys.readouterr().out

    def test_prox_suite_draws_pinned(self, monkeypatch):
        """Every array `prox_suite` hands to the two oracles, bit for bit:
        per scalar kind its norms and steps, then the l1-l2 cases, steps
        and seeds. Speed work on the suite must draw the same cases in the
        same order. Like the golden digests, the value holds per BLAS
        build: the norms run through BLAS dot products."""
        from hingenet import verify
        solve, solve_l1_minus_2 = regularizers.prox_oracle, regularizers.prox_oracle_l1_minus_2
        h = hashlib.sha256()

        def scalar(norms, kind, steps):
            h.update(kind.encode())
            for arr in (norms, steps):
                h.update(np.asarray(arr, dtype=np.float64).tobytes())
            return solve(norms, kind, steps)

        def coupled(cases, steps, seeds):
            h.update(b"l1_minus_2")
            for x in cases:
                h.update(np.asarray(x, dtype=np.float64).tobytes())
            h.update(np.asarray(steps, dtype=np.float64).tobytes())
            h.update(np.asarray(seeds, dtype=np.int64).tobytes())
            return solve_l1_minus_2(cases, steps, seeds)
        monkeypatch.setattr(regularizers, "prox_oracle", scalar)
        monkeypatch.setattr(regularizers, "prox_oracle_l1_minus_2", coupled)
        assert all(r.passed for r in verify.prox_suite())
        assert h.hexdigest() == "85af799a6457e52b397f018c2bdae1fca048cde0d74f1bea6b3f3f8833f29aab"

    def test_verify_stdout_pinned(self, capsys):
        """`hingenet verify`'s whole stdout, byte for byte (per BLAS build,
        as above)."""
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "199f2f2d993ff316ff1338edbe30cc497548cba7843c516bd04420ce3ee15f61")
