import json
import struct
from pathlib import Path

import numpy as np
import pytest

from hingenet import checkpoint, cli, regularizers
from hingenet.config import ConfigError, load_config, parse_config
from hingenet.net import attach_hinges, build_network, network_from_tensors
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
        assert cfg.arch.stem_channels == 16
        assert cfg.compress.regularizer.kind == "l1"
        assert cfg.compress.regularizer.lam == 2e-4
        assert cfg.compress.eta == 0.1
        assert cfg.compress.lr_ratio == 0.01
        assert cfg.compress.m == 1.35
        assert cfg.compress.stop_margin == 0.1
        assert cfg.compress.nullify_threshold == 0.005
        assert cfg.compress.weight_decay == 1e-4
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


WIDE_PLAIN_ARCH = dict(TINY_CONFIG["arch"], stem_channels=1,
                       blocks=[{"kind": "plain", "channels": 16}])


@pytest.mark.parametrize("doc", [
    _with("arch", blocks=[{"kind": "basic", "channels": 4, "stride": 0}]),
    _with("arch", blocks=[{"kind": "basic", "channels": 0}]),
    _with(None, arch=WIDE_PLAIN_ARCH),   # svd init on a 9 x 16 filter
    _with(None, seed="abc"),
    _with("train", epochs="x"),
    _with("train", batch_size=0),
    _with("data", n_train=0),
    _with("train", epochs=-1),
], ids=["stride-0", "channels-0", "svd-wide-filter", "seed-string", "epochs-string",
        "batch-size-0", "n-train-0", "epochs-negative"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o.hngw")])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_USAGE
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "o.hngw").exists()


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
                "out-directory-missing", "report-directory-missing")


@pytest.mark.parametrize("case", [
    "ckpt-is-directory", "out-is-directory", "report-is-directory",
    "compress-compacted-0.999", "compress-compacted-0.5", "compress-hinged-state",
    "finetune-out-is-directory", "out-directory-missing", "report-directory-missing"])
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
    elif case == "compress-hinged-state":   # a network still being compressed
        model, _ = network_from_tensors(load_config(cfg).arch, checkpoint.load(pipeline["base"]))
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
        path.write_bytes(b"HNGW" + struct.pack("<IIH", 1, 1, 6) + b"stem/W"
                         + struct.pack(f"<B{len(dims)}Q", len(dims), *dims))
        capsys.readouterr()
        rc = cli.main(["evaluate", "--config", pipeline["cfg"], "--ckpt", str(path)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

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

    def test_exit_code_contract(self, monkeypatch):
        from hingenet import verify

        def fake_suites(which, **kw):
            return [verify.SuiteResult("prox_l1", False, 1.0, 1e-6, 1,
                                       [{"group_norm": 1.0}])]
        monkeypatch.setattr(verify, "run_suites", fake_suites)
        rc = cli.main(["verify", "--prox"])
        assert rc == cli.EXIT_VERIFY

    def test_grad_suite_passes(self, capsys):
        rc = cli.main(["verify", "--grad"])
        assert rc == 0
        assert "grad_cross_entropy: ok" in capsys.readouterr().out
