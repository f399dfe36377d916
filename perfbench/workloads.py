"""The benchmark's workloads: seeded inputs, the CLI calls that make up one
iteration, and the checks on each call's outputs.

Every operation goes through ``hingenet.cli.main``, the entry point behind
the ``hingenet`` command. An operation fails when it returns a non-zero exit
code, raises, or fails one of its checks; failures are counted, never fatal.
"""

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from hingenet import checkpoint, cli, net
from hingenet.config import load_config

TARGET_RATIO = 0.5
RATIO_TOLERANCE = cli.SEARCH_CRITERION
EQUIVALENCE_TOLERANCE = 1e-10

# The shipped toy run (12 training, 60 phase and 15 finetune epochs) takes
# about 90 s on two cores. The benchmark keeps its architecture, data and
# batch sizes, so every epoch does the shipped work, but runs 2, 1 and 2
# epochs: an iteration then takes about 7 s, and a 30-s run holds several,
# whose median steadies the figures on a noisy machine.
TOY_OVERRIDES = {"train": {"epochs": 2, "finetune_epochs": 2}, "compress": {"max_epochs": 1}}

# A wider net on which the phase-free compress is dominated by the SVD of
# the 288x64 ... 1152x128 filter matrices rather than by convolution.
WIDE_CONFIG = {
    "arch": {"input": {"channels": 3, "height": 16, "width": 16},
             "classes": 10, "stem_channels": 32,
             "blocks": [{"kind": "basic", "channels": 64, "stride": 1},
                        {"kind": "basic", "channels": 128, "stride": 2}]},
    "compress": {"max_epochs": 0},
}

VERIFY_SUITES = ("prox", "grad", "equiv")


@dataclass
class Op:
    """One CLI call of an iteration and the files it writes."""
    stage: str
    argv: list
    artifacts: list = field(default_factory=list)


@dataclass
class OpResult:
    stage: str
    seconds: float
    exit_code: object
    stdout: str
    stderr: str
    digests: dict
    checks: list          # (name, passed, detail)
    values: dict          # measured outputs: accuracy, ratio error, ...
    ref_s: float = 0.0    # mean reference pass during the call (reference.py)

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or not all(ok for _, ok, _ in self.checks)


@dataclass
class Inputs:
    workload: str
    workdir: Path
    config: Path | None = None
    baseline: Path | None = None
    hinged_groups: int = 0


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _hinged_groups(config_doc) -> int:
    """Group count of all hinge matrices: one group per output channel of
    every block convolution (the stem, skips and head stay unhinged)."""
    return sum(b["channels"] * (2 if b["kind"] == "basic" else 1)
               for b in config_doc["arch"]["blocks"])


def setup(workload: str, seed: int, workdir: Path, root: Path) -> Inputs:
    """Write the inputs the program is handed, parse them and synthesize
    the dataset, as a user would before the first stage call."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(workload, workdir)
    if workload == "verify":
        return inputs
    if workload == "toy-pipeline":
        doc = json.loads((root / "configs" / "toy.json").read_text(encoding="utf-8"))
        for section, values in TOY_OVERRIDES.items():
            doc[section].update(values)
    else:
        doc = json.loads(json.dumps(WIDE_CONFIG))
    doc["seed"] = seed
    inputs.config = workdir / f"{workload}.json"
    inputs.hinged_groups = _hinged_groups(doc)
    _write_json(inputs.config, doc)
    cfg = load_config(inputs.config)
    cfg.make_dataset()
    if workload == "wide-compress":
        inputs.baseline = workdir / "wide-baseline.hngw"
        checkpoint.save(inputs.baseline, net.build_network(cfg.arch, seed=seed).state_tensors())
    return inputs


def _compress(cfg: str, ckpt: Path, d: Path) -> Op:
    return Op("compress", ["compress", "--config", cfg, "--ckpt", str(ckpt),
                           "--target-ratio", str(TARGET_RATIO), "--out",
                           str(d / "compact.hngw"), "--report", str(d / "report.json")],
              [d / "compact.hngw", d / "report.json"])


def iteration(inputs: Inputs) -> list:
    """The CLI calls of one pass through the workload, in order."""
    d = inputs.workdir
    cfg = str(inputs.config)
    if inputs.workload == "toy-pipeline":
        return [
            Op("train", ["train", "--config", cfg, "--out", str(d / "base.hngw")],
               [d / "base.hngw", d / "base.metrics.json"]),
            _compress(cfg, d / "base.hngw", d),
            Op("finetune", ["finetune", "--config", cfg, "--ckpt", str(d / "compact.hngw"),
                            "--teacher", str(d / "base.hngw"), "--distill",
                            "--out", str(d / "final.hngw")],
               [d / "final.hngw", d / "final.metrics.json"]),
            Op("evaluate", ["evaluate", "--config", cfg, "--ckpt", str(d / "final.hngw")]),
        ]
    if inputs.workload == "wide-compress":
        return [_compress(cfg, inputs.baseline, d)]
    return [Op(f"verify_{suite}", ["verify", f"--{suite}"]) for suite in VERIFY_SUITES]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_op(op: Op, inputs: Inputs, schema, clock) -> OpResult:
    """Run one CLI call, timed by `clock`, and check its outputs."""
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            code = "exception"
    seconds = clock() - start
    result = OpResult(op.stage, seconds, code, out.getvalue(), err.getvalue(),
                      {}, [], {})
    if code != 0:
        result.checks.append(("exit code 0", False, str(code)))
        return result
    for path in op.artifacts:
        result.digests[path.name] = _sha256(path.read_bytes())
    if result.stdout:
        result.digests["stdout"] = _sha256(result.stdout.encode("utf-8"))
    try:
        _check(op, inputs, result, schema)
    except (OSError, ValueError, KeyError) as exc:
        result.checks.append(("outputs readable", False, repr(exc)))
    return result


def _check(op: Op, inputs: Inputs, result: OpResult, schema) -> None:
    checks, values = result.checks, result.values
    d = inputs.workdir
    if op.stage == "train":
        base = json.loads((d / "base.metrics.json").read_text(encoding="utf-8"))
        values["baseline_accuracy"] = base["test_accuracy"]
    elif op.stage == "compress":
        import jsonschema  # here, so its import does not count toward setup_s
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        validator = jsonschema.validators.validator_for(schema)(schema)
        errors = [e.message for e in validator.iter_errors(report)]
        checks.append(("report matches report.schema.json", not errors, "; ".join(errors[:3])))
        deviation = report["equivalence_max_abs_deviation"]
        checks.append(("equivalence deviation <= 1e-10",
                       deviation <= EQUIVALENCE_TOLERANCE, f"{deviation:.3e}"))
        ratio_error = abs(report["gamma"] - TARGET_RATIO)
        checks.append(("ratio error <= 0.005 or search inexact",
                       ratio_error <= RATIO_TOLERANCE or not report["search_exact"],
                       f"{ratio_error:.5f}, exact={report['search_exact']}"))
        epochs = [json.loads(line) for line in result.stderr.splitlines()
                  if line.startswith("{") and '"gamma_c"' in line]
        alive = sum(epochs[-1]["alive_groups"].values()) if epochs else inputs.hinged_groups
        values.update(ratio_error=ratio_error, search_iterations=report["search_iterations"],
                      equivalence_deviation=deviation, phase_epochs=len(epochs),
                      phase_epochs_reported=report["compression_phase"]["epochs"],
                      groups_nullified=inputs.hinged_groups - alive)
    elif op.stage == "evaluate":
        values["final_accuracy"] = json.loads(result.stdout)["test_accuracy"]
    elif op.stage.startswith("verify"):
        lines = [line for line in result.stdout.splitlines() if not line.startswith(" ")]
        bad = [line for line in lines if ": ok " not in line]
        checks.append(("every suite prints ok", bool(lines) and not bad, "; ".join(bad[:3])))
        values["suites"] = len(lines)


def inputs_digest(inputs: Inputs) -> str:
    """SHA-256 of the config the program is handed (empty for verify)."""
    return _sha256(inputs.config.read_bytes() if inputs.config else b"")


def code_digest(root: Path) -> str:
    """SHA-256 over the package sources, so digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    pkg = root / "src" / "hingenet"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(pkg)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()
