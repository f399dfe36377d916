"""Command-line pipeline driver.

Subcommands: train (baseline), compress (proximal-gradient phase, threshold
search, compaction), finetune (optionally distilled), evaluate, verify
(oracle suites). Machine artifacts go to the paths given by flags; progress
records are JSON lines on stderr. Exit codes: 0 success, 1 verification
failure, 2 usage/config error, 3 numeric failure, 4 infeasible target,
5 internal error (any other exception, reported as one `internal error:`
line instead of a traceback).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, compaction, cost, net, solver, train as training, verify
from .config import ConfigError, load_config
from .linalg import NumericError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INFEASIBLE = 4
EXIT_INTERNAL = 5

SEARCH_CRITERION = 0.005  # |gamma - target| considered an exact hit


def _log(record):
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
    sys.stderr.flush()


def _metrics_path(out_path: str) -> Path:
    return Path(out_path).with_suffix(".metrics.json")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_outputs(paths: dict):
    """Refuse, before any work, an output path (label -> path, None when
    not given) that is a directory or whose directory is missing."""
    for label, path in paths.items():
        if path is None:
            continue
        path = Path(path)
        if path.is_dir():
            raise ConfigError(f"{label} {path} is a directory")
        if not path.parent.is_dir():
            raise ConfigError(f"{label} {path}: directory {path.parent} does not exist")


def _read_network(arch, path) -> net.Network:
    """The network in the checkpoint at `path`; a CheckpointError names the file."""
    try:
        return net.network_from_tensors(arch, checkpoint.load(path))
    except checkpoint.CheckpointError as exc:
        raise checkpoint.CheckpointError(f"{path}: {exc}") from exc


def _final_metrics(model, dataset, history):
    """Test accuracy and loss of the trained model. The last epoch's record
    already evaluated this model on the test split; a run of zero epochs
    evaluates it here. They describe the float64 model in memory; the checkpoint
    stores its float32 rounding, so `hingenet evaluate` can differ in the last digits."""
    if history:
        return history[-1]["test_accuracy"], history[-1]["test_loss"]
    return training.evaluate(model, dataset.x_test, dataset.y_test)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _check_outputs({"--out": args.out, "metrics file": _metrics_path(args.out)})
    dataset = cfg.make_dataset()
    model = net.build_network(cfg.arch, seed=cfg.seed)
    tc = cfg.train
    history = training.train(model, dataset, epochs=tc.epochs, lr=tc.lr,
                             batch_size=tc.batch_size, momentum=tc.momentum,
                             weight_decay=tc.weight_decay, lr_drops=tc.lr_drops,
                             seed=cfg.seed, log=_log)
    checkpoint.save(args.out, model.state_tensors())
    acc, loss = _final_metrics(model, dataset, history)
    _write_json(_metrics_path(args.out),
                {"test_accuracy": acc, "test_loss": loss, "history": history,
                 "seed": cfg.seed})
    return EXIT_OK


def cmd_compress(args) -> int:
    cfg = load_config(args.config)
    _check_outputs({"--out": args.out, "--report": args.report})
    if args.target_ratio is not None:
        try:
            cfg.compress = dataclasses.replace(cfg.compress, target_ratio=args.target_ratio)
        except ValueError as exc:
            raise ConfigError(f"--target-ratio {args.target_ratio}: {exc}") from exc
    target = cfg.compress.target_ratio
    # only the phase's epochs read the data
    dataset = cfg.make_dataset() if cfg.compress.max_epochs > 0 else None
    model = _read_network(cfg.arch, args.ckpt)
    if model.compacted:
        raise checkpoint.CheckpointError(
            f"{args.ckpt} is not a baseline checkpoint; compress needs one")
    net.attach_hinges(model, init=cfg.hinge_init,
                      first_kind=cfg.first_hinge_groups,
                      plain_kind=cfg.plain_hinge_groups)

    state = solver.run_compression(model, dataset, cfg.compress, log=_log)

    floor = cost.compression_ratio(model, np.inf)
    report = {
        "target_ratio": target,
        "stop_margin": cfg.compress.stop_margin,
        "nullify_threshold": cfg.compress.nullify_threshold,
        "regularizer": cfg.compress.regularizer.kind,
        "lambda": cfg.compress.regularizer.lam,
        "compression_phase": {"epochs": len(state.gamma_history),
                              "converged": state.converged,
                              "gamma_final": state.gamma_c},
        "gamma_floor": floor,
    }
    if floor - target > SEARCH_CRITERION:
        report["infeasible"] = True
        if args.report:
            _write_json(args.report, report)
        _log({"event": "infeasible_target", "target": target, "floor": floor})
        return EXIT_INFEASIBLE

    search = solver.binary_search_threshold(model, target,
                                            criterion=SEARCH_CRITERION)
    solver.apply_threshold(model, search.threshold)
    compacted, plans = compaction.compact(model)
    deviation = compaction.verify_equivalence(model, compacted, n_inputs=16, seed=cfg.seed)
    checkpoint.save(args.out, compacted.state_tensors())

    report.update({
        "threshold": search.threshold,
        "search_exact": search.exact,
        "search_iterations": search.iterations,
        "equivalence_max_abs_deviation": deviation,
        "infeasible": False,
    })
    report.update(cost.report(plans))
    if args.report:
        _write_json(args.report, report)
    _log({"event": "compressed", "gamma": report["gamma"],
          "threshold": search.threshold, "exact": search.exact})
    return EXIT_OK


def cmd_finetune(args) -> int:
    if args.distill != (args.teacher is not None):
        raise ConfigError("--distill requires --teacher" if args.distill
                          else "--teacher requires --distill")
    cfg = load_config(args.config)
    _check_outputs({"--out": args.out, "metrics file": _metrics_path(args.out)})
    dataset = cfg.make_dataset()
    model = _read_network(cfg.arch, args.ckpt)
    teacher = _read_network(cfg.arch, args.teacher) if args.distill else None
    tc = cfg.train
    history = training.train(model, dataset, epochs=tc.finetune_epochs,
                             lr=tc.finetune_lr, batch_size=tc.batch_size,
                             momentum=tc.momentum, weight_decay=tc.weight_decay,
                             seed=cfg.seed, teacher=teacher,
                             distill_cfg=cfg.distill, log=_log)
    checkpoint.save(args.out, model.state_tensors())
    acc, loss = _final_metrics(model, dataset, history)
    _write_json(_metrics_path(args.out),
                {"test_accuracy": acc, "test_loss": loss, "history": history,
                 "distilled": bool(args.distill), "seed": cfg.seed})
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    dataset = cfg.make_dataset()
    model = _read_network(cfg.arch, args.ckpt)
    acc, loss = training.evaluate(model, dataset.x_test, dataset.y_test)
    print(json.dumps({"test_accuracy": acc, "test_loss": loss}, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    selected = [name for name, on in
                (("prox", args.prox), ("grad", args.grad), ("equiv", args.equiv))
                if on]
    if not selected:
        selected = ["prox", "grad", "equiv"]
    all_passed = True
    for which in selected:
        for result in verify.run_suites(which):
            print(result.line())
            all_passed &= result.passed
    return EXIT_OK if all_passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hingenet",
        description="Group-sparsity compression: prune or decompose "
                    "convolutions through a sparsity-inducing matrix.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the baseline network")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="HNGW checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="compress a trained checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--target-ratio", type=float, default=None, dest="target_ratio")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="JSON cost report path")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("finetune", help="finetune a (compacted) checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--teacher", default=None)
    p.add_argument("--distill", action="store_true",
                   help="use the distillation loss against --teacher")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="report test accuracy of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("verify", help="run the oracle verification suites")
    p.add_argument("--prox", action="store_true")
    p.add_argument("--grad", action="store_true")
    p.add_argument("--equiv", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, net.ArchSizeError, OSError) as exc:  # CheckpointError is an OSError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except Exception as exc:  # a defect: still one line, and not exit 1
        sys.stderr.write(f"internal error: {exc!r}\n")  # repr: one line
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
