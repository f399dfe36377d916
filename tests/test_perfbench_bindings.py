"""The traced benchmark run wraps package functions by name; a rename in
the package must fail here rather than silently break `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _perfbench("tracing").TRACED


@pytest.mark.parametrize("metric", sorted(TRACED))
def test_traced_targets_exist(metric):
    for target in TRACED[metric]:
        modname, qualname = target.split(":")
        owner = importlib.import_module(f"hingenet.{modname}")
        for attr in qualname.split("."):
            assert attr in vars(owner), f"{metric}: {target} is gone"
            owner = vars(owner)[attr]
        assert callable(owner), f"{metric}: {target} is not callable"


def test_batch_generator_exists():
    # install() also counts samples through train.batches
    assert callable(importlib.import_module("hingenet.train").batches)


@pytest.mark.parametrize("workload", ["toy-pipeline", "wide-compress", "verify"])
def test_workload_argv_parse(workload, tmp_path):
    """Every CLI call a benchmark iteration makes parses, so a renamed flag
    fails here rather than at bench time."""
    from hingenet import cli
    workloads = _perfbench("workloads")
    assert isinstance(cli.SEARCH_CRITERION, float)
    inputs = workloads.setup(workload, 0, tmp_path, ROOT)
    ops = workloads.iteration(inputs)
    assert ops
    for op in ops:
        args = cli.build_parser().parse_args(op.argv)
        assert args.command == op.argv[0]
