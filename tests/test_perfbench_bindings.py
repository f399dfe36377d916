"""The traced benchmark run wraps package functions by name; a rename in
the package must fail here rather than silently break `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _tracing().TRACED


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
