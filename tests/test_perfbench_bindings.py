"""The traced benchmark run wraps package functions by name; a rename in
the package must fail here rather than silently break `--trace 1`."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# Installs the tracer in a child process: `tracing.install` rebinds the
# package's functions for the rest of the process that calls it.
TRACED_RUN = """
import importlib.util, json, sys, time
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
recorder = tracing.Recorder(time.perf_counter)
missed = tracing.install(recorder)
from hingenet import net
strides, traced_col2im = [], net.col2im
def col2im(dz, w, x_shape, kh, kw, stride, pad):  # each call's stride, in span order
    strides.append(stride)
    return traced_col2im(dz, w, x_shape, kh, kw, stride, pad)
net.col2im = col2im
arch = net.ArchSpec(1, 16, 16, 4, 16, (net.BlockDef("basic", 16, 1),
                                       net.BlockDef("basic", 32, 2)))
model = net.build_network(arch, seed=0)
x = np.random.default_rng(0).normal(size=(64, 1, 16, 16))
for hinged in (False, True):
    if hinged:
        net.attach_hinges(model)
    model.backward(np.ones_like(model.forward(x[:32])))
model.forward(x, cache=False)
calls = {k: v["calls"] for k, v in tracing.summarize(recorder).items()}
from hingenet import data, solver
ds = data.SyntheticDataset(seed=0, classes=4, n_train=48, n_test=16, channels=1,
                           height=16, width=16)
first = len(recorder.spans)
solver.run_compression(model, ds, solver.CompressionConfig(max_epochs=1, batch_size=16))
spans = recorder.spans
def ancestors(i):
    while spans[i][3] >= 0:
        i = spans[i][3]
        yield spans[i][0]
backward_children = {i: set() for i, span in enumerate(spans)
                     if span[0] == "net.conv.backward"}
for name, _, _, parent, _ in spans:
    if parent in backward_children:
        backward_children[parent].add(name)
print(json.dumps({"missed": missed,
                  "violations": [m for _, m in tracing.child_rule_violations(recorder)],
                  "calls": calls,
                  "phase_steps": [list(ancestors(i)) for i in range(first, len(spans))
                                  if spans[i][0] == "train.sgd_step"],
                  "col2im_strides": strides,
                  "backward": [sorted(children) for children in backward_children.values()]}))
"""


def test_tracer_wraps_a_conv_forward_and_backward():
    """One toy training step, plain and hinged, one sliced inference
    forward and one compression-phase epoch under the tracer: every
    binding is wrapped, every conv span has the children `--trace 1`
    checks, every conv backward books its unfolds and products under its
    own span, `net.col2im` runs for the strided convs only, and the phase
    steps its filters by one `SgdMomentum.step` per batch."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", TRACED_RUN,
                           str(ROOT / "perfbench" / "tracing.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["missed"] == []
    assert result["violations"] == []
    calls = result["calls"]  # 7 convs: two caching forwards, three inference slices
    assert (calls["net.conv.forward"], calls["net.conv.backward"]) == (5 * 7, 2 * 7)
    # two training steps and three phase batches, each backward running
    # head, block1.conv2, .conv1, .down, block0.conv2, .conv1 and the stem;
    # the stride-1 convs take both gradients from their dz patches
    assert result["col2im_strides"] == [2, 2] * 5
    assert len(result["backward"]) == 7 * 5
    assert all({"net.im2col", "linalg.matmul"} <= set(children)
               for children in result["backward"])
    assert sum("net.col2im" in children for children in result["backward"]) == 2 * 5
    # 48 samples in batches of 16: three phase batches
    assert len(result["phase_steps"]) == 3
    assert all("solver.phase" in chain for chain in result["phase_steps"])
