import os

# One BLAS thread, set before numpy loads: OpenBLAS splits a product among
# its threads, and the partition can change the rounding of a sum, so the
# pinned digests would otherwise depend on the machine's core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from hingenet import net  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def small_residual_arch(channels=(4, 6), input_channels=1, size=8, classes=3):
    blocks = (net.BlockDef("basic", channels[0], 1),
              net.BlockDef("basic", channels[1], 2))
    return net.ArchSpec(input_channels, size, size, classes, channels[0], blocks)


def small_plain_arch(channels=(5, 4), input_channels=2, size=8, classes=3):
    blocks = tuple(net.BlockDef("plain", c) for c in channels)
    return net.ArchSpec(input_channels, size, size, classes, channels[0], blocks)


def state_with_masks(model):
    """`model.state_tensors()` with each hinged layer's mask, as u8, after
    its params: the whole state of a network under compression, whose
    masks no checkpoint stores, in the order the pinned digests read."""
    out = {}
    for key, value in model.state_tensors().items():
        out[key] = value
        name, _, param = key.rpartition("/")
        if param == "b" and isinstance(model.layers[name], net.HingedConv2d):
            out[f"{name}/mask"] = model.layers[name].mask.astype(np.uint8)
    return out


def staircase(model):
    """The exhaustive reference for the threshold search: the compression
    ratio at threshold 0, just above every group norm and at infinity, in
    threshold order. Every ratio a threshold can reach is among them."""
    from hingenet import cost
    norms = np.unique(np.concatenate([l.group_norms() for _, l in model.hinged_layers()]))
    thresholds = np.concatenate([[0.0], np.nextafter(norms, np.inf), [np.inf]])
    return [cost.compression_ratio(model, t) for t in thresholds]
