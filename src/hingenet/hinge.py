"""Attaching sparsity-inducing matrices to convolutions.

A hinged convolution keeps its reshaped filter W (patch_size x n) and gains
a square matrix A (n x n) that acts as a 1x1 convolution after it. Group
sparsity on A's columns yields filter pruning, on its rows low-rank
decomposition. A hinge sits at one of three positions: the first or the
second conv of a residual block, or the conv of a plain block. Which group
kind a hinge gets is decided in one place, `net.attach_hinges`: a layer
whose output a skip reads (the second conv of a residual block among
them) gets rows, so its output channels survive. `cost.build_plan` refuses
to prune such a layer.

The phase's group bookkeeping lives here too: `mean_alive_norm` is the one
mean over alive groups (the phase's epoch-end norms, which the log and the
next epoch's lambdas read, and the gradient-ratio lr rule), and
`update_mask` kills groups at epoch end and in the threshold search.
`HingedConv2d.apply_mask` zeroes the dead groups.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DimensionError, GroupScheme

IDENTITY_INIT = "identity"
SVD_INIT = "svd"

# Placement of a hinge matrix inside its block.
FIRST_IN_BASIC = "first-in-basic-block"
SECOND_IN_BASIC = "second-in-basic-block"
STANDALONE = "standalone"

PRUNE = "prune"
DECOMPOSE = "decompose"
UNTOUCHED = "untouched"
# A compacted checkpoint stores each layer's mode as one byte.
MODE_BYTES = {UNTOUCHED: 0, PRUNE: 1, DECOMPOSE: 2}


@dataclass(frozen=True)
class ConvMeta:
    """Static geometry of a convolution at a fixed input resolution."""
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    out_h: int
    out_w: int

    @property
    def patch_size(self) -> int:
        return self.in_channels * self.kernel_h * self.kernel_w

    @property
    def spatial(self) -> int:
        return self.out_h * self.out_w


def attach(w: np.ndarray, init: str = SVD_INIT):
    """Split a filter matrix into the (W, A) pair whose product is the
    original filter.

    identity: (W, I). svd: (U, diag(s) Vt) so the stored filter columns are
    unit length and the singular mass moves into A's rows; requires a
    tall-or-square filter (patch_size >= out channels).
    """
    w = linalg.as_matrix(w)
    n = w.shape[1]
    if init == IDENTITY_INIT:
        return w.copy(), np.eye(n)
    if init != SVD_INIT:
        raise ValueError(f"unknown hinge init {init!r}")
    if w.shape[0] < n:
        raise DimensionError(
            f"svd init needs patch_size >= out_channels, got {w.shape}; "
            "use identity init for wide filters")
    res = linalg.svd(w)
    a = res.singular_values[:, None] * res.vt
    return res.u, a


def mean_alive_norm(m: np.ndarray, scheme: GroupScheme, mask: np.ndarray) -> float:
    """Mean group norm of `m` over the groups `mask` keeps alive; 0.0 when
    none is."""
    alive = linalg.group_norms(m, scheme)[mask]
    return float(alive.mean()) if alive.size else 0.0


def update_mask(norms: np.ndarray, mask: np.ndarray, threshold: float) -> np.ndarray:
    """Kill alive groups whose norm fell below `threshold`; dead groups stay
    dead. If nothing would survive, the largest-norm currently-alive group
    is kept so a layer is never fully nullified."""
    new_mask = mask & (norms >= threshold)
    if not new_mask.any():
        guarded = np.where(mask, norms, -np.inf)
        new_mask[int(np.argmax(guarded))] = True
    return new_mask
