"""Group-sparsity network compression.

A square sparsity-inducing matrix is appended to each convolution; driving
its column groups to zero prunes filters, driving its row groups to zero
yields a low-rank decomposition. Proximal-gradient optimization with layer
balancing and gradient-based learning-rate adjustment compresses to a
target FLOP ratio, every layer costing the weights it keeps; a bisection
over the sorted alive group norms picks the nullifying threshold whose
ratio is closest to the target; distillation finetuning recovers
accuracy.
"""

from .compaction import CompactModel, compact, verify_equivalence
from .cost import CostReport, compression_ratio
from .data import SyntheticDataset
from .losses import DistillConfig, cross_entropy, distill_loss
from .net import ArchSpec, BlockDef, Network, attach_hinges, build_network
from .regularizers import RegularizerSpec
from .solver import (CompressionConfig, CompressionState, apply_threshold,
                     binary_search_threshold, run_compression)

__version__ = "0.1.0"

__all__ = [
    "ArchSpec", "BlockDef", "Network", "build_network", "attach_hinges",
    "SyntheticDataset", "DistillConfig", "cross_entropy", "distill_loss",
    "RegularizerSpec", "CompressionConfig", "CompressionState",
    "run_compression", "binary_search_threshold", "apply_threshold",
    "CompactModel", "compact", "verify_equivalence",
    "CostReport", "compression_ratio",
]
