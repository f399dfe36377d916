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

__version__ = "0.1.0"
