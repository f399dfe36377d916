"""Dense linear algebra on float64 matrices, plus entry-group bookkeeping.

Matrices are 2-D float64 numpy arrays throughout the package. The SVD is
LAPACK's, made deterministic by a fixed sign rule. A group scheme says
whether the groups of a matrix are its columns or its rows; their L2 norms
drive sparsification.
"""

from dataclasses import dataclass

import numpy as np

COLUMNS = "columns"
ROWS = "rows"


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class NumericError(RuntimeError):
    """An operation produced non-finite values or failed to converge."""


def as_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product with shape checking.

    Delegates to the BLAS behind numpy; for a fixed environment the
    reduction order (and hence the bit pattern of the result) is stable
    across runs. Transposed operands go to BLAS uncopied; `(dz.T @ col).T`
    gives the bits of `col.T @ dz` faster. `out`, if given, receives the
    product. The result is not checked for finiteness: the training,
    compression and evaluation loops check their losses, gradients and
    logits once per step, under `quiet_overflow`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul: expected 2-D matrices, got ndim={a.ndim} and ndim={b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return np.matmul(a, b, out=out)


def quiet_overflow():
    """The floating-point state of a loop that checks its own finiteness:
    overflow and invalid operations yield inf or NaN without a warning,
    and the loop checks its losses, gradients or logits. A fresh
    `np.errstate`, usable as a context or as a decorator."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray                  # m x k, orthonormal columns, k = min(m, n)
    singular_values: np.ndarray    # length k, non-negative, descending
    vt: np.ndarray                 # k x n, orthonormal rows


def svd(m: np.ndarray) -> SvdResult:
    """Thin SVD through LAPACK, with a fixed sign per singular pair.

    LAPACK leaves the sign of each (u column, vt row) pair open, so the
    largest-magnitude entry of every `u` column is made positive (the
    lowest index wins a tie) and the matching `vt` row flips with it; the
    factors then do not depend on the sign choices of a LAPACK build.
    """
    m = as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NumericError("svd: input contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd: {exc}") from exc
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    signs = np.where(lead < 0, -1.0, 1.0)
    return SvdResult(u=u * signs, singular_values=s, vt=vt * signs[:, None])


@dataclass(frozen=True)
class GroupScheme:
    """Groups of entries of a `shape` matrix: kind=columns makes column j
    group j, kind=rows makes row i group i."""
    kind: str
    shape: tuple

    def __post_init__(self):
        if self.kind not in (COLUMNS, ROWS):
            raise ValueError(f"group kind must be {COLUMNS} or {ROWS}, got {self.kind!r}")

    @property
    def axis(self) -> int:
        """The matrix axis a group runs along."""
        return 0 if self.kind == COLUMNS else 1

    @property
    def group_count(self) -> int:
        return self.shape[1 - self.axis]

    def check_matrix(self, a: np.ndarray) -> None:
        if tuple(a.shape) != self.shape:
            raise DimensionError(
                f"scheme built for shape {self.shape}, got matrix {a.shape}")


def group_norms(a: np.ndarray, scheme: GroupScheme) -> np.ndarray:
    """L2 norm of each group of entries of `a`; length == scheme.group_count."""
    a = as_matrix(a)
    scheme.check_matrix(a)
    # the formula `np.linalg.norm(a, axis=...)` runs for real input (numpy
    # 2.4), so the same bits without its per-call argument handling;
    # tests/test_linalg.py pins the equality
    return np.sqrt(np.add.reduce(a * a, axis=scheme.axis))


def scale_groups(a: np.ndarray, scheme: GroupScheme, factors: np.ndarray) -> np.ndarray:
    """Return a copy of `a` with each group multiplied by its factor."""
    a = as_matrix(a)
    scheme.check_matrix(a)
    f = np.asarray(factors, dtype=np.float64)
    return a * (f[None, :] if scheme.axis == 0 else f[:, None])
