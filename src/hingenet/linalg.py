"""Dense linear algebra on float64 matrices, plus entry-group bookkeeping.

Matrices are 2-D float64 numpy arrays throughout the package.
Group schemes describe disjoint sets of matrix entries (columns, rows, or
concatenated channel groups) whose joint L2 norms drive sparsification.
"""

from dataclasses import dataclass, field

import numpy as np

COLUMNS = "columns"
ROWS = "rows"
CONCAT_GROUPS = "concat-groups"


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class NumericError(RuntimeError):
    """An operation produced non-finite values or failed to converge."""


def as_matrix(a) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with shape checking and a finiteness guard.

    Delegates to the BLAS behind numpy; for a fixed environment the
    reduction order (and hence the bit pattern of the result) is stable
    across runs. Strided operands such as `col.T` go to BLAS as they are,
    without a contiguous copy.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(
            f"matmul: expected 2-D matrices, got ndim={a.ndim} and ndim={b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
        # One-pass guard: any NaN/Inf entry poisons the sum.
        if not np.isfinite(out.sum()):
            if not np.all(np.isfinite(out)):
                raise NumericError("matmul produced non-finite entries")
    return out


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray                  # m x n, orthonormal columns
    singular_values: np.ndarray    # length n, non-negative, descending
    vt: np.ndarray                 # n x n, orthonormal rows

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.singular_values) @ self.vt


def svd(m: np.ndarray, max_sweeps: int = 100, tol: float = 1e-12) -> SvdResult:
    """One-sided Jacobi SVD of a tall-or-square matrix (m x n, m >= n).

    Orthogonalizes the columns by plane rotations; converges quadratically
    at the sizes used here. Columns belonging to zero singular values are
    completed to an orthonormal set so that `u` always has n orthonormal
    columns. A wide input is handled by transposing.
    """
    m = as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NumericError("svd: input contains non-finite entries")
    if m.shape[0] < m.shape[1]:
        flipped = svd(m.T, max_sweeps=max_sweeps, tol=tol)
        return SvdResult(u=flipped.vt.T.copy(), singular_values=flipped.singular_values,
                         vt=flipped.u.T.copy())

    a = m.copy()
    n = a.shape[1]
    v = np.eye(n)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return SvdResult(u=np.eye(m.shape[0], n), singular_values=np.zeros(n), vt=v)

    for _ in range(max_sweeps):
        rotated = False
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                ci = a[:, i]
                cj = a[:, j]
                gij = float(ci @ cj)
                gii = float(ci @ ci)
                gjj = float(cj @ cj)
                off = max(off, abs(gij))
                if abs(gij) <= tol * np.sqrt(gii * gjj) or gij == 0.0:
                    continue
                tau = (gjj - gii) / (2.0 * gij)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[:, [i, j]] = a[:, [i, j]] @ rot
                v[:, [i, j]] = v[:, [i, j]] @ rot
                rotated = True
        if not rotated:
            break
    else:
        raise NumericError(
            f"svd: one-sided Jacobi did not converge in {max_sweeps} sweeps "
            f"(max off-diagonal {off:.3e})")

    sigma = np.linalg.norm(a, axis=0)
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]

    u = np.zeros_like(a)
    nonzero = sigma > tol * scale
    u[:, nonzero] = a[:, nonzero] / sigma[nonzero]
    sigma[~nonzero] = sigma[~nonzero] * 0.0  # clean -0.0
    _complete_orthonormal(u, nonzero)
    return SvdResult(u=u, singular_values=sigma, vt=v.T.copy())


def _complete_orthonormal(u: np.ndarray, filled: np.ndarray) -> None:
    """Fill the columns of `u` flagged False in `filled` with vectors
    orthonormal to the rest, drawn from the canonical basis (deterministic)."""
    missing = np.flatnonzero(~filled)
    if missing.size == 0:
        return
    basis_idx = 0
    m = u.shape[0]
    for col in missing:
        while basis_idx < m:
            cand = np.zeros(m)
            cand[basis_idx] = 1.0
            basis_idx += 1
            cand -= u @ (u.T @ cand)
            norm = np.linalg.norm(cand)
            if norm > 1e-8:
                u[:, col] = cand / norm
                break
        else:
            raise NumericError("svd: failed to complete orthonormal basis")


@dataclass(frozen=True)
class GroupScheme:
    """Disjoint groups of matrix entries, stored as flat row-major indices.

    kind=columns: group j is column j; kind=rows: group i is row i;
    kind=concat-groups: each group spans a band of columns of a stacked
    carrier matrix (see `concat_scheme`).
    """
    kind: str
    shape: tuple
    groups: tuple = field(repr=False)

    @property
    def group_count(self) -> int:
        return len(self.groups)

    def check_matrix(self, a: np.ndarray) -> None:
        if tuple(a.shape) != self.shape:
            raise DimensionError(
                f"scheme built for shape {self.shape}, got matrix {a.shape}")


def column_scheme(rows: int, cols: int) -> GroupScheme:
    idx = np.arange(rows * cols).reshape(rows, cols)
    return GroupScheme(COLUMNS, (rows, cols),
                       tuple(np.ascontiguousarray(idx[:, j]) for j in range(cols)))


def row_scheme(rows: int, cols: int) -> GroupScheme:
    idx = np.arange(rows * cols).reshape(rows, cols)
    return GroupScheme(ROWS, (rows, cols),
                       tuple(np.ascontiguousarray(idx[i, :]) for i in range(rows)))


def concat_scheme(lead_rows: int, end_cols: int, cardinality: int, width: int) -> GroupScheme:
    """Scheme for a pair of channel-selection matrices around a grouped conv.

    The carrier is the (lead_rows + end_cols) x (cardinality*width) stack of
    the leading matrix on top of the transposed ending matrix, so cardinal
    group g collects `width` columns of the leading matrix together with the
    matching `width` rows of the ending matrix.
    """
    total_cols = cardinality * width
    shape = (lead_rows + end_cols, total_cols)
    idx = np.arange(shape[0] * shape[1]).reshape(shape)
    groups = tuple(np.ascontiguousarray(idx[:, g * width:(g + 1) * width].ravel())
                   for g in range(cardinality))
    return GroupScheme(CONCAT_GROUPS, shape, groups)


def stack_concat_pair(a_lead: np.ndarray, a_end: np.ndarray) -> np.ndarray:
    """Build the carrier matrix that `concat_scheme` indexes into."""
    a_lead = as_matrix(a_lead)
    a_end = as_matrix(a_end)
    if a_lead.shape[1] != a_end.shape[0]:
        raise DimensionError(
            f"concat pair: leading cols {a_lead.shape[1]} != ending rows {a_end.shape[0]}")
    return np.vstack([a_lead, a_end.T])


def split_concat_pair(carrier: np.ndarray, lead_rows: int):
    carrier = as_matrix(carrier)
    return carrier[:lead_rows].copy(), carrier[lead_rows:].T.copy()


def group_norms(a: np.ndarray, scheme: GroupScheme) -> np.ndarray:
    """L2 norm of each group of entries of `a`; length == scheme.group_count."""
    a = as_matrix(a)
    scheme.check_matrix(a)
    flat = a.ravel()
    return np.array([np.linalg.norm(flat[g]) for g in scheme.groups])


def scale_groups(a: np.ndarray, scheme: GroupScheme, factors: np.ndarray) -> np.ndarray:
    """Return a copy of `a` with each group multiplied by its factor."""
    a = as_matrix(a)
    scheme.check_matrix(a)
    out = a.copy()
    flat = out.ravel()
    for g, f in zip(scheme.groups, factors):
        flat[g] *= f
    return out
