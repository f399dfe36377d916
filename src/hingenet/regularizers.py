"""Group-sparsity regularizers and their closed-form proximal operators.

`prox` is the one group prox: it maps the L2 norm of each group of a
matrix through the kind's norm map (jointly over the layer for l1-l2) and
rescales the group, so only its norm shrinks (possibly to exactly zero).
The norm maps are exposed so the matrix prox is a map composed with the
unit direction by construction. `prox_l1` and the other three call it.

`prox_oracle` is an independent numeric solver for the same scalar
problems; it is the ground truth the closed forms are checked against. It
takes the regularizer kind, as `prox` does, and solves a whole batch of
(norm, step) cases in one call: a two-level grid search that skips each
interval whose chord bound (which rests on every scalar penalty being
concave) is above the best value found, yet returns the index a dense scan
returns, then ternary refinement of every case in lockstep, each case
stopping on its own bracket width.
`prox_oracle_l1_minus_2` solves a batch of coupled l1-l2 layers in one
call: six starts per layer, all descending in lockstep by unit-step
projected gradient on the joint objective alone, each start stopping on its
own tolerance. Neither oracle knows the closed form it checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import GroupScheme, NumericError, as_matrix, group_norms, scale_groups

L1 = "l1"
L_HALF = "l_half"
L1_MINUS_2 = "l1_minus_2"
LOGSUM = "logsum"
KINDS = (L1, L_HALF, L1_MINUS_2, LOGSUM)

# Per-regularizer strength defaults for full-scale training runs.
DEFAULT_LAMBDA = {L1: 2e-4, L1_MINUS_2: 2e-4, L_HALF: 4e-4, LOGSUM: 9e-5}

HALF_CUTOFF_COEFF = 54.0 ** (1.0 / 3.0) / 4.0


class DegenerateGroupsError(NumericError):
    """Every group norm is at or below the shrinkage step (l1-l2 only)."""


class ParameterError(ValueError):
    """A regularizer parameter violates its validity range."""


@dataclass(frozen=True)
class RegularizerSpec:
    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0:
            raise ParameterError("lambda must be non-negative")

    @classmethod
    def default(cls, kind: str) -> "RegularizerSpec":
        return cls(kind=kind, lam=DEFAULT_LAMBDA[kind])


def logsum_epsilon(step):
    """The logsum epsilon at shrinkage step `step` (a float or an array):
    0.5*sqrt(step), inside the (0, sqrt(step)) range the norm map needs."""
    return 0.5 * np.sqrt(step)


# --------------------------------------------------------------------------
# Scalar norm maps: new group norm as a function of the old one.
# --------------------------------------------------------------------------

def l1_norm_map(norm: float, step: float) -> float:
    """Soft thresholding: subtract `step`, clamp at zero."""
    if norm <= step:
        return 0.0
    return norm * (1.0 - step / norm)


def l_half_norm_map(norm: float, step: float) -> float:
    """Half thresholding; zero at or below (54^(1/3)/4)*step^(2/3)."""
    if step == 0.0:
        return norm
    cutoff = HALF_CUTOFF_COEFF * step ** (2.0 / 3.0)
    if norm <= cutoff:
        return 0.0
    phi = math.acos((step / 8.0) * (norm / 3.0) ** (-1.5))
    return (2.0 / 3.0) * norm * (1.0 + math.cos(2.0 * math.pi / 3.0 - (2.0 / 3.0) * phi))


def logsum_norm_map(norm: float, step: float, epsilon: float) -> float:
    """Quadratic-root shrinkage with an energy tie-break against zero.

    The positive stationary point (c1 + sqrt(c2))/2 exists whenever
    c2 > 0, but near the existence boundary it can be a local, not global,
    minimizer of the underlying scalar objective; returning it there would
    disagree with the true prox. The tie-break keeps the operator equal to
    the global argmin for every input.
    """
    if step == 0.0:
        return norm
    c1 = norm - epsilon
    c2 = c1 * c1 - 4.0 * (step - epsilon * norm)
    if c2 <= 0.0:
        return 0.0
    t = 0.5 * (c1 + math.sqrt(c2))
    if t <= 0.0:
        return 0.0
    energy_t = step * math.log1p(t / epsilon) + 0.5 * (t - norm) ** 2
    energy_0 = 0.5 * norm * norm
    return t if energy_t <= energy_0 else 0.0


def l1_minus_2_norm_map(norms: np.ndarray, step: float) -> np.ndarray:
    """Joint map over all group norms of one layer: soft-threshold each
    group, then re-expand by (1 + step/||c||) where c is the vector of
    thresholded norms. Couples the groups."""
    norms = np.asarray(norms, dtype=np.float64)
    if step == 0.0:
        return norms.copy()
    if step < 0:
        raise ParameterError("step must be non-negative")
    c = np.maximum(norms - step, 0.0)
    c_norm = math.sqrt(c.dot(c))  # np.linalg.norm's formula for a real vector
    if c_norm == 0.0:
        raise DegenerateGroupsError(
            "l1-l2 prox undefined: every group norm is <= the step")
    expand = 1.0 + step / c_norm
    shrink = [1.0 - step / n if n > step else 0.0 for n in norms.tolist()]
    return expand * np.array(shrink) * norms


# --------------------------------------------------------------------------
# Matrix-level operators.
# --------------------------------------------------------------------------

def _apply_norm_factors(a, scheme, old_norms, new_norms):
    """`a`, a matrix of `scheme`, with each group scaled by new / old norm.
    The factors are Python floats, the same IEEE quotients as numpy's; a
    zero group stays zero: its factor is 0, not 0/0."""
    return scale_groups(a, scheme, [new / old if old > 0 else 0.0
                                     for old, new in zip(old_norms, new_norms)])


def prox(a: np.ndarray, scheme: GroupScheme, kind: str, step: float) -> np.ndarray:
    """Group prox of regularizer `kind` at `step`, the full shrinkage
    strength (regularization factor times learning rate)."""
    if step < 0:
        raise ParameterError("step must be non-negative")
    a = as_matrix(a)
    norms = group_norms(a, scheme)
    old = norms.tolist()  # the scalar maps run on Python floats
    if kind == L1_MINUS_2:
        new = l1_minus_2_norm_map(norms, step).tolist()
    elif kind == LOGSUM:
        eps = float(logsum_epsilon(step))
        new = [logsum_norm_map(n, step, eps) for n in old]
    elif kind in (L1, L_HALF):
        norm_map = l1_norm_map if kind == L1 else l_half_norm_map
        new = [norm_map(n, step) for n in old]
    else:
        raise ParameterError(f"unknown regularizer kind {kind!r}")
    return _apply_norm_factors(a, scheme, old, new)


def prox_l1(a: np.ndarray, scheme: GroupScheme, step: float) -> np.ndarray:
    return prox(a, scheme, L1, step)


def prox_l_half(a: np.ndarray, scheme: GroupScheme, step: float) -> np.ndarray:
    return prox(a, scheme, L_HALF, step)


def prox_l1_minus_2(a: np.ndarray, scheme: GroupScheme, step: float) -> np.ndarray:
    return prox(a, scheme, L1_MINUS_2, step)


def prox_logsum(a: np.ndarray, scheme: GroupScheme, step: float) -> np.ndarray:
    return prox(a, scheme, LOGSUM, step)


# --------------------------------------------------------------------------
# Independent numeric oracle.
# --------------------------------------------------------------------------

ORACLE_GRID = 100_000       # grid points per scalar problem
ORACLE_REFINE_TOL = 1e-9    # bracket width at which ternary refinement stops
ORACLE_RANDOM_STARTS = 4    # random starts of the joint l1-l2 descent
ORACLE_STEP_TOL = 1e-15     # l1-l2 descent stops once no entry moves more
                            # than this times (1 + the case's largest norm)
ORACLE_MAX_ITERATIONS = 10_000  # a start still moving after this is NaN


_ORACLE_COARSE = 1000   # grid steps per interval of the search's first level
_ORACLE_FINE = 100      # grid steps per sub-interval of its second level
_ORACLE_CHUNK = 32      # cases searched together; bounds the search's buffers
_ORACLE_MARGIN = 1e-12  # relative rounding margin on an interval's bound

# Penalty and objective of the scalar oracle under the (t - x)^2 / (2*step)
# normalization. The half thresholding operator is the exact prox of
# sqrt(t)/2 under this normalization (equivalently of sqrt(t) against
# (t-x)^2/step); the /2 keeps the oracle consistent with the closed form's
# 54^(1/3)/4 cutoff. The grid search needs each penalty concave in t >= 0.
def _oracle_penalty(kind, t, epsilon):
    if kind == L1:
        return t
    if kind == L_HALF:
        return np.sqrt(t) * 0.5
    return np.log1p(t / epsilon)


def _oracle_objective(kind, t, x, step, epsilon):
    return _oracle_penalty(kind, t, epsilon) + np.square(t - x) / (2.0 * step)


def _grid_points(index, top):
    """Points `index` of np.linspace(0, top, ORACLE_GRID), bit for bit."""
    return np.where(index == ORACLE_GRID - 1, top, index * (top / (ORACLE_GRID - 1)))


def _chord_bound(ta, tb, pa, pb, x, step):
    """Lower bound of the objective on each interval [ta, tb] whose ends
    have penalties pa and pb: a concave penalty lies on or above its chord,
    so the objective is at least the chord plus the quadratic, whose
    minimum on the interval is at x - step*slope clipped to it."""
    slope = (pb - pa) / (tb - ta)
    t = np.clip(x - step * slope, ta, tb)
    return pa + slope * (t - ta) + np.square(t - x) / (2.0 * step)


def _reaching(bound, best):
    """Rows and columns of the intervals whose bound is within the rounding
    margin of their case's best value; every point of the others lies
    strictly above that value."""
    slack = _ORACLE_MARGIN * (1.0 + np.abs(best))
    return np.nonzero(bound <= (best + slack)[:, None])


def _grid_argmin(kind, x, step, epsilon, top):
    """First index of the objective's minimum over each case's grid
    np.linspace(0, top, ORACLE_GRID), as a dense scan finds it. The search
    needs the penalty concave, so that the chord bound holds on every
    interval. It evaluates the ends of the coarse intervals, then the
    sub-ends of each coarse interval whose bound can still reach the best
    value, then the inner points of each sub-interval that still can."""
    ends = np.append(np.arange(0, ORACLE_GRID - 1, _ORACLE_COARSE), ORACLE_GRID - 1)
    subs = np.arange(_ORACLE_FINE, _ORACLE_COARSE, _ORACLE_FINE)
    inside = np.arange(1, _ORACLE_FINE)
    k = np.empty(x.size, dtype=np.int64)
    for c in range(0, x.size, _ORACLE_CHUNK):
        xc, sc, ec, tc = (a[c:c + _ORACLE_CHUNK, None] for a in (x, step, epsilon, top))
        ts = _grid_points(ends, tc)
        pen = _oracle_penalty(kind, ts, ec)
        vals = pen + np.square(ts - xc) / (2.0 * sc)
        best = vals.min(axis=1)
        bound = _chord_bound(ts[:, :-1], ts[:, 1:], pen[:, :-1], pen[:, 1:], xc, sc)
        rows, cols = _reaching(bound, best)

        sub = ends[cols, None] + subs
        xr, sr, er = xc[rows], sc[rows], ec[rows]
        sub_ts = _grid_points(sub, tc[rows])
        sub_pen = _oracle_penalty(kind, sub_ts, er)
        sub_vals = sub_pen + np.square(sub_ts - xr) / (2.0 * sr)
        np.minimum.at(best, rows, sub_vals.min(axis=1))
        # each sub-interval between two of a coarse interval's 11 points
        ts = np.concatenate((ts[rows, cols, None], sub_ts, ts[rows, cols + 1, None]), axis=1)
        pen = np.concatenate((pen[rows, cols, None], sub_pen, pen[rows, cols + 1, None]), axis=1)
        bound = _chord_bound(ts[:, :-1], ts[:, 1:], pen[:, :-1], pen[:, 1:], xr, sr)
        fine, sub_cols = _reaching(bound, best[rows])

        inner = ends[cols[fine], None] + _ORACLE_FINE * sub_cols[:, None] + inside
        fine_rows = rows[fine]
        inner_vals = _oracle_objective(kind, _grid_points(inner, tc[fine_rows]),
                                       xr[fine], sr[fine], er[fine])
        np.minimum.at(best, fine_rows, inner_vals.min(axis=1))

        first = np.where(vals == best[:, None], ends, ORACLE_GRID).min(axis=1)
        for r, index, v in ((rows, sub, sub_vals), (fine_rows, inner, inner_vals)):
            np.minimum.at(first, r, np.where(v == best[r, None], index, ORACLE_GRID).min(axis=1))
        k[c:c + _ORACLE_CHUNK] = first
    return k


def prox_oracle(norms, kind: str, steps) -> np.ndarray:
    """Numerically minimize penalty(t) + (t - norm)^2/(2*step) over t >= 0,
    the penalty of regularizer `kind`, for every (norm, step) pair of the
    broadcast inputs: the first minimum over np.linspace(0, 2*norm + 1,
    ORACLE_GRID), found without a dense scan by a search that needs each
    penalty concave (`_grid_argmin`), then ternary refinement of all cases
    in lockstep. Each case takes exactly the steps it would take alone. A
    zero step returns its norm. A negative or non-finite norm or step
    anywhere in the batch is a ParameterError.

    This is the pre-build verification oracle for the scalar closed forms
    (l1, l_half, logsum). The coupled l1-l2 case needs the joint oracle
    `prox_oracle_l1_minus_2`.
    """
    x, st = np.broadcast_arrays(np.asarray(norms, dtype=np.float64),
                                np.asarray(steps, dtype=np.float64))
    if not np.all(np.isfinite(st) & (st >= 0.0)):
        raise ParameterError("step must be finite and non-negative")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise ParameterError("group norm must be finite and non-negative")
    if kind not in (L1, L_HALF, LOGSUM):
        raise ParameterError(f"no scalar oracle for kind {kind!r}")
    result = x.copy()
    active = np.flatnonzero(st > 0.0)  # a zero step leaves the norm as it is
    x, st = x.reshape(-1)[active], st.reshape(-1)[active]
    # read by the logsum objective only
    eps = logsum_epsilon(st) if kind == LOGSUM else np.ones_like(st)

    top = 2.0 * x + 1.0
    k = _grid_argmin(kind, x, st, eps, top)
    lo = _grid_points(np.maximum(k - 1, 0), top)
    hi = _grid_points(np.minimum(k + 1, ORACLE_GRID - 1), top)
    while True:
        live = hi - lo > ORACLE_REFINE_TOL
        if not live.any():
            break
        third = (hi - lo) / 3.0
        m1 = lo + third
        m2 = hi - third
        left = (_oracle_objective(kind, m1, x, st, eps)
                <= _oracle_objective(kind, m2, x, st, eps))
        hi = np.where(live & left, m2, hi)
        lo = np.where(live & ~left, m1, lo)
    result.reshape(-1)[active] = 0.5 * (lo + hi)
    return result


def _l1_minus_2_objective(t, x, step):
    """step*(sum(t) - ||t||) + 0.5*||t - x||^2 of each row of `t`."""
    return (step * (t.sum(axis=1) - np.linalg.norm(t, axis=1))
            + 0.5 * np.sum((t - x) ** 2, axis=1))


def prox_oracle_l1_minus_2(cases, steps, seeds) -> list:
    """Numerically minimize step*(sum(t) - ||t||) + 0.5*||t - x||^2 over
    t >= 0 for every case x (a vector of group norms) with its step.

    Each case has six starts: x, max(x - step, 1e-6) and four random starts
    drawn from its own seed. Every start of every case runs unit-step
    projected gradient descent in lockstep, the cases bucketed by group
    count, and leaves the loop once no entry moves by more than
    ORACLE_STEP_TOL * (1 + max(x)). A start still moving after
    ORACLE_MAX_ITERATIONS steps is NaN, and so is its case; otherwise a
    case returns the start of lowest objective. Near a minimizer t* the
    descent contracts by about step/||t*|| per iteration, so a case whose
    minimizer barely exceeds the step in norm can reach the cap. All
    operations act on a case's own rows, so its result does not depend on
    the rest of the batch. A case with a zero step returns its norms. A
    negative or non-finite norm or step anywhere in the batch is a
    ParameterError.
    """
    xs = [np.asarray(c, dtype=np.float64) for c in cases]
    steps = np.asarray(steps, dtype=np.float64)
    if not np.all(np.isfinite(steps) & (steps >= 0.0)):
        raise ParameterError("step must be finite and non-negative")
    if not all(np.all(np.isfinite(x) & (x >= 0.0)) for x in xs):
        raise ParameterError("group norm must be finite and non-negative")
    result = [x.copy() for x in xs]
    buckets = {}
    for i, x in enumerate(xs):
        if steps[i] > 0.0:
            buckets.setdefault(x.size, []).append(i)

    starts_per_case = 2 + ORACLE_RANDOM_STARTS
    for size, members in buckets.items():
        xm, sm = np.array([xs[i] for i in members]), steps[members]
        noise = np.array([np.random.default_rng(seeds[i]).normal(
            0.0, 0.3 + 0.3 * steps[i], (ORACLE_RANDOM_STARTS, size)) for i in members])
        # each case's starts in a row: x, max(x - step, 1e-6), the random ones
        t = np.concatenate((xm[:, None], np.maximum(xm - sm[:, None], 1e-6)[:, None],
                            np.abs(xm[:, None] + noise)), axis=1).reshape(-1, size)
        x = np.repeat(xm, starts_per_case, axis=0)
        step = np.repeat(sm, starts_per_case)

        # the live starts' rows, filtered only when a start stops
        live = np.arange(len(t))
        cur, x_live, step_live = t, x, step[:, None]
        tol = ORACLE_STEP_TOL * (1.0 + x.max(axis=1))
        for _ in range(ORACLE_MAX_ITERATIONS):
            if live.size == 0:
                break
            norm = np.sqrt(np.add.reduce(cur * cur, axis=1))[:, None]  # as np.linalg.norm
            direction = cur / np.where(norm > 0, norm, np.inf)  # 0 for a zero row
            new = np.maximum(cur - (step_live * (1.0 - direction) + (cur - x_live)), 0.0)
            going = np.abs(new - cur).max(axis=1) > tol
            if not going.all():
                t[live[~going]] = new[~going]
                live, new, x_live, step_live, tol = (
                    a[going] for a in (live, new, x_live, step_live, tol))
            cur = new
        t[live] = np.nan

        # argmin returns the first NaN, so an unconverged start fails its case
        objective = _l1_minus_2_objective(t, x, step).reshape(len(members), -1)
        best = np.argmin(objective, axis=1)
        for k, i in enumerate(members):
            result[i] = t[k * starts_per_case + best[k]]
    return result
