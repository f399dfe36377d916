import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hingenet import regularizers as reg
from hingenet import verify
from hingenet.linalg import COLUMNS, ROWS, GroupScheme, group_norms
from hingenet.regularizers import (DegenerateGroupsError, ParameterError,
                                   RegularizerSpec, prox_l1, prox_l1_minus_2,
                                   prox_l_half, prox_logsum, prox_oracle,
                                   prox_oracle_l1_minus_2)

HALF_CUTOFF = 54.0 ** (1.0 / 3.0) / 4.0  # = 0.9449407874211548


def group_matrix(rng, norms, width=5):
    """Rows are groups with the requested L2 norms."""
    norms = np.atleast_1d(np.asarray(norms, float))
    a = np.zeros((norms.size, width))
    for i, n in enumerate(norms):
        row = rng.normal(size=width)
        a[i] = row * (n / np.linalg.norm(row)) if n > 0 else 0.0
    return a, GroupScheme(ROWS, (norms.size, width))


class TestProxL1:
    def test_zero_step_identity(self, rng):
        a, scheme = group_matrix(rng, [1.0, 2.0])
        assert np.array_equal(prox_l1(a, scheme, 0.0), a)

    def test_scale_at_norm5(self, rng):
        a, scheme = group_matrix(rng, [5.0])
        out = prox_l1(a, scheme, 1.0)
        assert np.abs(out - 0.8 * a).max() <= 1e-12

    def test_below_threshold_zeroed(self, rng):
        a, scheme = group_matrix(rng, [0.5])
        assert np.all(prox_l1(a, scheme, 1.0) == 0.0)

    def test_cutoff_exactly_at_step(self, rng):
        a, scheme = group_matrix(rng, [1.0])
        assert np.all(prox_l1(a, scheme, 1.0) == 0.0)
        out = group_norms(prox_l1(a * (1 + 1e-9), scheme, 1.0), scheme)
        assert out[0] > 0.0


class TestProxLHalf:
    def test_zero_step_identity(self, rng):
        a, scheme = group_matrix(rng, [0.3, 3.0])
        assert np.array_equal(prox_l_half(a, scheme, 0.0), a)

    def test_nullification_cutoff(self, rng):
        # at step 1 the cutoff is 54^(1/3)/4
        a_below, scheme = group_matrix(rng, [HALF_CUTOFF - 1e-9])
        assert np.all(prox_l_half(a_below, scheme, 1.0) == 0.0)
        a_above, scheme = group_matrix(rng, [HALF_CUTOFF + 1e-6])
        assert group_norms(prox_l_half(a_above, scheme, 1.0), scheme)[0] > 0.5

    def test_scale_at_norm3(self, rng):
        # frozen from the numeric prox oracle (grid + ternary refinement)
        a, scheme = group_matrix(rng, [3.0])
        out = group_norms(prox_l_half(a, scheme, 1.0), scheme)
        assert abs(out[0] - 2.851963773464224) <= 1e-9
        assert abs(out[0] / 3.0 - 0.9506545911547413) <= 1e-9


class TestProxL1Minus2:
    def test_zero_step_identity(self, rng):
        a, scheme = group_matrix(rng, [1.0, 2.0])
        assert np.array_equal(prox_l1_minus_2(a, scheme, 0.0), a)

    def test_two_groups_34(self, rng):
        a, scheme = group_matrix(rng, [3.0, 4.0])
        out = prox_l1_minus_2(a, scheme, 1.0)
        expand = 1.0 + 1.0 / np.sqrt(13.0)
        factors = group_norms(out, scheme) / np.array([3.0, 4.0])
        assert np.abs(factors - expand * np.array([2.0 / 3.0, 3.0 / 4.0])).max() <= 1e-12
        # frozen from the joint descent oracle
        assert np.abs(factors - np.array([0.85156673, 0.95801257])).max() <= 1e-7

    def test_single_group_reexpands_to_identity(self, rng):
        a, scheme = group_matrix(rng, [2.0])
        out = prox_l1_minus_2(a, scheme, 1.0)
        assert np.abs(out - a).max() <= 1e-12  # (1 + 1/1) * (1/2) == 1

    def test_degenerate_all_below(self, rng):
        a, scheme = group_matrix(rng, [0.3, 0.5])
        with pytest.raises(DegenerateGroupsError):
            prox_l1_minus_2(a, scheme, 1.0)


class TestProxLogsum:
    def test_example_norm3(self, rng):
        a, scheme = group_matrix(rng, [3.0])
        out = group_norms(prox_logsum(a, scheme, 1.0), scheme)  # epsilon 0.5
        want = (2.5 + np.sqrt(8.25)) / 2.0  # = 2.686140661634507
        assert abs(out[0] - want) <= 1e-12
        assert abs(out[0] / 3.0 - 0.8953802205448357) <= 1e-12

    def test_small_group_zeroed(self, rng):
        a, scheme = group_matrix(rng, [0.05])
        assert np.all(prox_logsum(a, scheme, 1.0) == 0.0)

    def test_step_to_zero_is_continuous(self, rng):
        a, scheme = group_matrix(rng, [2.0])
        out = group_norms(prox_logsum(a, scheme, 1e-8), scheme)
        assert abs(out[0] / 2.0 - 1.0) <= 1e-7

    def test_epsilon_validation(self):
        # the derived epsilon lies in (0, sqrt(step)), which the norm map
        # needs, for every positive step down to the smallest subnormal
        steps = np.concatenate([[5e-324, 1e-300], 10.0 ** np.arange(-12.0, 13.0)])
        eps = reg.logsum_epsilon(steps)
        assert np.all((eps > 0.0) & (eps < np.sqrt(steps)))

    def test_default_epsilon_tracks_step(self, rng):
        assert reg.logsum_epsilon(0.04) == pytest.approx(0.1)
        steps = rng.uniform(0.0, 2.0, 50)  # the oracle's array form, the prox's float form
        assert np.array_equal(reg.logsum_epsilon(steps),
                              [0.5 * math.sqrt(s) for s in steps.tolist()])

    def test_zero_step_identity(self, rng):
        a, scheme = group_matrix(rng, [0.3, 3.0])
        assert np.array_equal(prox_logsum(a, scheme, 0.0), a)


class TestRegularizerValue:
    def test_default_factors_per_kind(self):
        assert RegularizerSpec.default("l1").lam == 2e-4
        assert RegularizerSpec.default("l1_minus_2").lam == 2e-4
        assert RegularizerSpec.default("l_half").lam == 4e-4
        assert RegularizerSpec.default("logsum").lam == 9e-5


class TestProxOracle:
    def test_l1_case(self):
        assert abs(prox_oracle(5.0, "l1", 1.0) - 4.0) <= 1e-6

    def test_l_half_below_cutoff(self):
        assert prox_oracle(0.9, "l_half", 1.0) <= 1e-6

    @pytest.mark.parametrize("norm,step", [
        (1.0, -0.5), (1.0, np.nan), (1.0, np.inf),
        (-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.5)])
    def test_bad_input_rejected(self, norm, step):
        with pytest.raises(ParameterError):
            prox_oracle(norm, "l1", step)
        with pytest.raises(ParameterError):  # anywhere in a batch
            prox_oracle([2.0, norm, 3.0], "l1", [0.5, step, 1.0])

    def test_coupled_kind_rejected(self):
        # the coupled l1-l2 case has its own oracle; a zero step is no way round
        for step in (1.0, 0.0):
            with pytest.raises(ParameterError, match="no scalar oracle"):
                prox_oracle(2.0, "l1_minus_2", step)

    def test_logsum_epsilon_checked_per_entry(self):
        # each entry's epsilon is 0.5*sqrt of its own step
        norms, steps = [1.0, 2.0, 3.0], [1.0, 0.25, 1e-4]
        got = prox_oracle(norms, "logsum", steps)
        want = [reg.logsum_norm_map(x, s, 0.5 * math.sqrt(s)) for x, s in zip(norms, steps)]
        assert np.abs(got - want).max() <= 1e-6

    @pytest.mark.parametrize("kind", ["l1", "l_half", "logsum"])
    def test_batch_equals_single_calls(self, rng, kind):
        steps = rng.uniform(0.01, 2.0, 50)
        norms = rng.uniform(0.0, 4.0, 50) * np.sqrt(steps)
        norms[::7] = 0.0
        steps[3::11] = 0.0
        batch = prox_oracle(norms, kind, steps)
        singles = np.array([prox_oracle(n, kind, s) for n, s in zip(norms, steps)])
        assert batch.shape == (50,)
        assert np.array_equal(batch, singles)
        assert np.array_equal(batch[steps == 0.0], norms[steps == 0.0])


def dense_prox_oracle(norms, kind, steps):
    """The scalar prox oracle with a dense grid scan: the first argmin over
    every point of np.linspace(0, 2x+1, ORACLE_GRID), then the oracle's
    ternary refinement of all cases in lockstep."""
    x, st = np.asarray(norms, float), np.asarray(steps, float)
    eps = 0.5 * np.sqrt(st) if kind == "logsum" else np.ones_like(st)

    def objective(t, x, st, eps):
        if kind == "l1":
            penalty = t
        elif kind == "l_half":
            penalty = np.sqrt(t) * 0.5
        else:
            penalty = np.log1p(t / eps)
        return penalty + np.square(t - x) / (2.0 * st)

    lo, hi = np.empty_like(x), np.empty_like(x)
    for i in range(x.size):
        ts = np.linspace(0.0, 2.0 * x[i] + 1.0, reg.ORACLE_GRID)
        k = int(np.argmin(objective(ts, x[i], st[i], eps[i])))
        lo[i], hi[i] = ts[max(k - 1, 0)], ts[min(k + 1, reg.ORACLE_GRID - 1)]
    while True:
        live = hi - lo > reg.ORACLE_REFINE_TOL
        if not live.any():
            return 0.5 * (lo + hi)
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        left = objective(m1, x, st, eps) <= objective(m2, x, st, eps)
        hi = np.where(live & left, m2, hi)
        lo = np.where(live & ~left, m1, lo)


@pytest.fixture(scope="module")
def suite_batches():
    """The scalar oracle batches of verify.prox_suite (seed 2024), by kind."""
    solve, batches = reg.prox_oracle, {}

    def recording(norms, kind, steps):
        batches[kind] = (np.array(norms), np.array(steps))
        return solve(norms, kind, steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reg, "prox_oracle", recording)
        verify.prox_suite()
    return batches


SCALAR_KINDS = ["l1", "l_half", "logsum"]


class TestProxOracleBoundedSearch:
    """The bounded grid search must return what a dense scan returns."""

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_suite_draws_equal_dense_scan(self, suite_batches, kind):
        norms, steps = suite_batches[kind]
        assert norms.size == 1000
        assert np.array_equal(prox_oracle(norms, kind, steps),
                              dense_prox_oracle(norms, kind, steps))

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_extreme_draws_equal_dense_scan(self, kind):
        rng = np.random.default_rng(77)
        steps = 10.0 ** rng.uniform(-6.0, 2.0, 300)
        norms = rng.uniform(0.0, 6.0, 300) * np.sqrt(steps)
        norms[::10] = 0.0
        norms[1::10] = 6.0 * np.sqrt(steps[1::10])
        assert np.array_equal(prox_oracle(norms, kind, steps),
                              dense_prox_oracle(norms, kind, steps))

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_grid_argmin_equals_dense_scan_up_to_the_last_point(self, rng, kind):
        # prox_oracle's grid ends at 2x + 1, past every minimizer; a shorter
        # grid puts the minimum at its end, the last grid point included
        steps = 10.0 ** rng.uniform(-6.0, 0.0, 60)
        norms = rng.uniform(0.5, 6.0, 60) * np.sqrt(steps)
        tops = norms * np.concatenate([rng.uniform(0.05, 0.5, 30), rng.uniform(0.5, 3.0, 30)])
        eps = 0.5 * np.sqrt(steps)
        got = reg._grid_argmin(kind, norms, steps, eps, tops)
        want = [np.argmin(reg._oracle_objective(kind, np.linspace(0.0, top, reg.ORACLE_GRID),
                                                x, st, e))
                for x, st, e, top in zip(norms, steps, eps, tops)]
        assert np.array_equal(got, want)
        assert np.count_nonzero(got == reg.ORACLE_GRID - 1) >= 20

    def test_chord_bound_never_exceeds_the_objective(self):
        rng = np.random.default_rng(79)
        last = reg.ORACLE_GRID - 1
        for case in range(300):
            kind = SCALAR_KINDS[rng.integers(3)]
            step = 10.0 ** rng.uniform(-8.0, 3.0)
            norm = 0.0 if case % 7 == 0 else rng.uniform(0.0, 6.0) * np.sqrt(step)
            eps = np.sqrt(step) / (1.0 + 10.0 ** rng.uniform(-12.0, -3.0))
            top = 2.0 * norm + 1.0
            coarse = rng.integers(0, last, 2) // reg._ORACLE_COARSE * reg._ORACLE_COARSE
            fine = rng.integers(0, last, 2) // reg._ORACLE_FINE * reg._ORACLE_FINE
            for a, width in [(last - last % reg._ORACLE_COARSE, reg._ORACLE_COARSE),
                             (last - last % reg._ORACLE_FINE, reg._ORACLE_FINE),
                             *((a, reg._ORACLE_COARSE) for a in coarse),
                             *((a, reg._ORACLE_FINE) for a in fine)]:
                ts = reg._grid_points(np.arange(a, min(a + width, last) + 1), top)
                pen = reg._oracle_penalty(kind, ts[[0, -1]], eps)
                bound = reg._chord_bound(ts[0], ts[-1], pen[0], pen[-1], norm, step)
                low = reg._oracle_objective(kind, ts, norm, step, eps).min()
                assert bound <= low, (kind, step, norm, eps, a, width)

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_evaluation_budget(self, suite_batches, kind, monkeypatch):
        norms, steps = suite_batches[kind]
        penalty, evaluated = reg._oracle_penalty, []

        def counting(kind, t, epsilon):
            evaluated.append(np.size(t))
            return penalty(kind, t, epsilon)
        monkeypatch.setattr(reg, "_oracle_penalty", counting)
        prox_oracle(norms, kind, steps)
        # 1 % of each case's grid, the ternary refinement included
        assert sum(evaluated) <= norms.size * reg.ORACLE_GRID // 100

    @pytest.mark.parametrize("kind", SCALAR_KINDS)
    def test_peak_memory_bounded(self, suite_batches, kind):
        # a dense scan holds three 100 000-point buffers (3.2 MiB measured)
        norms, steps = suite_batches[kind]
        tracemalloc.start()
        try:
            prox_oracle(norms, kind, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


def l1_minus_2_objective(t, x, step):
    return step * (t.sum() - np.linalg.norm(t)) + 0.5 * np.sum((t - x) ** 2)


def l1_minus_2_by_support_enumeration(x, step):
    """Exact minimum of the l1-l2 prox objective over t >= 0.

    A minimizer is zero off its support S and stationary on it:
    t_i * (1 - step/r) = x_i - step with r = ||t_S||. For r > step this gives
    t_S = (x_S - step) * (1 + step/||x_S - step||), feasible when every
    x_i > step. For r < step it gives t_S = (step - x_S) * r/(step - r) with
    r = step - ||step - x_S||, feasible when every x_i < step and
    ||step - x_S|| < step; a singleton carries no penalty, so there it is
    t_i = x_i. r == step needs every x_i == step, which random draws miss.
    The feasible stationary point of lowest objective is the minimum.
    """
    candidates = [np.zeros_like(x)]
    for size in range(1, x.size + 1):
        for support in map(list, itertools.combinations(range(x.size), size)):
            xs = x[support]
            if size == 1:
                points = [xs]
            else:
                points = []
                if np.all(xs > step):
                    points.append((xs - step) * (1.0 + step / np.linalg.norm(xs - step)))
                gap = np.linalg.norm(step - xs)
                if np.all(xs < step) and gap < step:
                    points.append((step - xs) * (step - gap) / gap)
            for point in points:
                t = np.zeros_like(x)
                t[support] = point
                candidates.append(t)
    return min(candidates, key=lambda t: l1_minus_2_objective(t, x, step))


def l1_minus_2_starts(x, step, seed):
    rng = np.random.default_rng(seed)
    return [x, np.maximum(x - step, 1e-6)] + [
        np.abs(x + rng.normal(0.0, 0.3 + 0.3 * step, x.shape)) for _ in range(4)]


class TestProxOracleL1Minus2:
    @pytest.mark.parametrize("norm,step,message", [
        (1.0, -0.5, "step"), (1.0, np.nan, "step"), (1.0, np.inf, "step"),
        (-1.0, 0.5, "group norm"), (np.nan, 0.5, "group norm"),
        (np.inf, 0.5, "group norm")])
    def test_bad_input_rejected(self, norm, step, message):
        wording = f"^{message} must be finite and non-negative$"
        with pytest.raises(ParameterError, match=wording):
            prox_oracle_l1_minus_2([[2.0, norm]], [step], [0])
        with pytest.raises(ParameterError, match=wording):  # anywhere in a batch
            prox_oracle_l1_minus_2([[1.0, 2.0], [2.0, 3.0, norm], [3.0, 1.0]],
                                   [0.5, step, 1.0], [0, 1, 2])

    def test_zero_step_returns_norms(self):
        out = prox_oracle_l1_minus_2([[3.0, 4.0], [0.5, 2.0, 1.0]], [0.0, 1.0], [0, 1])
        assert np.array_equal(out[0], [3.0, 4.0])
        assert np.abs(out[1] - [0.0, 2.0, 0.0]).max() <= 1e-12

    def test_matches_support_enumeration(self):
        rng = np.random.default_rng(99)
        cases, steps, seeds = [], [], []
        for _ in range(200):
            g = int(rng.integers(2, 9))
            step = float(rng.uniform(0.05, 1.0))
            norms = rng.uniform(0.0, 3.0, g) * np.sqrt(step)
            if norms.max() <= step:
                norms[int(rng.integers(g))] = step * float(rng.uniform(1.5, 3.0))
            cases.append(norms)
            steps.append(step)
            seeds.append(int(rng.integers(2 ** 31)))
        want = [l1_minus_2_by_support_enumeration(x, s) for x, s in zip(cases, steps)]
        got = prox_oracle_l1_minus_2(cases, steps, seeds)
        assert max(np.abs(o - w).max() for o, w in zip(got, want)) <= 1e-12
        closed = [reg.l1_minus_2_norm_map(x, s) for x, s in zip(cases, steps)]
        assert max(np.abs(c - w).max() for c, w in zip(closed, want)) <= 1e-12

    def test_batch_changes_no_case(self, monkeypatch):
        solve = reg.prox_oracle_l1_minus_2
        batches = []

        def recording(cases, steps, seeds):
            batches.append((cases, steps, seeds, solve(cases, steps, seeds)))
            return batches[-1][-1]
        monkeypatch.setattr(reg, "prox_oracle_l1_minus_2", recording)
        verify.prox_suite()
        [(cases, steps, seeds, batch)] = batches
        assert len(batch) == 1000
        for x, step, seed, t in zip(cases, steps, seeds, batch):
            assert np.array_equal(solve([x], [step], [seed])[0], t)
            assert all(l1_minus_2_objective(t, x, step) <= l1_minus_2_objective(t0, x, step)
                       for t0 in l1_minus_2_starts(x, step, seed))

    def test_unconverged_start_fails_its_case(self, monkeypatch):
        monkeypatch.setattr(reg, "ORACLE_MAX_ITERATIONS", 1)
        [out] = prox_oracle_l1_minus_2([[3.0, 4.0]], [1.0], [0])
        assert out.shape == (2,) and np.all(np.isnan(out))
        by_name = {r.name: r for r in verify.prox_suite(cases=5, seed=0)}
        assert not by_name["prox_l1_minus_2"].passed
        assert np.isnan(by_name["prox_l1_minus_2"].max_deviation)


KINDS_AND_OPS = [
    ("l1", prox_l1),
    ("l_half", prox_l_half),
    ("logsum", lambda a, s, st: prox_logsum(a, s, st)),
]


class TestProperties:
    @pytest.mark.parametrize("kind,op", KINDS_AND_OPS)
    def test_closed_form_matches_oracle(self, rng, kind, op):
        steps, norms, got = np.empty(150), np.empty(150), np.empty(150)
        for i in range(150):
            steps[i] = rng.uniform(0.01, 2.0)
            norms[i] = rng.uniform(0.0, 4.0) * np.sqrt(steps[i])
            a, scheme = group_matrix(rng, [norms[i]])
            got[i] = group_norms(op(a, scheme, float(steps[i])), scheme)[0]
        want = prox_oracle(norms, kind, steps)
        assert np.abs(got - want).max() <= 1e-6

    def test_l1_minus_2_matches_joint_oracle(self, rng):
        cases, steps, seeds, got = [], [], [], []
        for _ in range(60):
            g = int(rng.integers(2, 9))
            step = float(rng.uniform(0.05, 1.0))
            norms = rng.uniform(0.0, 3.0, g) * np.sqrt(step)
            if norms.max() <= step:
                norms[0] = 2.0 * step
            a, scheme = group_matrix(rng, norms)
            got.append(group_norms(prox_l1_minus_2(a, scheme, step), scheme))
            cases.append(norms)
            steps.append(step)
            seeds.append(int(rng.integers(2 ** 31)))
        want = prox_oracle_l1_minus_2(cases, steps, seeds)
        assert max(np.abs(c - o).max() for c, o in zip(got, want)) <= 1e-6

    @pytest.mark.parametrize("kind,op", KINDS_AND_OPS + [
        ("l1_minus_2", lambda a, s, st: prox_l1_minus_2(a, s, st))])
    def test_direction_preserved(self, rng, kind, op):
        # vector prox == scalar prox of the norm times the unit direction
        for _ in range(200):
            step = float(rng.uniform(0.01, 1.5))
            norm = float(rng.uniform(0.05, 3.0))
            a, scheme = group_matrix(rng, [norm] if kind != "l1_minus_2"
                                     else [norm, 2.0 * step + norm])
            out = op(a, scheme, step)
            new_norms = group_norms(out, scheme)
            rebuilt = a * (new_norms / group_norms(a, scheme))[:, None]
            assert np.abs(out - rebuilt).max() <= 1e-12

    @pytest.mark.parametrize("kind,op", KINDS_AND_OPS)
    def test_monotone_in_input_norm(self, rng, kind, op):
        step = 0.7
        norms = np.sort(rng.uniform(0.0, 4.0, 60))
        outs = []
        for n in norms:
            a, scheme = group_matrix(rng, [n])
            outs.append(group_norms(op(a, scheme, step), scheme)[0])
        assert np.all(np.diff(outs) >= -1e-12)

    @pytest.mark.parametrize("kind", [COLUMNS, ROWS])
    def test_norm_factors_equal_the_masked_division(self, rng, kind):
        # every (old, new) pairing of zero, subnormal, finite and non-finite norms
        values = np.array([0.0, 5e-324, 0.7, 3.0, np.inf, np.nan])
        old, new = (v.ravel() for v in np.meshgrid(values, values))
        scheme = GroupScheme(kind, (old.size, 3) if kind == ROWS else (3, old.size))
        a = rng.normal(size=scheme.shape)
        want = np.ones_like(old)
        nz = old > 0
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            want[nz] = new[nz] / old[nz]
            want[~nz] = 0.0
            got = reg._apply_norm_factors(a, scheme, old, new)
            assert np.array_equal(got, a * np.expand_dims(want, scheme.axis), equal_nan=True)

    @pytest.mark.parametrize("kind,op", KINDS_AND_OPS)
    def test_zero_group_stays_zero(self, rng, kind, op):
        a, scheme = group_matrix(rng, [0.0, 2.0])
        out = op(a, scheme, 0.5)
        assert np.all(out[0] == 0.0)

    def test_zero_group_stays_zero_l1_minus_2(self, rng):
        a, scheme = group_matrix(rng, [0.0, 2.0])
        out = prox_l1_minus_2(a, scheme, 0.5)
        assert np.all(out[0] == 0.0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        RegularizerSpec("l3", 1.0)
    with pytest.raises(ParameterError):
        RegularizerSpec("l1", -1.0)


def test_prox_rejects_unknown_kind(rng):
    # no kind falls through to another's map
    a, scheme = group_matrix(rng, [2.0, 0.5])
    with pytest.raises(ParameterError, match="unknown regularizer kind 'bogus'"):
        reg.prox(a, scheme, "bogus", 1.0)
