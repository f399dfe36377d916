"""Self-contained verification suites: closed-form prox vs numeric oracle,
analytic gradients vs central finite differences, and compaction
equivalence. The CLI exposes them; the test suite reuses them."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import compaction, hinge, losses, net, regularizers
from .cost import compression_ratio
from .linalg import group_norms, row_scheme
from .regularizers import RegularizerSpec


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    cases: int
    failures: list = field(default_factory=list)  # reproduction inputs

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        out = (f"{self.name}: {status} (cases={self.cases}, "
               f"max deviation {self.max_deviation:.3e}, tolerance {self.tolerance:g})")
        for f in self.failures[:5]:
            out += f"\n  failing case: {f}"
        return out


# --------------------------------------------------------------------------
# Prox suite.
# --------------------------------------------------------------------------

def _random_group_matrix(rng, norm):
    """A 1 x d matrix whose single row-group has the requested norm."""
    d = int(rng.integers(2, 7))
    v = rng.normal(size=d)
    v *= norm / np.linalg.norm(v)
    return v[None, :]


def prox_suite(cases: int = 1000, seed: int = 2024, tol: float = 1e-6) -> list:
    """Per regularizer: random (group, step) draws; the matrix prox output
    norm must match the independent scalar oracle. The coupled l1-l2
    operator is checked jointly on random 2-8 group layers."""
    rng = np.random.default_rng(seed)
    results = []

    scalar_kinds = (
        ("prox_l1", regularizers.L1, lambda a, s, st: regularizers.prox_l1(a, s, st)),
        ("prox_l_half", regularizers.L_HALF,
         lambda a, s, st: regularizers.prox_l_half(a, s, st)),
        ("prox_logsum", regularizers.LOGSUM,
         lambda a, s, st: regularizers.prox_logsum(a, s, st)),
    )
    for name, kind, op in scalar_kinds:
        worst = 0.0
        failures = []
        for _ in range(cases):
            step = float(rng.uniform(0.01, 2.0))
            norm = float(rng.uniform(0.0, 4.0) * math.sqrt(step))
            a = _random_group_matrix(rng, norm)
            scheme = row_scheme(1, a.shape[1])
            spec = RegularizerSpec(kind, lam=1.0)
            got = float(np.linalg.norm(op(a, scheme, step)))
            want = regularizers.prox_oracle(norm, spec, step)
            dev = abs(got - want)
            if dev > worst:
                worst = dev
            if dev > tol:
                failures.append({"regularizer": name, "group_norm": norm,
                                 "step": step, "closed_form": got, "oracle": want})
        results.append(SuiteResult(name, not failures, worst, tol, cases, failures))

    worst = 0.0
    failures = []
    for _ in range(cases):
        g = int(rng.integers(2, 9))
        step = float(rng.uniform(0.05, 1.0))
        norms = rng.uniform(0.0, 3.0, g) * math.sqrt(step)
        if np.max(norms) <= step:
            norms[int(rng.integers(g))] = step * float(rng.uniform(1.5, 3.0))
        a = np.zeros((g, 6))
        for i, nm in enumerate(norms):
            row = rng.normal(size=6)
            a[i] = row * (nm / np.linalg.norm(row))
        scheme = row_scheme(g, 6)
        got = group_norms(regularizers.prox_l1_minus_2(a, scheme, step), scheme)
        want = regularizers.prox_oracle_l1_minus_2(group_norms(a, scheme), step,
                                                   seed=int(rng.integers(2 ** 31)))
        dev = float(np.max(np.abs(got - want)))
        if dev > worst:
            worst = dev
        if dev > tol:
            failures.append({"regularizer": "prox_l1_minus_2",
                             "group_norms": norms.tolist(), "step": step,
                             "closed_form": got.tolist(), "oracle": want.tolist()})
    results.append(SuiteResult("prox_l1_minus_2", not failures, worst, tol,
                               cases, failures))
    return results


# --------------------------------------------------------------------------
# Gradient suite.
# --------------------------------------------------------------------------

def finite_difference_check(model, x, y, loss_fn, rng, samples_per_param: int = 3,
                            h: float = 1e-5):
    """Relative deviation between analytic gradients and central differences
    for randomly sampled entries of every parameter tensor."""
    model.zero_grads()
    logits = model.forward(x)
    _, dlogits = loss_fn(logits)
    model.backward(dlogits)

    worst = 0.0
    worst_param = None
    for name, kind, layer, attr in model.params():
        p = getattr(layer, attr)
        analytic = getattr(layer, f"grad_{attr}")
        flat = p.reshape(-1)
        aflat = analytic.reshape(-1)
        count = min(samples_per_param, flat.size)
        for idx in rng.choice(flat.size, size=count, replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_fn(model.forward(x, cache=False))
            flat[idx] = orig - h
            lm, _ = loss_fn(model.forward(x, cache=False))
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(aflat[idx] - fd) / (abs(aflat[idx]) + 1e-8)
            if rel > worst:
                worst = rel
                worst_param = (name, int(idx))
    return worst, worst_param


def grad_suite(seed: int = 7, tol: float = 1e-4) -> list:
    """Finite differences over every layer type: plain conv (stem and skip
    projection), both hinged convs of a residual pair, a pruned plain
    block, the linear head, and both loss functions."""
    rng = np.random.default_rng(seed)
    arch = net.ArchSpec(2, 8, 8, 3, 4,
                        (net.BlockDef("basic", 4, 1), net.BlockDef("basic", 6, 2)))
    model = net.build_network(arch, seed=seed)
    model.stem.needs_input_grad = True
    net.attach_hinges(model, init="svd")
    x = rng.normal(size=(4, 2, 8, 8))
    y = rng.integers(0, 3, size=4)

    results = []
    worst, which = finite_difference_check(
        model, x, y, lambda lg: losses.cross_entropy(lg, y), rng, samples_per_param=4)
    results.append(SuiteResult("grad_cross_entropy", worst <= tol, worst, tol, 1,
                               [] if worst <= tol else [{"param": which}]))

    teacher_logits = rng.normal(size=(4, 3))
    cfg = losses.DistillConfig(0.4, 4.0)
    worst, which = finite_difference_check(
        model, x, y, lambda lg: losses.distill_loss(lg, teacher_logits, y, cfg),
        rng, samples_per_param=4)
    results.append(SuiteResult("grad_distill", worst <= tol, worst, tol, 1,
                               [] if worst <= tol else [{"param": which}]))

    # plain pruned chain exercises column-group hinges
    arch2 = net.ArchSpec(1, 8, 8, 3, 4, (net.BlockDef("plain", 5),))
    model2 = net.build_network(arch2, seed=seed + 1)
    net.attach_hinges(model2, init="identity")
    x2 = rng.normal(size=(4, 1, 8, 8))
    y2 = rng.integers(0, 3, size=4)
    worst, which = finite_difference_check(
        model2, x2, y2, lambda lg: losses.cross_entropy(lg, y2), rng,
        samples_per_param=4)
    results.append(SuiteResult("grad_plain_chain", worst <= tol, worst, tol, 1,
                               [] if worst <= tol else [{"param": which}]))
    return results


# --------------------------------------------------------------------------
# Equivalence suite.
# --------------------------------------------------------------------------

def random_masked_model(rng) -> net.Network:
    """A small random architecture with random (legal) masks applied."""
    draw = rng.random()
    if draw < 0.4:
        blocks = tuple(net.BlockDef("plain", int(rng.integers(4, 9)))
                       for _ in range(int(rng.integers(1, 4))))
    elif draw < 0.8:
        blocks = (net.BlockDef("basic", int(rng.integers(4, 9)), 1),
                  net.BlockDef("basic", int(rng.integers(6, 12)), int(rng.integers(1, 3))))
    else:
        # plain feeding an identity-skip block: the plain conv is forced
        # to row groups so the skip's input channels survive
        ch = int(rng.integers(4, 9))
        blocks = (net.BlockDef("plain", ch), net.BlockDef("basic", ch, 1))
    arch = net.ArchSpec(int(rng.integers(1, 4)), 8, 8, int(rng.integers(2, 5)),
                        int(rng.integers(4, 9)), blocks)
    model = net.build_network(arch, seed=int(rng.integers(2 ** 31)))
    init = hinge.SVD_INIT if rng.random() < 0.5 else hinge.IDENTITY_INIT
    first = "rows" if rng.random() < 0.5 else "columns"
    plain = "columns" if rng.random() < 0.5 else "rows"
    net.attach_hinges(model, init=init, first_kind=first, plain_kind=plain)
    for _, layer in model.hinged_layers():
        g = layer.scheme.group_count
        mask = rng.random(g) > rng.uniform(0.2, 0.7)
        if not mask.any():
            mask[int(rng.integers(g))] = True
        layer.mask = mask
        layer.apply_mask()
    return model


def equivalence_suite(cases: int = 100, seed: int = 11, tol: float = 1e-10,
                      gamma_tol: float = 1e-12) -> list:
    """Random masked models: compacted forward must match the masked
    forward within `tol`, and the compacted report's gamma must equal the
    hypothetical compression ratio."""
    rng = np.random.default_rng(seed)
    worst_dev = 0.0
    worst_gamma = 0.0
    failures = []
    for case in range(cases):
        model = random_masked_model(rng)
        hypothetical = compression_ratio(model, None)
        compact_model = compaction.compact(model)
        dev = compaction.verify_equivalence(model, compact_model.network,
                                            n_inputs=8, seed=int(rng.integers(2 ** 31)))
        gdev = abs(compact_model.report.gamma - hypothetical)
        worst_dev = max(worst_dev, dev)
        worst_gamma = max(worst_gamma, gdev)
        if dev > tol or gdev > gamma_tol:
            failures.append({"case": case, "deviation": dev, "gamma_dev": gdev,
                             "arch": str(model.arch)})
    return [SuiteResult("compaction_equivalence", worst_dev <= tol, worst_dev,
                        tol, cases, failures),
            SuiteResult("compaction_gamma", worst_gamma <= gamma_tol, worst_gamma,
                        gamma_tol, cases, [])]


def run_suites(which: str = "all", **kwargs) -> list:
    results = []
    if which in ("all", "prox"):
        results += prox_suite(**kwargs.get("prox", {}))
    if which in ("all", "grad"):
        results += grad_suite(**kwargs.get("grad", {}))
    if which in ("all", "equiv"):
        results += equivalence_suite(**kwargs.get("equiv", {}))
    return results
