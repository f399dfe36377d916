"""Self-contained verification suites: closed-form prox vs numeric oracle,
analytic gradients vs central finite differences, and compaction
equivalence. The CLI exposes them; the test suite reuses them."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import compaction, hinge, losses, net, regularizers
from .cost import compression_ratio
from .linalg import ROWS, GroupScheme, group_norms


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
    v *= norm / math.sqrt(v.dot(v))  # np.linalg.norm(v)'s formula, so its bits
    return v[None, :]


def prox_suite(cases: int = 1000, seed: int = 2024, tol: float = 1e-6) -> list:
    """Per regularizer: random (group, step) draws; the matrix prox output
    norm must match the independent scalar oracle. The coupled l1-l2
    operator is checked jointly on random 2-8 group layers."""
    rng = np.random.default_rng(seed)
    results = []

    scalar_kinds = (
        ("prox_l1", regularizers.L1, regularizers.prox_l1),
        ("prox_l_half", regularizers.L_HALF, regularizers.prox_l_half),
        ("prox_logsum", regularizers.LOGSUM, regularizers.prox_logsum),
    )
    schemes = {d: GroupScheme(ROWS, (1, d)) for d in range(2, 7)}
    for name, kind, op in scalar_kinds:
        steps, norms, got = np.empty(cases), np.empty(cases), np.empty(cases)
        for i in range(cases):
            step = rng.uniform(0.01, 2.0)
            norm = rng.uniform(0.0, 4.0) * math.sqrt(step)
            a = _random_group_matrix(rng, norm)
            out = op(a, schemes[a.shape[1]], step).ravel()
            steps[i], norms[i], got[i] = step, norm, math.sqrt(out.dot(out))
        want = regularizers.prox_oracle(norms, kind, steps)
        devs = np.abs(got - want)
        failures = [{"regularizer": name, "group_norm": float(norms[i]),
                     "step": float(steps[i]), "closed_form": float(got[i]),
                     "oracle": float(want[i])}
                    for i in np.flatnonzero(~(devs <= tol))]
        results.append(SuiteResult(name, not failures, float(devs.max(initial=0.0)),
                                   tol, cases, failures))

    norms_in, steps, seeds, got = [], [], [], []
    schemes = {g: GroupScheme(ROWS, (g, 6)) for g in range(2, 9)}
    for c in range(cases):
        g = int(rng.integers(2, 9))
        step = rng.uniform(0.05, 1.0)
        norms = rng.uniform(0.0, 3.0, g) * math.sqrt(step)
        if norms.max() <= step:
            norms[int(rng.integers(g))] = step * rng.uniform(1.5, 3.0)
        a = rng.normal(size=(g, 6))  # the stream of g draws of 6
        for row, nm in zip(a, norms.tolist()):
            row *= nm / math.sqrt(row.dot(row))
        scheme = schemes[g]
        norms_in.append(group_norms(a, scheme))
        steps.append(step)
        got.append(group_norms(regularizers.prox_l1_minus_2(a, scheme, step), scheme))
        seeds.append(int(rng.integers(2 ** 31)))
    want = regularizers.prox_oracle_l1_minus_2(norms_in, steps, seeds)
    devs = np.array([np.max(np.abs(c - o)) for c, o in zip(got, want)])
    failures = [{"regularizer": "prox_l1_minus_2", "group_norms": norms_in[c].tolist(),
                 "step": steps[c], "closed_form": got[c].tolist(),
                 "oracle": want[c].tolist()}
                for c in np.flatnonzero(~(devs <= tol))]  # a NaN deviation fails too
    results.append(SuiteResult("prox_l1_minus_2", not failures,
                               float(devs.max(initial=0.0)), tol, cases, failures))
    return results


# --------------------------------------------------------------------------
# Gradient suite.
# --------------------------------------------------------------------------

def finite_difference_check(model, x, loss_fn, rng, samples_per_param: int = 3,
                            h: float = 1e-5):
    """The worst relative deviation between analytic gradients and central
    differences over randomly sampled entries of every parameter tensor,
    and where it is; a NaN deviation is the worst."""
    model.zero_grads()
    logits = model.forward(x)
    _, dlogits = loss_fn(logits)
    model.backward(dlogits)

    rels, where = [], []
    for name, _, p, analytic in model.params():
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
            rels.append(abs(aflat[idx] - fd) / (abs(aflat[idx]) + 1e-8))
            where.append((name, int(idx)))
    worst = int(np.argmax(rels))  # the first NaN, if there is one
    return float(rels[worst]), where[worst]


def _grad_cases(rng, seed):
    """(name, model, input, loss) per gradient case. A generator: each
    case draws its data from `rng` only after the previous case's check
    has drawn its samples, the order the suite's figures rest on."""
    arch = net.ArchSpec(2, 8, 8, 3, 4,
                        (net.BlockDef("basic", 4, 1), net.BlockDef("basic", 6, 2)))
    model = net.build_network(arch, seed=seed)
    net.attach_hinges(model, init="svd")
    x = rng.normal(size=(4, 2, 8, 8))
    y = rng.integers(0, 3, size=4)
    yield "grad_cross_entropy", model, x, lambda lg: losses.cross_entropy(lg, y)

    teacher_logits = rng.normal(size=(4, 3))
    cfg = losses.DistillConfig(0.4, 4.0)
    yield ("grad_distill", model, x,
           lambda lg: losses.distill_loss(lg, teacher_logits, y, cfg))

    # plain pruned chain exercises column-group hinges
    arch2 = net.ArchSpec(1, 8, 8, 3, 4, (net.BlockDef("plain", 5),))
    model2 = net.build_network(arch2, seed=seed + 1)
    net.attach_hinges(model2, init="identity")
    x2 = rng.normal(size=(4, 1, 8, 8))
    y2 = rng.integers(0, 3, size=4)
    yield "grad_plain_chain", model2, x2, lambda lg: losses.cross_entropy(lg, y2)


def grad_suite(seed: int = 7, tol: float = 1e-4) -> list:
    """Finite differences over every layer type: plain conv (stem, skip
    projection and the pooled 1x1 head), both hinged convs of a residual
    pair, a pruned plain block, and both loss functions."""
    rng = np.random.default_rng(seed)
    results = []
    for name, model, x, loss_fn in _grad_cases(rng, seed):
        worst, which = finite_difference_check(model, x, loss_fn, rng, samples_per_param=4)
        results.append(SuiteResult(name, worst <= tol, worst, tol, 1,
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


def _tensor_flops(network, count_a: bool) -> int:
    """2 FLOPs per weight per output position, counted from the tensors of
    `network` alone: each conv's W (and its A when `count_a`) at the conv's
    output positions, the head's at its one."""
    weights = 0
    for layer in network.layers.values():
        kept_a = layer.a.size if count_a and layer.a is not None else 0
        weights += (layer.w.size + kept_a) * layer.meta.spatial
    return 2 * weights


def equivalence_suite(cases: int = 100, seed: int = 11, tol: float = 1e-10,
                      gamma_tol: float = 1e-12) -> list:
    """Random masked models: compacted forward must match the masked
    forward within `tol`, and the compacted network's FLOPs, counted from
    its tensors, over the un-hinged model's must equal the hypothetical
    compression ratio."""
    rng = np.random.default_rng(seed)
    devs, gdevs, failures, gamma_failures = [], [], [], []
    for case in range(cases):
        model = random_masked_model(rng)
        hypothetical = compression_ratio(model, None)
        compacted, _ = compaction.compact(model)
        dev = compaction.verify_equivalence(model, compacted,
                                            n_inputs=8, seed=int(rng.integers(2 ** 31)))
        # the un-hinged model's W has the hinged W's shape
        gamma = (_tensor_flops(compacted, count_a=True)
                 / _tensor_flops(model, count_a=False))
        gdev = abs(gamma - hypothetical)
        devs.append(dev)
        gdevs.append(gdev)
        inputs = {"case": case, "deviation": dev, "gamma_dev": gdev, "arch": str(model.arch)}
        if not dev <= tol:  # a NaN deviation fails too
            failures.append(inputs)
        if not gdev <= gamma_tol:
            gamma_failures.append(inputs)
    # np.max keeps a NaN where the builtin max may drop it
    worst_dev = float(np.max(devs, initial=0.0))
    worst_gamma = float(np.max(gdevs, initial=0.0))
    return [SuiteResult("compaction_equivalence", worst_dev <= tol, worst_dev,
                        tol, cases, failures),
            SuiteResult("compaction_gamma", worst_gamma <= gamma_tol, worst_gamma,
                        gamma_tol, cases, gamma_failures)]


def run_suites(which: str = "all") -> list:
    results = []
    if which in ("all", "prox"):
        results += prox_suite()
    if which in ("all", "grad"):
        results += grad_suite()
    if which in ("all", "equiv"):
        results += equivalence_suite()
    return results
