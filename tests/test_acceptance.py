"""Acceptance suite: each test covers one criterion at its stated tolerance
and prints one pass/fail line. Criterion 7 drives the real CLI pipeline on
the shipped toy configuration (seed 42); its artifacts are shared with the
threshold-search criterion. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import staircase, state_with_masks
from hingenet import cli, cost, data, linalg, net, solver, train, verify
from hingenet.config import load_config
from hingenet.linalg import ROWS, GroupScheme, group_norms
from hingenet.net import attach_hinges, build_network
from hingenet.regularizers import (RegularizerSpec, l1_norm_map, l_half_norm_map,
                                   prox_l1, prox_l1_minus_2, prox_l_half,
                                   prox_logsum)

TOY_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy.json"


def report(criterion: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {criterion}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def toy_pipeline(tmp_path_factory):
    """Train, compress to 0.5, distill-finetune the toy residual net via the
    CLI, exactly as a user would; wall time is part of the acceptance."""
    tmp = tmp_path_factory.mktemp("toy")
    base = tmp / "baseline.hngw"
    compact = tmp / "compact.hngw"
    final = tmp / "final.hngw"
    rpt = tmp / "report.json"
    t0 = time.perf_counter()
    assert cli.main(["train", "--config", str(TOY_CONFIG), "--out", str(base)]) == 0
    assert cli.main(["compress", "--config", str(TOY_CONFIG), "--ckpt", str(base),
                     "--target-ratio", "0.5", "--out", str(compact),
                     "--report", str(rpt)]) == 0
    assert cli.main(["finetune", "--config", str(TOY_CONFIG), "--ckpt", str(compact),
                     "--teacher", str(base), "--distill", "--out", str(final)]) == 0
    elapsed = time.perf_counter() - t0
    return {
        "elapsed": elapsed,
        "baseline_metrics": json.loads((tmp / "baseline.metrics.json").read_text()),
        "final_metrics": json.loads((tmp / "final.metrics.json").read_text()),
        "report": json.loads(rpt.read_text()),
        "baseline_ckpt": base,
        "tmp": tmp,
    }


def test_criterion_1_prox_oracle_equivalence():
    # CPU time of this process, so load from other processes cannot fail it
    t0 = time.process_time()
    results = verify.prox_suite(cases=1000, seed=2024, tol=1e-6)
    elapsed = time.process_time() - t0
    worst = max(r.max_deviation for r in results)
    # per-kind max deviations of this draw: the scalar ones as the dense
    # per-case grid scan computed them, which the bounded grid search must
    # not move; the l1-l2 one as the lockstep projected-gradient oracle
    # computes it
    pinned = [5.688702264805556e-08, 3.630038847290962e-08,
              5.968644778420185e-08, 1.9206858326015208e-14]
    ok = (all(r.passed for r in results) and elapsed < 30.0
          and [r.max_deviation for r in results] == pinned)
    report(1, "prox-oracle equivalence",
           ok, f"max |closed - oracle| = {worst:.2e}, cpu time {elapsed:.1f}s")


def _nullification_boundary(prox_fn, step, lo, hi, iters=80):
    """Bisect the input norm at which the prox output becomes nonzero."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        a = np.array([[mid]])
        out = prox_fn(a, GroupScheme(ROWS, (1, 1)), step)
        if np.all(out == 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_2_thresholding_constants():
    half_cutoff = _nullification_boundary(prox_l_half, 1.0, 0.5, 1.5)
    want_half = 54.0 ** (1.0 / 3.0) / 4.0
    l1_cutoff = _nullification_boundary(prox_l1, 1.0, 0.5, 1.5)
    # boundary semantics: zero at exactly the step, positive just above
    at_step = prox_l1(np.array([[1.0]]), GroupScheme(ROWS, (1, 1)), 1.0)
    ok = (abs(half_cutoff - want_half) <= 1e-9
          and abs(l1_cutoff - 1.0) <= 1e-12
          and np.all(at_step == 0.0)
          and l_half_norm_map(want_half + 1e-6, 1.0) > 0.5
          and l1_norm_map(1.0 + 1e-9, 1.0) > 0.0)
    report(2, "thresholding constants", ok,
           f"l_half cutoff {half_cutoff:.12f} vs {want_half:.12f}; "
           f"l1 cutoff {l1_cutoff:.15f}")


def test_criterion_3_direction_composition():
    rng = np.random.default_rng(33)
    ops = [("l1", lambda a, s, st: prox_l1(a, s, st)),
           ("l_half", lambda a, s, st: prox_l_half(a, s, st)),
           ("logsum", lambda a, s, st: prox_logsum(a, s, st)),
           ("l1_minus_2", lambda a, s, st: prox_l1_minus_2(a, s, st))]
    worst = 0.0
    for kind, op in ops:
        for _ in range(1000):
            step = float(rng.uniform(0.01, 1.5))
            g = 2 if kind == "l1_minus_2" else 1
            width = int(rng.integers(2, 7))
            a = rng.normal(size=(g, width))
            if kind == "l1_minus_2":
                a[0] *= (2.0 * step + 1.0) / np.linalg.norm(a[0])
            scheme = GroupScheme(ROWS, (g, width))
            out = op(a, scheme, step)
            old = group_norms(a, scheme)
            new = group_norms(out, scheme)
            rebuilt = a * (new / old)[:, None]
            worst = max(worst, float(np.abs(out - rebuilt).max()))
    report(3, "scalar-prox times unit direction", worst <= 1e-12,
           f"max deviation {worst:.2e}")


def test_criterion_4_gradient_correctness():
    results = verify.grad_suite(seed=7, tol=1e-4)
    worst = max(r.max_deviation for r in results)
    report(4, "finite-difference gradients", all(r.passed for r in results),
           f"max relative deviation {worst:.2e}")


def test_criterion_5_compaction_equivalence():
    results = verify.equivalence_suite(cases=100, seed=11, tol=1e-10,
                                       gamma_tol=1e-12)
    by_name = {r.name: r for r in results}
    ok = all(r.passed for r in results)
    report(5, "compaction equivalence (100 random masked models)", ok,
           f"max |logit dev| {by_name['compaction_equivalence'].max_deviation:.2e}, "
           f"max |gamma dev| {by_name['compaction_gamma'].max_deviation:.2e}")


def test_criterion_6_threshold_search(toy_pipeline):
    cfg = load_config(TOY_CONFIG)
    from hingenet import checkpoint
    model = net.network_from_tensors(cfg.arch, checkpoint.load(toy_pipeline["baseline_ckpt"]))
    attach_hinges(model, init=cfg.hinge_init)

    achievable = set(staircase(model))

    t0 = time.perf_counter()
    details = []
    ok = True
    for target in (0.75, 0.5, 0.25):
        res = solver.binary_search_threshold(model, target, criterion=0.005)
        best = min(achievable, key=lambda g: (abs(g - target), -g))
        ok &= res.gamma == best and res.exact == (abs(best - target) <= 0.005)
        details.append(f"{target}->{res.gamma:.4f}{'*' if res.exact else ''}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(6, "binary threshold search", ok,
           f"{', '.join(details)}; runtime {elapsed:.1f}s")


def test_criterion_7_end_to_end(toy_pipeline):
    baseline_acc = toy_pipeline["baseline_metrics"]["test_accuracy"]
    final_acc = toy_pipeline["final_metrics"]["test_accuracy"]
    rpt = toy_pipeline["report"]
    gamma_ok = rpt["search_exact"] or abs(rpt["gamma"] - 0.5) <= 0.05
    ok = (baseline_acc >= 0.95
          and final_acc >= baseline_acc - 0.02
          and gamma_ok
          and toy_pipeline["elapsed"] < 300.0)
    report(7, "end-to-end desk-scale run", ok,
           f"baseline {baseline_acc:.4f}, final {final_acc:.4f}, "
           f"gamma {rpt['gamma']:.4f}, {toy_pipeline['elapsed']:.0f}s")


def test_criterion_8_solver_invariants(tmp_path):
    arch = net.ArchSpec(1, 8, 8, 3, 5,
                        (net.BlockDef("plain", 5), net.BlockDef("plain", 4)))
    ds = data.SyntheticDataset(seed=3, classes=3, n_train=64, n_test=32,
                               channels=1, height=8, width=8)
    model = build_network(arch, seed=3)
    train.train(model, ds, epochs=6, lr=0.05, batch_size=16, seed=3)
    attach_hinges(model, init="svd", plain_kind="columns")
    twin = copy.deepcopy(model)

    cfg = solver.CompressionConfig(
        target_ratio=0.5, stop_margin=0.1, nullify_threshold=0.005,
        regularizer=RegularizerSpec("l1", 0.05), eta=0.3,
        max_epochs=120, seed=3, batch_size=16)
    records = []
    state = solver.run_compression(model, ds, cfg, log=records.append)

    gammas = [r["gamma_c"] for r in records]
    monotone_gamma = all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))
    masked_zero = all(
        np.all((layer.a[:, ~layer.mask] if layer.scheme.kind == linalg.COLUMNS
                else layer.a[~layer.mask, :]) == 0.0)
        for _, layer in model.hinged_layers())
    gamma_recomputed = abs(cost.compression_ratio(model, cfg.nullify_threshold)
                           - state.gamma_c) <= 1e-12

    solver.run_compression(twin, ds, cfg)
    from hingenet import checkpoint
    p1, p2 = tmp_path / "a.hngw", tmp_path / "b.hngw"
    checkpoint.save(p1, state_with_masks(model))
    checkpoint.save(p2, state_with_masks(twin))
    deterministic = p1.read_bytes() == p2.read_bytes()

    ok = monotone_gamma and masked_zero and gamma_recomputed and deterministic
    report(8, "solver invariants", ok,
           f"gamma monotone={monotone_gamma}, masked zero={masked_zero}, "
           f"gamma recompute={gamma_recomputed}, byte-identical={deterministic}")


def test_criterion_9_distillation_sanity():
    from hingenet.losses import DistillConfig, cross_entropy, distill_loss
    rng = np.random.default_rng(99)
    logits = rng.normal(size=(16, 4)) * 3
    labels = rng.integers(0, 4, 16)

    _, grad_soft_only = distill_loss(logits, logits.copy(), labels,
                                     DistillConfig(1.0, 4.0))
    soft_zero = bool(np.all(grad_soft_only == 0.0))

    teacher = rng.normal(size=(16, 4))
    dl, dg = distill_loss(logits, teacher, labels, DistillConfig(0.0, 4.0))
    cl, cg = cross_entropy(logits, labels)
    alpha_zero = abs(dl - cl) <= 1e-12 and float(np.abs(dg - cg).max()) <= 1e-12

    report(9, "distillation sanity", soft_zero and alpha_zero,
           f"matching-logits soft grad exactly zero={soft_zero}, "
           f"alpha=0 equals cross-entropy={alpha_zero}")
