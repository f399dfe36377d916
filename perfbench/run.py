"""Benchmark for hingenet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is toy-pipeline, wide-compress, verify, or all (each workload in turn,
in its own process). Run from anywhere inside a source checkout: the
package is imported from ``src/`` beside this directory. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the human-readable report. Temporary
files, per-run results and span dumps go to ``.perfbench_work/``.

With ``--trace 0`` the end-to-end metrics come from an untraced run. With
``--trace 1`` half of the time runs untraced and half with every traced
function wrapped; the per-layer metrics come from the traced half and
``trace.overhead_s`` is the difference of the two halves' iteration walls.

Every timing is also rescaled to a nominal machine speed, measured by a
reference kernel timed during each call (``reference.py``). The JSON line
reports the rescaled ``setup_s`` and ``wall_norm_s``; the report prints the
raw seconds beside them.
"""

import argparse
import fcntl
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("toy-pipeline", "wide-compress", "verify")
SETUP_SAMPLES = 5
# One BLAS thread: the matrices are small enough that a second thread buys
# nothing here, and a shared two-core machine makes threaded timings jumpy.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGE_METRICS = {"toy-pipeline": ("train", "compress", "finetune"),
                 "wide-compress": ("compress",), "verify": ()}

# Per-layer metrics printed in the JSON line. Times only for layers every
# workload reaches (a layer a workload never calls would read 0 on every
# run); the other layers appear as call counts and in the full table.
LAYER_TIMES = ("net.conv.forward", "net.im2col", "linalg.matmul", "linalg.svd",
               "hinge.attach", "linalg.group_norms", "cost.compression_ratio",
               "compaction.compact", "compaction.equivalence")
LAYER_CALLS = ("net.conv.backward", "net.col2im", "linalg.matmul", "linalg.svd",
               "regularizers.prox", "regularizers.prox_oracle",
               "cost.compression_ratio", "train.evaluate")


def parse_args(argv):
    p = argparse.ArgumentParser(description="hingenet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(workload, seed, workdir):
    """Package import, input generation, config parse and data synthesis,
    timed from a process that has not imported the package yet. Returns
    the seconds taken and a reference pass timed right after."""
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports hingenet, numpy and scipy
    inputs = workloads.setup(workload, seed, workdir, ROOT)
    seconds = perf_counter() - start
    return (seconds, reference.seconds()), workloads, inputs


def probe_setup(args, workdir):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(workdir)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(done.stdout.splitlines()[-1])["setup"])


def run_iterations(workloads, inputs, schema, budget, sampler, recorder=None):
    """Whole iterations until the next one would overrun `budget` seconds;
    always at least one. Each call keeps the mean reference pass timed
    during it and at its two ends; its seconds leave those passes out."""
    iterations = []
    longest = 0.0
    start = perf_counter()
    with sampler:
        sampler.sample()
        while True:
            began = perf_counter()
            results = []
            for op in workloads.iteration(inputs):
                first = len(sampler.samples) - 1
                with recorder.region("stage." + op.stage) if recorder else nullcontext():
                    result = workloads.run_op(op, inputs, schema, sampler.clock)
                sampler.sample()
                result.ref_s = statistics.fmean(sampler.samples[first:])
                results.append(result)
            iterations.append(results)
            longest = max(longest, perf_counter() - began)
            if perf_counter() - start + longest > budget:
                return iterations


def check_repeats(iterations, ledger_path, key):
    """Repeated runs at the same code and seed must write byte-identical
    artifacts: later iterations against the first, and the first against
    any earlier run recorded under the same key."""
    first = iterations[0]
    for later in iterations[1:]:
        for ref, res in zip(first, later):
            if not ref.failed and res.exit_code == 0:
                same = res.digests == ref.digests
                res.checks.append(("byte-identical to first iteration", same,
                                   "" if same else str(res.digests)))
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    earlier = ledger.get(key)
    if earlier is None:
        ledger[key] = {r.stage: r.digests for r in first if not r.failed}
        tmp = ledger_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, ledger_path)
        return
    for res in first:
        if res.stage in earlier and not res.failed:
            same = earlier[res.stage] == res.digests
            res.checks.append(("byte-identical to earlier run", same,
                               "" if same else str(earlier[res.stage])))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(code_sha, lock_wait, load_at_start):
    import numpy as np  # loaded already by the timed set-up
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_at_start": load_at_start, "blas": blas_id,
            "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
            "numpy": np.__version__, "python": platform.python_version(),
            "git_commit": git_commit(), "code_sha256": code_sha,
            "workloads_run": "one at a time, under an exclusive lock",
            "lock_wait_s": lock_wait}


def median(xs):
    return statistics.median(xs) if xs else None


def walls(iterations):
    """Wall time of each iteration: the sum of its timed stage calls."""
    return [sum(r.seconds for r in it) for it in iterations]


def norm_walls(iterations):
    """`walls` with every call rescaled to the nominal reference speed."""
    return [sum(reference.rescale(r.seconds, r.ref_s) for r in it) for it in iterations]


def norm_setups(setup_samples):
    return [reference.rescale(seconds, ref_s) for seconds, ref_s in setup_samples]


def values_of(iterations, key):
    return [r.values[key] for it in iterations for r in it if key in r.values]


def layer_metrics(summary, recorder, untraced, traced):
    """Per-layer JSON metrics, per traced iteration."""
    n = len(traced)

    def stat(metric, field):
        return summary.get(metric, {}).get(field, 0) / n

    out = {f"{m}_s": {"value": stat(m, "inclusive_s"), "unit": "s"} for m in LAYER_TIMES}
    out["net.conv.calls"] = {"value": stat("net.conv.forward", "calls")
                             + stat("net.conv.backward", "calls"), "unit": "count"}
    for m in LAYER_CALLS:
        out[f"{m}.calls"] = {"value": stat(m, "calls"), "unit": "count"}
    for name, key in (("solver.phase.epochs", "phase_epochs"),
                      ("solver.phase.groups_nullified", "groups_nullified"),
                      ("solver.search.iterations", "search_iterations")):
        out[name] = {"value": sum(values_of(traced, key)) / n, "unit": "count"}
    for name in ("train.samples", "checkpoint.bytes"):
        out[name] = {"value": recorder.counters[name] / n, "unit": "count"}
    out["trace.overhead_s"] = {"value": median(norm_walls(traced)) - median(norm_walls(untraced)),
                               "unit": "s"}
    return out


def print_report(args, man, setup_samples, untraced, traced, summary, peak_rss_mb):
    ops = [r for it in untraced + traced for r in it]
    failed = sum(r.failed for r in ops)
    print(f"== hingenet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("manifest " + json.dumps(man, sort_keys=True))
    print(f"-- end-to-end, untraced ({len(untraced)} iteration(s))")
    n_setup, n_iter = len(setup_samples), len(untraced)
    rows = [("setup_s", median(norm_setups(setup_samples)), "s",
             f"median of {n_setup}, rescaled to the reference speed"),
            ("setup_raw_s", median([s for s, _ in setup_samples]), "s", f"median of {n_setup}"),
            ("wall_norm_s", median(norm_walls(untraced)), "s",
             f"median of {n_iter}, rescaled to the reference speed"),
            ("wall_s", median(walls(untraced)), "s", f"median of {n_iter}"),
            ("reference_s", median([r.ref_s for it in untraced for r in it]), "s",
             f"median reference pass; nominal {reference.NOMINAL_S:g}")]
    for stage in STAGE_METRICS[args.workload]:
        xs = [r for it in untraced for r in it if r.stage == stage]
        rows.append((f"{stage}_s", median([r.seconds for r in xs]), "s", f"median of {len(xs)}"))
        rows.append((f"{stage}_norm_s", median([reference.rescale(r.seconds, r.ref_s) for r in xs]),
                     "s", f"median of {len(xs)}, rescaled"))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB", "max RSS of this process"))
    for name in ("final_accuracy", "ratio_error"):
        xs = values_of(untraced, name)
        rows.append((name, median(xs), "fraction", f"median of {len(xs)}" if xs
                     else "not produced by this workload"))
    rows.append(("error_rate", failed / len(ops), "fraction", f"{failed} of {len(ops)} operations"))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<16} {shown:>12} {unit:<9} {note}")
    for stage_name in sorted({r.stage for it in untraced for r in it}):
        xs = [r.seconds for it in untraced for r in it if r.stage == stage_name]
        print(f"  stage {stage_name:<14} {median(xs):12.4f} s         median of {len(xs)}")
    for name in ("baseline_accuracy", "phase_epochs", "phase_epochs_reported",
                 "groups_nullified", "search_iterations", "equivalence_deviation", "suites"):
        xs = values_of(untraced, name)
        if xs:
            print(f"  info {name:<22} {median(xs):.6g}")
    print("-- checks")
    seen = {}
    for it in untraced + traced:
        for r in it:
            for check, ok, detail in r.checks:
                key = (r.stage, check, ok)
                seen.setdefault(key, [0, detail])[0] += 1
    for (stage, check, ok), (count, detail) in sorted(seen.items()):
        print(f"  {'PASS' if ok else 'FAIL'} {stage}: {check} (x{count}) {detail}".rstrip())
    print("-- SHA-256 of outputs, first iteration")
    for r in untraced[0]:
        for name, digest in r.digests.items():
            print(f"  {r.stage:<14} {name:<20} {digest}")
    if summary is not None:
        wall = median(walls(traced))
        overhead = median(norm_walls(traced)) - median(norm_walls(untraced))
        print(f"-- layer split, traced ({len(traced)} iteration(s), per iteration; "
              f"traced wall {wall:.4f} s, trace.overhead_s {overhead:.4f} s)")
        print(f"  {'span':<26} {'calls':>9} {'inclusive_s':>12} {'self_s':>10} {'self/wall':>9}")
        n = len(traced)
        for name, s in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<26} {s['calls'] / n:9.6g} {s['inclusive_s'] / n:12.4f} "
                  f"{s['self_s'] / n:10.4f} {s['self_s'] / n / wall:9.1%}")


def run_traced(args, workloads, inputs, schema, budget, sampler):
    """Wrap the traced functions, run the traced iterations and attach the
    binding and call-count cross-checks to the operations they concern.
    Spans are timed by the sampler's clock, so they leave the reference
    passes out, as the calls' own times do."""
    recorder = tracing.Recorder(sampler.clock)
    missed = tracing.install(recorder)
    traced = run_iterations(workloads, inputs, schema, budget, sampler, recorder)
    ops = [r for it in traced for r in it]
    for r in ops:
        r.checks.append(("every traced binding wrapped", not missed, ", ".join(missed)))
    roots = [i for i, span in enumerate(recorder.spans) if span[3] < 0]  # one per op
    for root, message in tracing.child_rule_violations(recorder):
        ops[roots.index(root)].checks.append(("trace call-count cross-check", False, message))
    (WORK / "spans").mkdir(exist_ok=True)
    recorder.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
    return traced, recorder


def run_workload(args, lock_wait, load_at_start):
    rundir = WORK / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup, workloads, inputs = timed_setup(args.workload, args.seed, rundir / "inputs")
        setup_samples = [setup] + [probe_setup(args, rundir / f"setup{k}")
                                     for k in range(1, SETUP_SAMPLES)]
        schema = json.loads((ROOT / "src" / "hingenet" / "schemas" / "report.schema.json")
                            .read_text(encoding="utf-8"))
        budget = args.seconds / 2 if args.trace else args.seconds
        sampler = reference.Sampler()
        untraced = run_iterations(workloads, inputs, schema, budget, sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, recorder, summary = [], None, None
        if args.trace:
            traced, recorder = run_traced(args, workloads, inputs, schema, budget, sampler)
            summary = tracing.summarize(recorder)
        code_sha = workloads.code_digest(ROOT)
        check_repeats(untraced + traced, WORK / "digests.json",
                      f"{args.workload}|seed={args.seed}|code={code_sha}"
                      f"|inputs={workloads.inputs_digest(inputs)}")
        man = manifest(code_sha, lock_wait, load_at_start)
        print_report(args, man, setup_samples, untraced, traced, summary, peak_rss_mb)

        ops = [r for it in untraced + traced for r in it]
        failed = sum(r.failed for r in ops)
        if args.trace:
            metrics = layer_metrics(summary, recorder, untraced, traced)
        else:
            metrics = {"setup_s": {"value": median(norm_setups(setup_samples)), "unit": "s"},
                       "wall_norm_s": {"value": median(norm_walls(untraced)), "unit": "s"},
                       "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                  "metrics": metrics}
        (WORK / "results").mkdir(exist_ok=True)
        detail = {"manifest": man, "setup_samples": setup_samples, "result": result,
                  "iterations": [[{"stage": r.stage, "seconds": r.seconds,
                                   "ref_s": r.ref_s, "exit_code": r.exit_code,
                                   "values": r.values,
                                   "digests": r.digests, "checks": r.checks}
                                  for r in it] for it in untraced + traced],
                  "traced_iterations": len(traced), "layer_split": summary}
        (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(detail, indent=1, default=str), encoding="utf-8")
        print(json.dumps(result, sort_keys=True))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return 0


def run_all(args):
    """Every workload in turn, each in its own process, never overlapping."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hingenet" / "cli.py").is_file():
        sys.stderr.write(f"error: no hingenet sources under {ROOT / 'src'}\n")
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if args.setup_probe is not None:
        setup, _, _ = timed_setup(args.workload, args.seed, Path(args.setup_probe))
        print(json.dumps({"setup": setup}))
        return 0
    if args.workload == "all":
        return run_all(args)
    load_at_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    with open(WORK / "lock", "w") as lock:
        start = perf_counter()
        fcntl.flock(lock, fcntl.LOCK_EX)
        return run_workload(args, perf_counter() - start, load_at_start)


if __name__ == "__main__":
    sys.exit(main())
