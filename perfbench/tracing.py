"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the hingenet modules from outside the
package: every module-level binding of a traced function is replaced (a
function imported by name into another module is a second binding), and a
scan afterwards reports any binding still pointing at an unwrapped original,
so a missed import cannot make a layer look cheap. Spans stay in memory as
[name, start, end, parent index, nested] and are written out at the end.
"""

import functools
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "hingenet"

# metric name -> "module:function" or "module:Class.method" targets.
TRACED = {
    "net.conv.forward": ["net:Conv2d.forward", "net:HingedConv2d.forward"],
    "net.conv.backward": ["net:Conv2d.backward", "net:HingedConv2d.backward"],
    "net.im2col": ["net:im2col"],
    "net.col2im": ["net:col2im"],
    "linalg.matmul": ["linalg:matmul"],
    "linalg.svd": ["linalg:svd"],
    "linalg.group_norms": ["linalg:group_norms"],
    "hinge.attach": ["hinge:attach"],
    "regularizers.prox": ["regularizers:prox", "regularizers:prox_l1",
                          "regularizers:prox_l_half", "regularizers:prox_l1_minus_2",
                          "regularizers:prox_logsum"],
    "regularizers.prox_oracle": ["regularizers:prox_oracle",
                                 "regularizers:prox_oracle_l1_minus_2"],
    "solver.phase": ["solver:run_compression"],
    "solver.search": ["solver:binary_search_threshold"],
    "cost.compression_ratio": ["cost:compression_ratio"],
    "compaction.compact": ["compaction:compact"],
    "compaction.equivalence": ["compaction:verify_equivalence"],
    "checkpoint.save": ["checkpoint:save"],
    "checkpoint.load": ["checkpoint:load"],
    "train.evaluate": ["train:evaluate"],
    "train.sgd_step": ["train:SgdMomentum.step"],
    "losses.loss": ["losses:cross_entropy", "losses:distill_loss"],
    "data.synthesize": ["data:SyntheticDataset.__post_init__"],
    "config.load": ["config:load_config"],
    "verify.prox_suite": ["verify:prox_suite"],
    "verify.grad_suite": ["verify:grad_suite"],
    "verify.equiv_suite": ["verify:equivalence_suite"],
}

# (parent metric, child metric): every parent span must have at least one
# direct child span of that name. A binding that escaped wrapping shows up
# here as a parent with no children.
CHILD_RULES = (
    ("net.conv.forward", "linalg.matmul"),
    ("net.conv.forward", "net.im2col"),
    ("net.conv.backward", "linalg.matmul"),
    ("solver.search", "cost.compression_ratio"),
    ("compaction.equivalence", "net.conv.forward"),
)


class Recorder:
    """Collects spans and counters of one traced run, timed by `clock`."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, nested]
        self.counters = Counter()
        self._stack = []
        self._active = Counter()

    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self._active[name] > 0])
        self._stack.append(idx)
        self._active[name] += 1
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()
        self._active[self.spans[idx][0]] -= 1

    @contextmanager
    def region(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)
        return traced

    def count_batches(self, fn):
        """Wrap the batch generator so the samples it yields are counted."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for idx in fn(*args, **kwargs):
                self.counters["train.samples"] += len(idx)
                yield idx
        return counted

    def count_saved_bytes(self, fn):
        @functools.wraps(fn)
        def saved(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.counters["checkpoint.bytes"] += os.path.getsize(path)
            return result
        return saved

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "start", "end", "parent"],
                       "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans],
                       "counters": dict(self.counters)}, fh)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(original, replacement, modules):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(recorder):
    """Wrap every traced function at every binding in the loaded package.
    Returns the bindings that still hold an unwrapped original (empty when
    the wrapping is complete)."""
    importlib.import_module(PACKAGE + ".cli")  # loads every module
    modules = _package_modules()
    originals = []
    for metric, targets in TRACED.items():
        for target in targets:
            modname, qualname = target.split(":")
            owner = importlib.import_module(f"{PACKAGE}.{modname}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(owner, cls_name)
            else:
                attr = qualname
            fn = vars(owner)[attr]
            wrapped = recorder.wrap(metric, fn)
            if metric == "checkpoint.save":
                wrapped = recorder.count_saved_bytes(wrapped)
            setattr(owner, attr, wrapped)
            _rebind(fn, wrapped, modules)
            originals.append(fn)
    batches = importlib.import_module(PACKAGE + ".train").batches
    originals.append(batches)
    _rebind(batches, recorder.count_batches(batches), modules)

    missed = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if any(value is fn for fn in originals):
                missed.append(f"{mod.__name__}.{attr}")
        for cls in [v for v in vars(mod).values() if isinstance(v, type)]:
            for attr, value in vars(cls).items():
                if any(value is fn for fn in originals):
                    missed.append(f"{mod.__name__}.{cls.__name__}.{attr}")
    return missed


def summarize(recorder):
    """Per metric: outermost calls, inclusive seconds (nested same-name
    spans not counted twice) and self seconds (span minus its children)."""
    spans = recorder.spans
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, inclusive, self_time = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, parent, nested) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
        if not nested:
            calls[name] += 1
            inclusive[name] += end - start
    return {name: {"calls": calls[name], "inclusive_s": inclusive[name],
                   "self_s": self_time[name]} for name in calls}


def child_rule_violations(recorder):
    """(index of the enclosing top-level span, message) for every parent
    span that lacks a required child."""
    spans = recorder.spans
    children = defaultdict(Counter)
    for name, _, _, parent, _ in spans:
        if parent >= 0:
            children[parent][name] += 1
    violations = []
    for parent_name, child_name in CHILD_RULES:
        for i, span in enumerate(spans):
            if span[0] == parent_name and children[i][child_name] == 0:
                root = i
                while spans[root][3] >= 0:
                    root = spans[root][3]
                violations.append((root, f"{parent_name} span without a {child_name} call"))
    return violations
