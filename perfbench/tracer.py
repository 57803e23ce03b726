"""Spans around fairmtl's public functions, recorded from outside the package.

A `Tracer` replaces a function at the name its callers look up (a module
global such as `fairmtl.trainer.forward`, a class attribute such as
`fairmtl.data.Dataset.take`, or an attribute of the kernel module) with a
wrapper that records a span: id, parent id, layer name, start, end, and the
time spent in benchmark hooks inside it.  Hooks count work (graph nodes,
kernel shapes, subset sizes) before a call starts; their time is charged to
the enclosing span and excluded from every time the tracer reports.  Spans
stay in memory and are folded into per-layer totals whenever the outermost
span closes.
"""

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

FOLD_AT = 20000


def self_times(spans):
    """{layer: (calls, inclusive_s, self_s)} from a complete set of spans.

    Each span is (id, parent_id, layer, start, end, hook_s).  A span's
    inclusive time is its duration minus the hook time inside it; its self
    time is its inclusive time minus the inclusive time of its direct
    children.  Summing self times over a layer counts nested calls of the
    same layer once.
    """
    inclusive = {sid: end - start - hook
                 for sid, _, _, start, end, hook in spans}
    children = defaultdict(float)
    for sid, parent, *_ in spans:
        if parent is not None:
            children[parent] += inclusive[sid]
    out = {}
    for sid, _, layer, *_ in spans:
        calls, inc, own = out.get(layer, (0, 0.0, 0.0))
        out[layer] = (calls + 1, inc + inclusive[sid],
                      own + inclusive[sid] - children[sid])
    return out


class Tracer:
    def __init__(self, keep_durations=()):
        self.spans = []
        self.totals = {}                     # layer -> (calls, incl, self)
        self.durations = defaultdict(list)   # inclusive s, kept layers only
        self.counts = defaultdict(int)       # set by hooks
        self.samples = defaultdict(list)     # set by hooks
        self._keep = set(keep_durations)
        self._stack = []                     # open frames: [id, hook_s]
        self._next_id = 0
        self._patches = []
        self.missing = []                    # specs the program lacks

    def _wrap(self, owner, attr, layer, before):
        original = vars(owner)[attr]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(self, args)
                if stack:
                    stack[-1][1] += clock() - h0
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, layer, start, end, frame[1]))
                if stack:
                    stack[-1][1] += frame[1]
                elif len(self.spans) >= FOLD_AT:
                    self.fold()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextmanager
    def installed(self, specs):
        """Wrap every (owner, attr, layer, before) in specs for the block.

        A name the program no longer has is skipped and listed in `missing`,
        so its layer reads 0 instead of the traced run failing.
        """
        try:
            for owner, attr, layer, before in specs:
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{layer}: {attr}")
                    continue
                self._wrap(owner, attr, layer, before)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
            self.fold()

    def fold(self):
        """Add the recorded spans to the totals; call with no span open."""
        if self._stack:
            raise RuntimeError("fold with open spans")
        for layer, (calls, inc, own) in self_times(self.spans).items():
            c0, i0, s0 = self.totals.get(layer, (0, 0.0, 0.0))
            self.totals[layer] = (c0 + calls, i0 + inc, s0 + own)
        for _, _, layer, start, end, hook in self.spans:
            if layer in self._keep:
                self.durations[layer].append(end - start - hook)
        self.spans.clear()

    def calls(self, layer):
        return self.totals.get(layer, (0, 0.0, 0.0))[0]

    def inclusive_s(self, layer):
        return self.totals.get(layer, (0, 0.0, 0.0))[1]

    def self_s(self, layer):
        return self.totals.get(layer, (0, 0.0, 0.0))[2]


# ---------------------------------------------------------------------------
# Hooks: counts taken before a call, outside every reported time
# ---------------------------------------------------------------------------

def count_graph_nodes(tracer, args):
    """Nodes reachable from a backward root (autodiff.backward(root))."""
    root = args[0]
    seen = {id(root)}
    todo = [root]
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    tracer.counts["autodiff.nodes"] += len(seen)


def record_gauss_shape(tracer, args):
    """rows(u), rows(v) of a Gaussian kernel call (gauss_fwd/gauss_bwd)."""
    tracer.samples["gauss_shape"].append((args[0].shape[0], args[1].shape[0]))


def count_exclusive(tracer, args):
    """|negatives| and |exclusive negatives| of task t in a decomposition
    (decompose_fairness(kind, target, t, labels, ...)); exclusive means
    negative on t and positive on every other task."""
    t, labels = args[2], np.asarray(args[3])
    negatives = labels[:, t] == 0
    others = np.delete(labels, t, axis=1)
    tracer.counts["losses.negatives"] += int(negatives.sum())
    tracer.counts["losses.exclusive_negatives"] += int(
        (negatives & (others == 1).all(axis=1)).sum())


def count_frontier_points(tracer, args):
    tracer.counts["pareto.frontier_points"] += len(args[0])


# ---------------------------------------------------------------------------
# Where each layer is entered
# ---------------------------------------------------------------------------

def setup_layers(fm):
    """Setup-phase spans, reported as inclusive times."""
    return [
        (fm.cli, "resolve_data", "cli.resolve_data", None),
        (fm.cli, "run_stl_baselines", "metrics.stl", None),
    ]


def work_layers(fm):
    """Spans for sweeps, reports and the runs-table write path.

    `fm` is a namespace of the loaded fairmtl modules.  Every entry is the
    name its callers look up at call time, so a second name for the same
    function appears where a module imported it with `from ... import`.
    """
    k = getattr(fm.backend, "kernels", None)
    specs = [
        (fm.data.Dataset, "take", "data.take", None),
        (fm.trainer, "forward", "model.forward", None),
        (fm.trainer, "cross_entropy", "losses.xent", None),
        (fm.trainer, "decompose_fairness", "losses.fairness_build",
         count_exclusive),
        (fm.trainer, "fairness_loss", "losses.fairness_build", None),
        (fm.trainer, "subset_select", "losses.fairness_build", None),
        (fm.losses, "fairness_loss", "losses.fairness_build", None),
        (fm.losses, "subset_select", "losses.fairness_build", None),
        (fm.autodiff, "backward", "autodiff.backward", count_graph_nodes),
        (fm.trainer, "train_step", "trainer.step", None),
        (fm.trainer, "adagrad_update", "trainer.update", None),
        (k, "gauss_fwd", "kernels.gauss", record_gauss_shape),
        (k, "gauss_bwd", "kernels.gauss", record_gauss_shape),
        (k, "adagrad_step", "kernels.adagrad", None),
        (fm.sweep, "evaluate_model", "metrics.evaluate", None),
        (fm.sweep, "run_single", "sweep.run_single", None),
        (fm.sweep.RunsWriter, "append", "sweep.append", None),
        (fm.cli, "load_runs", "sweep.load_runs", None),
        (fm.cli, "emit_reports", "sweep.emit_reports", None),
        (fm.sweep, "frontier", "pareto.frontier", count_frontier_points),
        (fm.pareto, "frontier", "pareto.frontier", count_frontier_points),
        (fm.sweep, "frontier_quality", "pareto.frontier_quality", None),
    ]
    for name in ("relu_fwd", "relu_bwd", "sigmoid_fwd", "sigmoid_bwd",
                 "xent_fwd", "xent_bwd"):
        specs.append((k, name, "kernels.elementwise", None))
    return specs
