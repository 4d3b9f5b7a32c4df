"""Span tracer installed on hypermesh from outside the package.

The tracer replaces the public functions and methods listed in ``TARGETS``
with timing wrappers, wherever the name is bound: the defining module and
every ``hypermesh`` module that imported the function by name. Methods are replaced on their class. ``tensor._make`` gets a
counting wrapper, so a span's ``nodes`` are the tape nodes created inside it.

Each span records its inclusive duration and node count, and its self part:
the inclusive figure minus what its child spans cover. ``uninstall``
restores every original binding, so traced and untraced operations can
alternate within one process. Collector passes that start outside every
span are timed apart, so that an operation's latency can be accounted for.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import sys
import time

import numpy as np

perf = time.perf_counter

# (span name, hypermesh module, attribute, or "Class.method")
TARGETS = [
    ("tensor.backward", "tensor", "Tensor.backward"),
    ("manifold.mobius_add", "manifold", "mobius_add"),
    ("manifold.mobius_matvec", "manifold", "mobius_matvec"),
    ("manifold.expmap0", "manifold", "expmap0"),
    ("manifold.logmap0", "manifold", "logmap0"),
    ("manifold.project_to_ball", "manifold", "project_to_ball"),
    ("layers.HyperAttention", "layers", "HyperAttention.__call__"),
    ("layers.HyperFFN", "layers", "HyperFFN.__call__"),
    ("layers.HyperAdaLN", "layers", "HyperAdaLN.__call__"),
    ("layers.HyperbolicLinear", "layers", "HyperbolicLinear.__call__"),
    ("temporal.TemporalPriorExtractor", "temporal", "TemporalPriorExtractor.__call__"),
    ("temporal.GruCell", "temporal", "GruCell.__call__"),
    ("temporal.EuclideanAttention", "temporal", "EuclideanAttention.__call__"),
    ("pipeline.OptBlock", "pipeline", "OptBlock.__call__"),
    ("pipeline.fuse_and_upsample", "pipeline", "fuse_and_upsample"),
    ("losses.euclidean_losses", "losses", "euclidean_losses"),
    ("losses.hyperbolic_mesh_loss", "losses", "hyperbolic_mesh_loss"),
    ("train.scene_loss", "train", "scene_loss"),
    ("train.SGD.step", "train", "SGD.step"),
    ("train.build_pipeline", "train", "build_pipeline"),
    ("metrics.write_metric_report", "metrics", "write_metric_report"),
    ("tensor_io.save_checkpoint", "tensor_io", "save_checkpoint"),
    ("tensor_io.load_checkpoint", "tensor_io", "load_checkpoint"),
    ("synth.synth_generate", "synth", "synth_generate"),
]
NODE_COUNTER = ("tensor", "_make")
ROOT = "op"
# With ``keep_tape_roots`` set, the fine-mesh vertices this span returns are
# kept, so that the tape of an operation can be walked after it returns.
TAPE_ROOT_SPAN = "pipeline.fuse_and_upsample"
# An operation's latency must equal the self times of its spans plus the
# collector passes outside them, within this much: the rest is the call
# into the root span and its return, a few microseconds.
ACCOUNT_ATOL_S = 2e-3
ACCOUNT_RTOL = 0.02

# per-span stat slots
CALLS, INCL_S, SELF_S, INCL_NODES, SELF_NODES = range(5)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.nodes = 0
        self.gc_s = 0.0
        self.gc_outside_s = 0.0
        self.gc_gen2 = 0
        self.projections: list[tuple[np.ndarray, np.ndarray]] = []
        self.keep_tape_roots = False
        self.tape_roots: list = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._gc_t0 = 0.0
        self._gc_outside = False
        self._bindings = self._find_bindings()

    # -- installation --------------------------------------------------------

    def _find_bindings(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "hypermesh" or n.startswith("hypermesh.")]
        bindings = []
        for name, modname, attr in TARGETS + [("tensor._make", *NODE_COUNTER)]:
            try:
                module = importlib.import_module(f"hypermesh.{modname}")
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = (vars(owner).get(meth) if isinstance(owner, type)
                        else getattr(owner, meth, None))
            if original is None:
                self.missing.append(name)
                continue
            wrapper = (self._counter(original) if name == "tensor._make"
                       else self._span(name, original))
            if cls_name:
                bindings.append((owner, meth, original, wrapper))
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        bindings.append((ns, key, original, wrapper))
        return bindings

    def install(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)
        gc.callbacks.remove(self._on_gc)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, make):
        tracer = self

        @functools.wraps(make)
        def counted(*args, **kwargs):
            tracer.nodes += 1
            return make(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        tracer = self
        stack = self._stack
        stats = self.stats
        is_projection = name == "manifold.project_to_ball"
        is_tape_root = name == TAPE_ROOT_SPAN

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            child = [0.0, 0]
            stack.append(child)
            n0 = tracer.nodes
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                nodes = tracer.nodes - n0
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0, 0, 0]
                s[CALLS] += 1
                s[INCL_S] += dur
                s[SELF_S] += dur - child[0]
                s[INCL_NODES] += nodes
                s[SELF_NODES] += nodes - child[1]
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += nodes
            if is_projection:
                # kept by reference; the rescale ratio is computed after the op
                x = args[0] if args else kwargs["x"]
                tracer.projections.append((getattr(x, "data", x), out.data))
            elif is_tape_root and tracer.keep_tape_roots:
                tracer.tape_roots.append(out[1].vertices)
            return out
        return spanned

    def root(self, fn):
        """Wrap one benchmark operation as the root span ``op``."""
        return self._span(ROOT, fn)

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_outside = not self._stack
            self._gc_t0 = perf()
        else:
            dur = perf() - self._gc_t0
            self.gc_s += dur
            if self._gc_outside:
                self.gc_outside_s += dur
            if info["generation"] == 2:
                self.gc_gen2 += 1

    # -- per-phase snapshots -------------------------------------------------

    def reset(self) -> None:
        self.stats.clear()
        self.nodes = 0
        self.gc_s = 0.0
        self.gc_outside_s = 0.0
        self.gc_gen2 = 0
        self.projections.clear()
        self.tape_roots.clear()

    def snapshot(self) -> dict:
        """Stats since the last reset, with the projection rescale tally."""
        rescaled = seen = 0
        for before, after in self.projections:
            before = np.asarray(before)
            if before.ndim == 0:
                continue
            changed = (before != after).reshape(-1, before.shape[-1]).any(axis=1)
            rescaled += int(changed.sum())
            seen += changed.size
        snap = {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "nodes": self.nodes,
            "gc_s": self.gc_s,
            "gc_outside_s": self.gc_outside_s,
            "gc_gen2": self.gc_gen2,
            "rows_rescaled": rescaled,
            "rows_seen": seen,
        }
        self.reset()
        return snap


def counts_of(snap: dict) -> dict:
    """The exact counts of one snapshot: calls and nodes per span, total nodes."""
    out = {"tensor.nodes": snap["nodes"]}
    for name, s in snap["stats"].items():
        out[name + ".calls"] = s[CALLS]
        out[name + ".nodes"] = s[SELF_NODES]
    return out


def accounting_errors(snap: dict, latency_s: float) -> list[str]:
    """The self times of one operation's spans, plus the collector passes
    outside them, must add up to its measured latency; its self nodes must
    add up to the node counter."""
    stats = snap["stats"]
    root = stats.get(ROOT)
    if root is None or root[CALLS] != 1:
        return ["no single root span"]
    problems = []
    accounted = sum(s[SELF_S] for s in stats.values()) + snap["gc_outside_s"]
    if abs(latency_s - accounted) > ACCOUNT_ATOL_S + ACCOUNT_RTOL * latency_s:
        problems.append(f"spans account for {accounted!r} s of a {latency_s!r} s operation")
    nodes_sum = sum(s[SELF_NODES] for s in stats.values())
    if nodes_sum != root[INCL_NODES] or root[INCL_NODES] != snap["nodes"]:
        problems.append(f"self nodes sum to {nodes_sum}, root span has "
                        f"{root[INCL_NODES]}, counter has {snap['nodes']}")
    return problems


# -- per-layer metrics ----------------------------------------------------------

MANIFOLD_OPS = ("mobius_add", "mobius_matvec", "expmap0", "logmap0", "project_to_ball")
LAYER_CLASSES = ("HyperAttention", "HyperFFN", "HyperAdaLN", "HyperbolicLinear")
# (metric, span, stat slot, scale) taken per traced operation
PER_OP = (
    [("op.self_ms", ROOT, SELF_S, 1e3),
     ("tensor.backward.ms", "tensor.backward", INCL_S, 1e3)]
    + [(f"manifold.{op}.{q}", f"manifold.{op}", slot, scale)
       for op in MANIFOLD_OPS
       for q, slot, scale in (("calls", CALLS, 1), ("self_ms", SELF_S, 1e3),
                              ("nodes", SELF_NODES, 1))]
    + [(f"layers.{cls}.{q}", f"layers.{cls}", slot, scale)
       for cls in LAYER_CLASSES
       for q, slot, scale in (("calls", CALLS, 1), ("self_ms", SELF_S, 1e3))]
    + [("temporal.TemporalPriorExtractor.ms", "temporal.TemporalPriorExtractor", INCL_S, 1e3),
       ("temporal.GruCell.self_ms", "temporal.GruCell", SELF_S, 1e3),
       ("temporal.EuclideanAttention.self_ms", "temporal.EuclideanAttention", SELF_S, 1e3),
       ("pipeline.OptBlock.calls", "pipeline.OptBlock", CALLS, 1),
       ("pipeline.OptBlock.ms", "pipeline.OptBlock", INCL_S, 1e3),
       ("pipeline.OptBlock.self_ms", "pipeline.OptBlock", SELF_S, 1e3),
       ("pipeline.fuse_and_upsample.ms", "pipeline.fuse_and_upsample", INCL_S, 1e3),
       ("losses.euclidean_losses.ms", "losses.euclidean_losses", INCL_S, 1e3),
       ("losses.hyperbolic_mesh_loss.ms", "losses.hyperbolic_mesh_loss", INCL_S, 1e3),
       ("train.scene_loss.ms", "train.scene_loss", INCL_S, 1e3),
       ("train.SGD.step.ms", "train.SGD.step", INCL_S, 1e3),
       ("metrics.write_metric_report.ms", "metrics.write_metric_report", INCL_S, 1e3),
       ("tensor_io.load_checkpoint.ms", "tensor_io.load_checkpoint", INCL_S, 1e3)]
)
# (metric, span) taken as ms per call outside the timed operations
PER_CALL = (
    ("train.build_pipeline.ms", "train.build_pipeline"),
    ("synth.synth_generate.ms", "synth.synth_generate"),
    ("tensor_io.save_checkpoint.ms", "tensor_io.save_checkpoint"),
)
UNITS = {"calls": "count", "nodes": "count", "files": "count", "gen2_collections": "count",
         "ms": "ms", "self_ms": "ms", "bytes": "B", "retained_grad_mb": "MB",
         "rescale_ratio": "ratio", "overhead_pct": "%"}


def per_layer_metrics(result: dict, problems: list[str]) -> dict:
    """Per-layer metrics of one traced run; appends failed trace checks to
    ``problems``. A traced name that no longer exists is left out."""
    trace = result["trace"]
    ops = trace["ops"]
    if not ops or not result["latencies_s"]:
        problems.append("the run holds no traced and untraced operation pair")
        return {}
    first = counts_of(ops[0])
    for i, snap in enumerate(ops[1:], 1):
        if counts_of(snap) != first:
            diff = sorted(k for k in set(first) | set(counts_of(snap))
                          if first.get(k) != counts_of(snap).get(k))
            problems.append(f"traced op {i} counts differ from op 0 in {diff[:5]}")
            break
    missing = set(trace["missing"])
    n = len(ops)
    total: dict[str, list] = {}
    for snap in ops:
        for name, s in snap["stats"].items():
            acc = total.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for k in range(5):
                acc[k] += s[k]
    outside: dict[str, list] = {}
    for snap in (trace["setup"], trace["end"]):
        for name, s in (snap or {"stats": {}})["stats"].items():
            acc = outside.setdefault(name, [0, 0.0])
            acc[0] += s[CALLS]
            acc[1] += s[INCL_S]

    values = {"tensor.nodes": sum(s["nodes"] for s in ops) / n}
    if trace["retained_grad_bytes"] is not None:
        values["tensor.retained_grad_mb"] = trace["retained_grad_bytes"] / 2**20
    for metric, span, slot, scale in PER_OP:
        if span not in missing:
            values[metric] = total.get(span, [0] * 5)[slot] / n * scale
    if "manifold.project_to_ball" not in missing:
        seen = sum(s["rows_seen"] for s in ops)
        values["manifold.project_to_ball.rescale_ratio"] = (
            sum(s["rows_rescaled"] for s in ops) / seen if seen else 0.0)
    for metric, span in PER_CALL:
        if span not in missing:
            calls, secs = outside.get(span, (0, 0.0))
            values[metric] = secs / calls * 1e3 if calls else 0.0
    if "tensor_io.save_checkpoint" not in missing:
        values["tensor_io.save_checkpoint.bytes"] = trace["checkpoint_bytes"]
        values["tensor_io.save_checkpoint.files"] = trace["checkpoint_files"]
    values["gc.ms"] = sum(s["gc_s"] for s in ops) / n * 1e3
    values["gc.gen2_collections"] = sum(s["gc_gen2"] for s in ops) / n
    values["setup.import_hypermesh.ms"] = trace["import_s"] * 1e3
    traced, untraced = trace["traced_latencies_s"], result["latencies_s"]
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    if "tensor._make" in missing:  # no node counter: no node counts either
        values = {k: v for k, v in values.items() if not k.endswith(".nodes")}
    for name in sorted(missing):
        print(f"missing: {name} no longer exists in hypermesh", file=sys.stderr)
    print(f"{n} traced and {len(result['latencies_s'])} untraced operations")
    return {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[1]]} for k, v in values.items()}
