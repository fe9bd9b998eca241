"""Attribute avscene's time to layers, tensor ops and directions from outside.

Installing a ``Tracer`` replaces the public entry points of each layer, and
every tensor op that a package module imports by name, with timing wrappers;
leaving the ``installed()`` block restores the originals. No file of the
package changes.

Every wrapped call is a span. A span's self time is its duration minus the
duration of the spans it called, and is booked under ``(phase, layer, op)``:

- phase: the outermost direction span, one of ``fwd`` (``SceneModel.forward``
  and head ops called outside it, such as the loss), ``bwd``
  (``Tensor.backward``), ``sgd`` (``SGD.step``), ``eval`` (``evaluate``),
  ``load_wav`` and ``logmel``;
- layer: the innermost layer span (``backbone.stem``, ``backbone.stageN``,
  ``fusion.afm``, ``graphs``, ``gcn``, ``head``), or ``None`` for glue code
  that no layer wrapper covers;
- op: the tensor op's function name, or ``None`` outside ops.

An op wrapper also wraps the backward closure of the node it returns, so a
closure's time is booked to the layer and op that created the node. Time in
``Tensor.backward`` outside every closure is the tape walk. Time outside every
top-level span is unattributed, so the booked self times plus the
unattributed time add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from collections import defaultdict

from avscene import backbone, frontend, fusion, gcn, graphs, tensor
from avscene import model as model_mod

# Op kinds reported one by one; every other op is reported as "other".
OP_KINDS = (
    "conv2d",
    "conv1x1",
    "bilinear_upsample",
    "gather_pixels",
    "channel_affine",
    "relu",
    "concat",
    "slice_batch",
)
STAGES = ("stem", "stage2", "stage3", "stage4", "stage5")
# Functions of avscene.tensor that build no tape node.
NOT_OPS = frozenset(
    {
        "no_grad",
        "softmax_probs",
        "bilinear_resize_array",
        "finite_diff_check",
        "read_agt1",
        "write_agt1",
    }
)
OP_MODULES = (backbone, fusion, gcn, graphs, model_mod)
# Ops that are the head layer when the model module calls them.
HEAD_OPS = ("linear", "softmax_cross_entropy")


def _imported_ops(module):
    for name, value in vars(module).items():
        if (
            callable(value)
            and getattr(value, "__module__", None) == tensor.__name__
            and not isinstance(value, type)
            and not name.startswith("_")
            and name not in NOT_OPS
        ):
            yield name, value


class Tracer:
    """Span stack plus self-time totals; install with ``installed()``."""

    def __init__(self):
        self.self_time: dict = defaultdict(float)  # (phase, layer, op) -> s
        self.counts: dict = defaultdict(int)
        self.covered = 0.0  # summed duration of top-level spans, s
        self.alloc_peak: dict = defaultdict(int)  # phase -> bytes
        self._stack: list = []  # [phase, layer, op, start, child_time]
        self._model = None
        self._layers: dict = {}  # id of stem unit or block -> layer name

    # -- spans -------------------------------------------------------------

    def _enter(self, phase, layer, op) -> str:
        if self._stack:
            phase = self._stack[-1][0]
        elif tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        self._stack.append([phase, layer, op, time.perf_counter(), 0.0])
        return phase

    def _exit(self) -> None:
        phase, layer, op, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_time[phase, layer, op] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        else:
            self.covered += duration
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                self.alloc_peak[phase] = max(self.alloc_peak[phase], peak)

    def _layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _span(self, fn, phase="fwd", layer=None, count=None):
        def wrapper(*args, **kwargs):
            if self._enter(phase, layer, None) == "fwd" and count:
                self.counts[count] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _op(self, fn, layer=None):
        kind = fn.__name__

        def wrapper(*args, **kwargs):
            node_layer = layer if layer is not None else self._layer()
            self._enter("fwd", node_layer, kind)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            inner = getattr(out, "_backward", None)
            if inner is not None:
                self.counts["tape_nodes"] += 1

                def backward(g):
                    self._enter("bwd", node_layer, kind)
                    try:
                        inner(g)
                    finally:
                        self._exit()

                out._backward = backward
            return out

        return wrapper

    # -- layer entry points that need the model ----------------------------

    def _bind(self, model) -> None:
        # Holding the model keeps the ids in the layer map from being reused.
        self._model = model
        self._layers = {id(model.backbone.stem): "backbone.stem"}
        for name, stage in zip(STAGES[1:], model.backbone.stages):
            self._layers.update((id(block), f"backbone.{name}") for block in stage)

    def _scene_forward(self, fn):
        span = self._span(fn, phase="fwd")

        def wrapper(model, *args, **kwargs):
            if model is not self._model:
                self._bind(model)
            return span(model, *args, **kwargs)

        return wrapper

    def _backbone_forward(self, fn):
        """The stem unit and each residual block; other conv units pass through."""

        def wrapper(unit, x):
            layer = self._layers.get(id(unit))
            if layer is None:
                return fn(unit, x)
            return self._span(fn, layer=layer)(unit, x)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replacements(self):
        for module in OP_MODULES:
            for name, fn in _imported_ops(module):
                head = module is model_mod and name in HEAD_OPS
                yield module, name, self._op(fn, layer="head" if head else None)
        spans = (
            (model_mod.SceneModel, "forward", self._scene_forward),
            (backbone.ConvUnit, "forward", self._backbone_forward),
            (backbone.ResidualBlock, "forward", self._backbone_forward),
            (fusion.AttentionFusion, "forward", lambda f: self._span(f, layer="fusion.afm")),
            (model_mod, "build_scene_graphs", lambda f: self._span(f, layer="graphs", count="graphs.calls")),
            (model_mod, "propagation_matrix", lambda f: self._span(f, layer="gcn", count="gcn.propagation_calls")),
            (model_mod, "gcn_layer", lambda f: self._span(f, layer="gcn")),
            (model_mod, "graph_readout", lambda f: self._span(f, layer="gcn")),
            (model_mod.SGD, "step", lambda f: self._span(f, phase="sgd")),
            (model_mod, "evaluate", lambda f: self._span(f, phase="eval")),
            (tensor.Tensor, "backward", lambda f: self._span(f, phase="bwd")),
            (frontend, "load_wav", lambda f: self._span(f, phase="load_wav")),
            (frontend, "extract_logmel", lambda f: self._span(f, phase="logmel")),
        )
        for owner, name, make in spans:
            fn = getattr(owner, name, None)
            if fn is not None:  # an entry point a later refactor removed reads 0
                yield owner, name, make(fn)

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        try:
            for owner, name, wrapper in list(self._replacements()):
                saved.append((owner, name, getattr(owner, name)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- report ------------------------------------------------------------

    def metrics(self, steps: int, wall_s: float) -> dict:
        """Per-step per-layer metrics, as name -> (value, unit).

        ``wall_s`` is the traced wall time that covered ``steps`` steps; the
        direction totals plus ``trace.unattributed_ms`` add up to
        ``trace.step_ms``.
        """
        phase_s = defaultdict(float)
        layer_s = defaultdict(float)
        op_s = defaultdict(float)
        for (phase, layer, op), seconds in self.self_time.items():
            phase_s[phase] += seconds
            layer_s[phase, layer] += seconds
            if op is not None:
                op_s[phase, op if op in OP_KINDS else "other"] += seconds
        walk = self.self_time.get(("bwd", None, None), 0.0)

        def ms(seconds):
            return (1000.0 * seconds / steps, "ms")

        out = {
            "model.fwd_ms": ms(phase_s["fwd"]),
            "model.bwd_ms": ms(phase_s["bwd"]),
            "model.sgd_ms": ms(phase_s["sgd"]),
            "model.evaluate_ms": ms(phase_s["eval"]),
            "model.bwd_fwd_ratio": (
                phase_s["bwd"] / phase_s["fwd"] if phase_s["fwd"] else 0.0,
                "ratio",
            ),
            "model.glue.fwd_ms": ms(layer_s["fwd", None]),
            "model.glue.bwd_ms": ms(layer_s["bwd", None] - walk),
        }
        for stage in STAGES:
            for d in ("fwd", "bwd"):
                out[f"backbone.{stage}.{d}_ms"] = ms(layer_s[d, f"backbone.{stage}"])
        for d in ("fwd", "bwd"):
            out[f"fusion.afm.{d}_ms"] = ms(layer_s[d, "fusion.afm"])
            out[f"head.{d}_ms"] = ms(layer_s[d, "head"])
        out["graphs.build_ms"] = ms(layer_s["fwd", "graphs"])
        out["graphs.bwd_ms"] = ms(layer_s["bwd", "graphs"])
        out["graphs.calls"] = (self.counts["graphs.calls"] / steps, "count")
        out["gcn.fwd_ms"] = ms(layer_s["fwd", "gcn"])
        out["gcn.bwd_ms"] = ms(layer_s["bwd", "gcn"])
        out["gcn.propagation_calls"] = (
            self.counts["gcn.propagation_calls"] / steps,
            "count",
        )
        for kind in OP_KINDS + ("other",):
            for d in ("fwd", "bwd"):
                out[f"tensor.op.{kind}.{d}_ms"] = ms(op_s[d, kind])
        out["tensor.tape_nodes"] = (self.counts["tape_nodes"] / steps, "count")
        out["tensor.backward_walk_ms"] = ms(walk)
        out["frontend.load_wav_ms"] = ms(phase_s["load_wav"])
        out["frontend.logmel_ms"] = ms(phase_s["logmel"])
        out["trace.step_ms"] = ms(wall_s)
        out["trace.unattributed_ms"] = ms(wall_s - self.covered)
        return out

    def alloc_metrics(self) -> dict:
        """Peak bytes traced by tracemalloc during forward and backward, in MB."""
        mb = 1024.0 * 1024.0
        return {
            "tensor.fwd_peak_alloc_mb": (self.alloc_peak["fwd"] / mb, "MB"),
            "tensor.bwd_peak_alloc_mb": (self.alloc_peak["bwd"] / mb, "MB"),
        }
