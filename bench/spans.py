"""Span tracing from outside the program.

A ``Tracer`` replaces public functions of ``cmvqa`` with wrappers, under the
names their callers use to reach them, and records one span per call:
(name, start, end, parent).  Spans are kept in memory and written out when
the benchmark ends.  Nothing inside ``src/`` is edited; ``restore()`` puts
every original back.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

# Every span name the per-layer table reports, with the layer it belongs to.
# A name that sees no calls in a run is reported as missing, never as 0 ms.
SPAN_NAMES = (
    "numerics.backward",
    "numerics.adam_step",
    "numerics.lstm_step",
    "vision.classify_type",
    "vision.backbone_forward",
    "vision.blend",
    "question.embed",
    "question.encode_question",
    "fusion.build_multimodal_map",
    "fusion.glimpse0",
    "fusion.glimpse1",
    "fusion.cmsa_fuse",
    "heads.predict_answer",
    "heads.compatibility_head",
    "heads.image_task_head",
    "heads.loss",
    "model.forward",
    "model.save_checkpoint",
    "bundle.write_bundle",
    "bundle.read_bundle",
    "data.generate_synthetic",
    "data.save_dataset",
    "data.load_dataset",
    "train.run_eval",
)


def cmsa_madds(config) -> int:
    """Multiply-adds of one ``cmsa_fuse`` forward, computed from its shapes.

    Per glimpse: Q/K/V maps (3 N D_f qkv), Q K^T and A V (2 N^2 qkv) and the
    map back to D_f (N qkv D_f); then the final D_f -> D_q projection per
    word.  Softmax, concatenation and pooling are not counted.
    """
    n, d_f, qkv = config.n_positions, config.d_f, config.qkv_channels
    per_glimpse = 3 * n * d_f * qkv + 2 * n * n * qkv + n * qkv * d_f
    return config.glimpses * per_glimpse + config.l_w * d_f * config.d_q


def _graph_size(root) -> int:
    """Nodes Tensor.backward visits from ``root``: parents that need grads."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def span_cost_s(calls: int = 2000, repeats: int = 7) -> float:
    """What one span adds to a call: a traced no-op against a bare one,
    median over ``repeats`` blocks of ``calls`` calls."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


class Patches:
    """Attribute replacements that ``restore`` undoes, last one first."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (a module or class attribute)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        super().__init__()
        # One column per span field, so recording allocates no container the
        # garbage collector has to scan: name, start, end, parent index or -1.
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.graph_nodes: list[int] = []
        self._glimpse = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(None)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    @property
    def spans(self) -> list[tuple]:
        """(name, start, end, parent index or -1) per span, in opening order."""
        return list(zip(self._names, self._starts, self._ends, self._parents))

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------

    def patch_span(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

    def install(self) -> None:
        """Wrap every layer boundary of ``cmvqa`` the per-layer table names."""
        from cmvqa import data, fusion, model, question, train
        from cmvqa.numerics import Tensor

        for attr, name in (
            ("classify_type", "vision.classify_type"),
            ("backbone_forward", "vision.backbone_forward"),
            ("blend", "vision.blend"),
            ("embed", "question.embed"),
            ("encode_question", "question.encode_question"),
            ("predict_answer", "heads.predict_answer"),
            ("compatibility_head", "heads.compatibility_head"),
            ("image_task_head", "heads.image_task_head"),
        ):
            self.patch_span(model, attr, name)
        for attr, name in (
            ("adam_step", "numerics.adam_step"),
            ("vqa_loss", "heads.loss"),
            ("pretrain_loss", "heads.loss"),
            ("save_checkpoint", "model.save_checkpoint"),
            ("load_dataset", "data.load_dataset"),
            ("run_eval", "train.run_eval"),
        ):
            self.patch_span(train, attr, name)
        for attr, name in (
            ("generate_synthetic", "data.generate_synthetic"),
            ("save_dataset", "data.save_dataset"),
            ("load_dataset", "data.load_dataset"),
        ):
            self.patch_span(data, attr, name)
        self.patch_span(question, "lstm_step", "numerics.lstm_step")
        self.patch_span(fusion, "build_multimodal_map", "fusion.build_multimodal_map")
        # model.forward's span comes from the benchmark's always-on forward
        # clock, so each forward has one wrapper, not two.

        self._patch_bundles(model)
        self._patch_bundles(data)
        self._patch_cmsa(model, fusion)
        self._patch_backward(Tensor)

    def _patch_bundles(self, owner) -> None:
        """Span and byte count for the bundle reads and writes ``owner`` makes."""
        write, read = owner.__dict__["write_bundle"], owner.__dict__["read_bundle"]

        def counted_write(tensors, path):
            write(tensors, path)
            self.counts["bundle.write_bundle.bytes"] += os.path.getsize(path)

        def counted_read(path):
            self.counts["bundle.read_bundle.bytes"] += os.path.getsize(path)
            return read(path)

        self.patch(owner, "write_bundle", self.wrap("bundle.write_bundle", counted_write))
        self.patch(owner, "read_bundle", self.wrap("bundle.read_bundle", counted_read))

    def _patch_cmsa(self, model, fusion) -> None:
        attention = fusion.__dict__["self_attention_pass"]

        @functools.wraps(attention)
        def glimpse(*args, **kwargs):
            name = f"fusion.glimpse{self._glimpse}"
            self._glimpse += 1
            return self.call(name, attention, *args, **kwargs)

        self.patch(fusion, "self_attention_pass", glimpse)
        for owner in (model, fusion):
            fuse = owner.__dict__["cmsa_fuse"]

            def traced_fuse(v, s, q, params, config, _fuse=fuse):
                self._glimpse = 0
                self.counts["fusion.madds"] += cmsa_madds(config)
                return self.call("fusion.cmsa_fuse", _fuse, v, s, q, params, config)

            self.patch(owner, "cmsa_fuse", traced_fuse)

    def _patch_backward(self, tensor_cls) -> None:
        backward = tensor_cls.__dict__["backward"]

        @functools.wraps(backward)
        def traced_backward(root):
            # the graph walk is the tracer's own work, so it gets its own span
            self.graph_nodes.append(self.call("trace.graph_walk", _graph_size, root))
            return self.call("numerics.backward", backward, root)

        self.patch(tensor_cls, "backward", traced_backward)

    # -- results -------------------------------------------------------------

    def self_times_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus the child spans' durations."""
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ms[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(spans, child_ms):
            out[name] += (end - start - children) * 1000.0
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self._names:
            out[name] += 1
        return dict(out)

    def nesting_ok(self) -> bool:
        """Each span closed, inside its parent, and after its previous sibling."""
        last_end: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            if end is None or end < start:
                return False
            if parent >= 0:
                if start < self._starts[parent] or end > self._ends[parent]:
                    return False
            if start < last_end.get(parent, float("-inf")):
                return False
            last_end[parent] = end
        return True

    def overhead_ms(self) -> float:
        """The tracer's own cost: its graph walks and invariant checks, plus
        what one wrapper adds to a call times the number of spans."""
        own = self.self_times_ms()
        return (own.get("trace.graph_walk", 0.0) + own.get("trace.invariant_monitor", 0.0)
                + len(self._names) * span_cost_s() * 1000.0)

    def top_level_ms(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) * 1000.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
