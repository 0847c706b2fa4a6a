"""In-memory span tracing around the public functions of stacked_stgcn.

Each public function is wrapped where its caller looks it up (a module
global imported by name, a module attribute reached through ``tn.``, or a
class attribute), so the library itself is not modified. A span records its
name, start, end and parent span; self time is a span's duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# The repository's modules; every span name starts with one of them.
LAYERS = ("graph", "layers", "hourglass", "model", "tensor", "training", "evaluate", "cli")
# the taped ops, which layers, hourglass and model reach through ``tn.``
TENSOR_OPS = ("matmul", "add", "scale", "mul", "relu", "sigmoid", "sum_all", "mean_axis",
              "concat", "slice_axis", "gather_rows", "conv1d_temporal", "deconv1d_temporal")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    Counters sit at the same boundaries as the spans, so ratios such as
    distinct sequences per adjacency build are measured where the work is.
    Helpers too small to time (``graph.flat_index``) and a module's private
    functions stay in their caller's self time.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: list = []
        self.counts: Dict[str, float] = defaultdict(float)
        # identity of the sequence each window was sliced from
        self._origin: Dict[int, int] = {}
        self._sources: Dict[int, object] = {}
        # build_adjacency / sliding_infer span -> key of its source sequence
        self.span_source: Dict[int, int] = {}

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        while self._stack and self._stack.pop() != idx:
            pass  # a span left open by an exception ends with its parent

    # -- installation ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              after: Optional[Callable] = None, before: Optional[Callable] = None):
        """``fn`` inside a span; ``before(args, kwargs)`` may replace keyword arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out, idx)
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, **hooks):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, **hooks))

    def install(self) -> None:
        from stacked_stgcn import cli, evaluate, hourglass, layers, model, tensor, training

        def source_key(seq) -> int:
            key = self._origin.pop(id(seq), None)
            if key is None:
                key = id(seq)
                self._sources[key] = seq  # pin it so the id stays unique
            return key

        def note_slice(args, out, idx):
            self._origin[id(out)] = source_key(args[0])

        def note_adjacency(args, out, idx):
            self.counts["graph.build_adjacency.calls"] += 1
            self.counts["graph.adjacency.mb"] += (out.a_s.nbytes + out.a_t.nbytes) / 1e6
            self.span_source[idx] = source_key(args[0])

        def note_infer(args, out, idx):
            self.counts["evaluate.sliding_infer.calls"] += 1
            self.span_source[idx] = source_key(args[0])

        def note_forward(args, out, idx):
            self.counts["model.forward_taped.calls"] += 1
            self.counts["tensor.records"] += len(out[0]._records)

        def note_matmul(args, out, idx):
            (m, k), (_, n) = args[0].shape, args[1].shape
            self.counts["tensor.matmul.calls"] += 1
            self.counts["tensor.matmul.gflop"] += 2.0 * m * k * n / 1e9

        def counter(key):
            def note(args, out, idx):
                self.counts[key] += 1
            return note

        def open_step(args, kwargs):
            self.open("training.step")

        def close_step(args, out, idx):
            top = self._stack[-1] if self._stack else None
            if top is not None and self.spans[top].name == "training.step":
                self.close(top)

        def trace_first_layer(args, kwargs):
            # the per-cluster first layer is a closure of forward_taped
            if kwargs.get("first_layer") is not None:
                kwargs["first_layer"] = self._wrap(kwargs["first_layer"], "model.first_layer")

        p = self._patch
        p(model, "build_adjacency", "graph.build_adjacency", after=note_adjacency)
        p(training, "slice_sequence", "graph.slice_sequence", after=note_slice)
        p(evaluate, "slice_sequence", "graph.slice_sequence", after=note_slice)
        p(training, "pad_sequence", "graph.pad_sequence", after=note_slice)
        p(evaluate, "pad_sequence", "graph.pad_sequence", after=note_slice)
        p(cli, "load_stgs", "graph.load_stgs")
        p(model, "build_level_adjacency", "hourglass.build_level_adjacency")
        p(hourglass, "normalize_adjacency", "layers.normalize_adjacency")
        p(model, "stack_forward", "hourglass.stack_forward", before=trace_first_layer)
        p(hourglass, "hourglass_forward", "hourglass.hourglass_forward")
        p(hourglass, "temporal_conv_flat", "hourglass.temporal_conv_flat")
        p(hourglass, "temporal_deconv_flat", "hourglass.temporal_deconv_flat")
        p(hourglass, "assemble_rows", "layers.assemble_rows")
        p(hourglass, "stgcn_layer", "layers.stgcn_layer",
          after=counter("layers.stgcn_layer.calls"))
        p(model, "spatial_project", "layers.spatial_project")
        p(model, "subtract_mean", "layers.subtract_mean")
        p(model, "harmonize_projection", "layers.harmonize_projection")
        p(model, "flat_presence", "layers.flat_presence")
        p(model, "pooling_matrix", "layers.pooling_matrix")
        p(layers, "cluster_row_index", "layers.cluster_row_index")
        p(model, "head_forward", "hourglass.head_forward")
        p(model.StgcnModel, "forward_taped", "model.forward_taped", after=note_forward)
        p(model.StgcnModel, "forward_scores", "model.forward_scores",
          after=counter("model.forward_scores.calls"))
        p(tensor.Tape, "watch", "tensor.watch")
        for op in TENSOR_OPS:
            p(tensor, op, f"tensor.{op}", after=note_matmul if op == "matmul" else None)
        p(training, "backward", "tensor.backward")
        p(training, "train_window_sample", "training.train_window_sample", before=open_step)
        p(training, "sequence_loss", "training.sequence_loss")
        p(training, "sgd_step", "training.sgd_step", after=close_step)
        p(training, "save_checkpoint", "training.save_checkpoint")
        p(training, "train", "training.train")
        p(cli, "load_checkpoint", "training.load_checkpoint")
        p(cli, "sliding_infer", "evaluate.sliding_infer", after=note_infer)
        p(evaluate, "sliding_infer", "evaluate.sliding_infer", after=note_infer)
        p(cli, "evaluate_multi", "evaluate.evaluate_multi")
        p(cli, "cmd_eval", "cli.eval")
        p(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self._stack.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: Dict[int, List[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda j: self.spans[j].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((s.end - s.start) - covered)
        return out

    def subtree(self, root: int) -> List[int]:
        members = {root}
        end = self.spans[root].end
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].start > end:
                break  # spans are in opening order, so the rest start later
            if self.spans[i].parent in members:
                members.add(i)
        return sorted(members)

    def useful_ratio(self, roots: List[int], name: str) -> float:
        """Mean over ops of distinct source sequences / calls of ``name``.

        Ops without such a call are left out; 0 when no op makes one.
        """
        ratios = []
        for root in roots:
            calls = [i for i in self.subtree(root) if self.spans[i].name == name]
            if calls:
                ratios.append(len({self.span_source[i] for i in calls}) / len(calls))
        return sum(ratios) / len(ratios) if ratios else 0.0

    def layer_partition(self, root: int, self_t: List[float]) -> Dict[str, float]:
        """Self time per layer (module) over the span tree rooted at ``root``."""
        out: Dict[str, float] = defaultdict(float)
        for i in self.subtree(root):
            out[self.spans[i].name.split(".")[0]] += self_t[i]
        return dict(out)

    def write(self, path: str, workload: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "workload": workload,
                }) + "\n")
