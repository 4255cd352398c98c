"""Outside-in tracing: wrap the program's public callables with named spans.

Nothing in the program changes. `instrument` replaces module functions (in
every ecgres module namespace that holds them), `Model.forward`/`backward`,
`Adam.step`, and the `forward`/`backward` of each layer instance of every
`Model` with wrappers that record a span: name, parent span, start and end.
Counters are recorded at the same boundaries, from the arguments and results
of the wrapped call. A span's self time is its duration minus the durations
of its direct children.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path


def _count_load_record(counts, args, rec):
    counts["wfdb_io.samples_decoded"] += rec.header.num_samples * len(rec.channels)


def _count_select(counts, args, index):
    counts["wfdb_io.beats_selected"] += len(index)


def _count_denoise(counts, args, out):
    counts["denoise.samples"] += len(out)


def _count_cut(counts, args, out):
    segments, skips = out
    counts["segment.beats"] += len(segments)
    counts["segment.boundary_skips"] += skips


# (module, attribute, span name, counter) for module-level functions.
# A counter gets (counts, args, result) after the call returns.
FUNCTIONS = [
    ("cli", "main", "cli", None),
    ("wfdb_io", "load_record", "wfdb_io.load_record", _count_load_record),
    ("wfdb_io", "select_dataset", "wfdb_io.select_dataset", _count_select),
    ("denoise", "denoise", "denoise.denoise", _count_denoise),
    ("denoise", "dwt_forward", "denoise.dwt_forward", None),
    ("denoise", "threshold_details", "denoise.threshold_details", None),
    ("denoise", "dwt_inverse", "denoise.dwt_inverse", None),
    ("denoise", "remove_baseline", "denoise.remove_baseline", None),
    ("segment", "segment_record_beats", "segment.cut", _count_cut),
    ("segment", "build_split", "segment.build_split", None),
    ("segment", "save_segments", "segment.save_segments", None),
    ("segment", "load_segments", "segment.load_segments", None),
    ("segment", "segments_to_arrays", "segment.segments_to_arrays", None),
    ("model", "train", "model.train_self", None),
    ("model", "predict_batch", "model.predict_batch", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("nn", "softmax_cross_entropy", "nn.softmax_cross_entropy", None),
    ("metrics", "confusion", "metrics.confusion", None),
    ("metrics", "compute_metrics", "metrics.compute_metrics", None),
    ("metrics", "emit_report", "metrics.emit_report", None),
]

# The 14 layer attributes of `model.Model`, in forward order.
NN_LAYERS = ["conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "res_conv1",
             "res_relu", "res_conv2", "res_proj", "relu3", "fc1", "relu4", "fc2"]


class Tracer:
    """Records spans while `enabled`; a disabled wrapper only calls through."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per finished span: [op, span id, parent id, name id, start ns, end ns]
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0
        self.op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, nid, start, end))
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return traced

    def run_op(self, op: int, fn, *args):
        """Run one benchmark op as the root span "op"."""
        self.op = op
        return self.wrap("op", fn)(*args)

    def self_times_ns(self) -> dict[str, tuple[int, int, int]]:
        """name -> (total ns, self ns, calls) over all recorded spans."""
        child = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for _, sid, _, nid, start, end in self.spans:
            row = out[self.names[nid]]
            row[0] += end - start
            row[1] += end - start - child[sid]
            row[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """Write the spans kept in memory as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"columns": ["op", "span", "parent", "name", "start_ns", "end_ns"],
               "names": self.names, "spans": self.spans, "counts": self.counts}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _patch_everywhere(mods: dict, original, replacement) -> None:
    """Point every ecgres module attribute bound to `original` at `replacement`."""
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def conv_macs(layer, x_shape) -> int:
    """Multiply-accumulates of one Conv1d forward, computed from shapes."""
    b, c, n = x_shape
    out_ch, _, k = layer.params["w"].shape
    n_out = (n + 2 * layer.padding - k) // layer.stride + 1
    return b * out_ch * n_out * c * k


def _layer_counter(name: str, layer, nn, backward: bool):
    """Computed MACs of a Conv1d/Dense call; backward does two products."""
    key = f"nn.{name}.macs"
    factor = 2 if backward else 1
    if isinstance(layer, nn.Conv1d):
        # backward returns the input gradient, which has the input's shape
        def count(counts, args, out):
            counts[key] += factor * conv_macs(layer, (out if backward else args[0]).shape)
        return count
    if isinstance(layer, nn.Dense):
        def count(counts, args, out):
            counts[key] += factor * args[0].shape[0] * layer.params["w"].size
        return count
    return None


def tag_model(tracer: Tracer, model, nn) -> None:
    """Wrap the forward/backward of each layer instance of one model."""
    for name in NN_LAYERS:
        layer = getattr(model, name)
        layer.forward = tracer.wrap(f"nn.{name}.forward", layer.forward,
                                    _layer_counter(name, layer, nn, False))
        layer.backward = tracer.wrap(f"nn.{name}.backward", layer.backward,
                                     _layer_counter(name, layer, nn, True))


def instrument(tracer: Tracer, mods: dict, models=()) -> None:
    """Wrap the program's callables in `mods` (name -> ecgres module).

    `models` are Model instances built before this call; models built later
    are tagged by the wrapped `Model.__init__`.
    """
    for mod_name, attr, span, counter in FUNCTIONS:
        original = getattr(mods[mod_name], attr)
        _patch_everywhere(mods, original, tracer.wrap(span, original, counter))

    md, nn = mods["model"], mods["nn"]
    md.Model.forward = tracer.wrap("model.forward_self", md.Model.forward)
    md.Model.backward = tracer.wrap("model.backward_self", md.Model.backward)
    nn.Adam.step = tracer.wrap("nn.adam.step", nn.Adam.step)

    init = md.Model.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tag_model(tracer, self, nn)

    md.Model.__init__ = traced_init
    for model in models:
        tag_model(tracer, model, nn)
