"""Per-layer spans of a chants run, recorded from outside the package.

``Tracer.install()`` replaces public functions of ``chants`` with timing
wrappers for the duration of a ``with`` block and restores the originals on
exit. A name bound by ``from .tensor import ...`` is a separate binding in
each importing module, so a function is replaced in every ``chants`` module
that holds it. Each span is kept in memory as ``[name, start, end, parent,
unit]``, where ``parent`` indexes the enclosing span (-1 at top level) and
``unit`` is the step, pass or probe it belongs to; the workload advances
``tracer.unit`` at each unit boundary. Per-op backward time comes from
wrapping the backward closure of the tape node each op returns.

The multiply-accumulate model for the ``cat`` encoder variant lives here
too, because the encoder spans count their work with it.
"""

from __future__ import annotations

import contextlib
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

TENSOR_OPS = (
    "matmul", "add", "mul", "div", "gelu", "dropout", "softmax",
    "exp", "log", "sqrt", "tensor_sum", "reshape", "transpose",
)


# ---------------------------------------------------------------------------
# multiply-accumulate model (cat variant: each tower cross-attends the other)
# ---------------------------------------------------------------------------


def attention_macs(batch: int, lq: int, lk: int, width: int, out_proj: bool) -> int:
    """Q on lq rows, K and V on lk rows, the optional output projection,
    then the scores and attention x V (each lq * lk * width over all heads)."""
    proj = (lq + 2 * lk + (lq if out_proj else 0)) * width * width
    return batch * (proj + 2 * lq * lk * width)


def ffn_macs(rows: int, width: int, hidden: int) -> int:
    return 2 * rows * width * hidden


def layer_norm_macs(elements: int) -> int:
    """Counted as three per element: the sum, the sum of squares, the affine map."""
    return 3 * elements


def embed_macs(batch: int, channels: int, steps: int, width: int) -> int:
    """x^T W_time for the time stream plus x W_chan for the channel stream."""
    return 2 * batch * channels * steps * width


def co_layer_macs(batch: int, channels: int, steps: int, width: int) -> int:
    def tower(lq, lk):
        rows = batch * lq
        return (
            attention_macs(batch, lq, lk, width, True)
            + ffn_macs(rows, width, 4 * width)
            + 2 * layer_norm_macs(rows * width)
        )

    return tower(steps, channels) + tower(channels, steps)


def aggregate_macs(batch: int, channels: int, steps: int, width: int) -> int:
    return attention_macs(batch, channels, steps, width, False)


def encoder_macs(batch: int, channels: int, steps: int, width: int, depth: int) -> int:
    """One forward pass of ``batch`` samples through the whole encoder."""
    return (
        embed_macs(batch, channels, steps, width)
        + depth * co_layer_macs(batch, channels, steps, width)
        + aggregate_macs(batch, channels, steps, width)
    )


def _shape(value) -> tuple[int, ...]:
    return np.shape(getattr(value, "data", value))


def _lead(shape) -> int:
    return math.prod(shape[:-2])


def _embed_hook(x, params, *_, **__):
    *lead, channels, steps = _shape(x)
    return embed_macs(math.prod(lead), channels, steps, params.w_time.shape[1])


def _co_layer_hook(a_t, a_c, *_, **__):
    t_shape, c_shape = _shape(a_t), _shape(a_c)
    return co_layer_macs(_lead(t_shape), c_shape[-2], t_shape[-2], t_shape[-1])


def _attention_hook(q_in, kv_in, weights, *_, **__):
    q_shape, kv_shape = _shape(q_in), _shape(kv_in)
    return attention_macs(_lead(q_shape), q_shape[-2], kv_shape[-2], q_shape[-1], weights.w_o is not None)


def _ffn_hook(x, w1, *_, **__):
    x_shape, w_shape = _shape(x), _shape(w1)
    return ffn_macs(math.prod(x_shape[:-1]), w_shape[0], w_shape[1])


def _layer_norm_hook(x, *_, **__):
    return layer_norm_macs(math.prod(_shape(x)))


def _aggregate_hook(a_t, a_c, *_, **__):
    t_shape, c_shape = _shape(a_t), _shape(a_c)
    return aggregate_macs(_lead(t_shape), c_shape[-2], t_shape[-2], t_shape[-1])


# (span name, defining module, function, MAC hook); replaced in every module
# that binds the function.
LAYER_SPANS = (
    ("encoder.embed", "chants.encoder", "embed", _embed_hook),
    ("encoder.co_layer", "chants.encoder", "co_layer", _co_layer_hook),
    ("encoder.multi_head_attention", "chants.tensor", "multi_head_attention", _attention_hook),
    ("encoder.ffn", "chants.tensor", "ffn", _ffn_hook),
    ("encoder.layer_norm", "chants.tensor", "layer_norm", _layer_norm_hook),
    ("encoder.aggregate", "chants.encoder", "aggregate", _aggregate_hook),
    ("pretext.make_ntp_instances", "chants.pretext", "make_ntp_instances", None),
    ("pretext.ntp_loss", "chants.pretext", "ntp_loss", None),
    ("pretext.cs_loss", "chants.pretext", "cs_loss", None),
    ("pretext.contrastive_loss", "chants.pretext", "contrastive_loss_from_projections", None),
    ("augment.build_cs_batch", "chants.pretext", "build_cs_batch", None),
    ("optim.adam_step", "chants.optim", "adam_step", None),
    ("harness.extract_features", "chants.harness", "extract_features", None),
    ("harness.train_linear_head", "chants.harness", "train_linear_head", None),
)

# Spans on one module's binding only, because the calling module decides what
# the call means: the encoder's dropout follows attention (the FFN's dropout
# is inside encoder.ffn), and the pretext cross entropy is the NTP loss (the
# probe's head uses the harness binding).
LOCAL_SPANS = (
    ("encoder.dropout", "chants.encoder", "dropout"),
    ("pretext.cross_entropy", "chants.pretext", "cross_entropy"),
)

ENCODER_TOP = ("encoder.embed", "encoder.co_layer", "encoder.aggregate")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so their
    intervals do not overlap and their durations add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tape_size(root) -> tuple[int, int]:
    """(tape nodes, bytes of distinct forward buffers) reachable from ``root``.

    Views share their base buffer, which is counted once.
    """
    seen: set[int] = set()
    buffers: dict[int, int] = {}
    nodes = 0
    todo = [root]
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._backward is not None:
            nodes += 1
        base = t.data
        while isinstance(base.base, np.ndarray):
            base = base.base
        buffers[id(base)] = base.nbytes
        todo.extend(t._parents)
    return nodes, sum(buffers.values())


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.tape_bytes = 0
        self.unit = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, macs=None):
        """``fn`` wrapped to record one span per call (and its MACs, if a hook is given)."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if macs is not None:
                counts["macs." + name] += macs(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def _op(self, name: str, fn):
        forward = self.span("tensor.fwd." + name, fn)
        backward_name = "tensor.bwd." + name

        def wrapper(*args, **kwargs):
            out = forward(*args, **kwargs)
            self.counts["tensor.op_calls"] += 1
            # dropout in eval mode returns its input, whose closure is not ours
            if out._backward is not None and all(out is not a for a in args):
                out._backward = self.span(backward_name, out._backward)
            return out

        return wrapper

    def _backward(self, original):
        timed = self.span("tensor.backward", original)

        def backward(tensor, grad=None):
            nodes, nbytes = tape_size(tensor)
            self.counts["tensor.tape_nodes"] += nodes
            self.tape_bytes = max(self.tape_bytes, nbytes)
            return timed(tensor, grad)

        return backward

    @contextlib.contextmanager
    def install(self):
        """Trace every layer of ``chants`` inside the block."""
        import chants.tensor

        modules = [m for n, m in sys.modules.items() if n == "chants" or n.startswith("chants.")]
        with contextlib.ExitStack() as restore:

            def rebind(module, attr, replacement):
                restore.callback(setattr, module, attr, getattr(module, attr))
                setattr(module, attr, replacement)

            def rebind_everywhere(original, replacement):
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            rebind(module, attr, replacement)

            for op in TENSOR_OPS:
                original = getattr(chants.tensor, op)
                rebind_everywhere(original, self._op(op, original))
            for name, module, attr, hook in LAYER_SPANS:
                original = getattr(sys.modules[module], attr)
                rebind_everywhere(original, self.span(name, original, hook))
            for name, module, attr in LOCAL_SPANS:
                module = sys.modules[module]
                rebind(module, attr, self.span(name, getattr(module, attr)))
            tensor_cls = chants.tensor.Tensor
            rebind(tensor_cls, "backward", self._backward(tensor_cls.backward))
            yield self

    def metrics(self, unit_seconds: list[float]) -> dict[str, float]:
        """Per-layer figures per unit (step, pass or probe) of the traced phase.

        Times are inclusive seconds per unit unless the name ends in
        ``_self_s``; ``tensor.tape_bytes`` is the largest tape at any backward.
        """
        units = len(unit_seconds)
        inclusive: dict[str, float] = defaultdict(float)
        exclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top_level = 0.0
        head_steps = 0
        for record, own in zip(self.spans, self_times(self.spans)):
            name, start, end, parent, _ = record
            inclusive[name] += end - start
            exclusive[name] += own
            calls[name] += 1
            if parent < 0:
                top_level += end - start
            elif name == "optim.adam_step" and self.spans[parent][0] == "harness.train_linear_head":
                head_steps += 1

        out = {
            "tensor.backward_s": inclusive["tensor.backward"] / units,
            "tensor.backward_self_s": exclusive["tensor.backward"] / units,
            "tensor.op_calls": self.counts["tensor.op_calls"] / units,
            "tensor.tape_nodes": self.counts["tensor.tape_nodes"] / units,
            "tensor.tape_bytes": float(self.tape_bytes),
        }
        for op in TENSOR_OPS:
            out[f"tensor.fwd_s.{op}"] = inclusive["tensor.fwd." + op] / units
            out[f"tensor.bwd_s.{op}"] = inclusive["tensor.bwd." + op] / units
        for name in [s[0] for s in LAYER_SPANS] + [s[0] for s in LOCAL_SPANS]:
            out[name + "_s"] = inclusive[name] / units
        for name in (
            "encoder.embed", "encoder.co_layer", "encoder.multi_head_attention", "encoder.ffn",
            "encoder.layer_norm", "encoder.aggregate", "pretext.ntp_loss", "pretext.cs_loss",
            "pretext.contrastive_loss", "pretext.cross_entropy", "harness.extract_features",
            "harness.train_linear_head",
        ):
            out[name + "_self_s"] = exclusive[name] / units
        encoder_macs_total = sum(self.counts["macs." + n] for n in ENCODER_TOP)
        encoder_time = sum(inclusive[n] for n in ENCODER_TOP)
        out["encoder.macs"] = encoder_macs_total / units
        out["encoder.gflops"] = _gflops(encoder_macs_total, encoder_time)
        for name, _, _, hook in LAYER_SPANS:
            if hook is not None:
                out["encoder.gflops." + name.split(".", 1)[1]] = _gflops(self.counts["macs." + name], inclusive[name])
        out["optim.adam_calls"] = calls["optim.adam_step"] / units
        out["harness.head_steps"] = head_steps / units
        out["trace.coverage"] = top_level / sum(unit_seconds)
        return out


def _gflops(macs: float, seconds: float) -> float:
    """Two floating-point operations per multiply-accumulate."""
    return 2.0 * macs / seconds / 1e9 if seconds > 0 else 0.0
