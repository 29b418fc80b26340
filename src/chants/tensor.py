"""Dense float64 tensors with reverse-mode differentiation.

Everything is built on numpy arrays in row-major order. A ``Tensor`` is a
value plus an optional tape node; calling :meth:`Tensor.backward` on a scalar
result accumulates gradients into every reachable tensor that has
``requires_grad`` set. Shapes follow numpy conventions; matrix operations act
on the last two axes and broadcast over any leading (batch) axes.

Backward runs once per graph, in one traversal in reverse topological order:
as each interior node passes its gradient on, its ``.grad``, backward
closure and parents are dropped, so a graph's activations are freed while
backward runs and a second backward through it raises. Leaves keep their
``.grad``. The encoder's blocks (layer norm, attention, the FFN), the
contrastive-similarity loss and the classifier head with its cross entropy
(``cross_entropy(x, w, b, labels)``, which the NTP head and the supervised
baseline call) are single tape nodes with closed-form backward. The cross
entropy is summed over its rows, like every loss a micro-batch loop adds
up. The linear-probe head calls its arithmetic, ``_cross_entropy_forward``
and ``_cross_entropy_backward``, directly, scales it to the batch mean and
records no tape at all.
The FFN runs in blocks of whole series, taped or not: as many series as
hold at most ``_PHI_BLOCK`` (2**15) hidden values, or one series when a
single series holds more. With no graph to build (feature extraction, the
first gradient-caching pass of contrastive similarity) it never holds more
than one block's hidden layer. The GELU's Phi is ``_ndtr``, a numpy port of
Cephes' ``ndtr`` (the code behind ``scipy.special.ndtr``), evaluated once
per block so that its arrays stay in cache: bitwise scipy's for
|z| < sqrt(2), within a few ulp beyond, so the package needs numpy alone.
Dropout, in ``dropout`` and inside ``ffn``, has one switch, its mask
source ``rng``: None for inference, a generator, or a
:class:`MicroBatchMasks`, whose iteration runs a batch as micro-batches
that see the masks of one whole-batch pass. The rest of the package uses
only ``matmul``, ``add``, ``mul``, ``reshape``, ``transpose``,
``tensor_sum`` and ``dropout``.
``div``, ``sqrt``, ``exp``, ``log``, ``softmax`` and ``gelu`` have no
caller in the package: they stay because the benchmark's tracer patches
them by name, and the tests compose the fused kernels' references from
them.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ShapeError, check_integer, class_indices

__all__ = [
    "AttnWeights",
    "MicroBatchMasks",
    "Tensor",
    "add",
    "constant",
    "contrastive_loss",
    "cross_entropy",
    "div",
    "dropout",
    "exp",
    "ffn",
    "flop_estimate",
    "gelu",
    "layer_norm",
    "log",
    "matmul",
    "mul",
    "multi_head_attention",
    "no_grad",
    "reshape",
    "softmax",
    "sqrt",
    "tensor_sum",
    "transpose",
]

_GRAD_ENABLED = True

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# hidden values per Phi call in the FFN: its input, output and two scratch
# arrays (1 MB) stay in a core's cache
_PHI_BLOCK = 2**15
# the FFN's block work arrays, reused by every call whose block fits: z,
# Phi's two scratch arrays and, with no graph, the hidden layer. No call
# reads what an earlier one left; like ``no_grad``'s flag, it assumes one
# thread runs the package
_FFN_SCRATCH = np.empty((4, _PHI_BLOCK))
_NORM_FLOOR = 1e-24
_LAYER_NORM_EPS = 1e-12


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward passes)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array with an optional reverse-mode tape node.

    Gradients accumulate additively into leaf ``.grad`` across backward
    passes; callers reset leaf gradients between optimizer steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``requires_grad`` leaf.

        Runs once per graph, as one traversal in reverse topological order.
        Each interior node drops its ``.grad``, its backward closure and its
        parents as soon as it has passed its gradient on, so the graph is
        freed while backward runs; a second call through any part of it
        raises ``RuntimeError``. Leaves keep ``.grad``. A ``grad`` whose
        shape is not the tensor's raises ``ShapeError``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    f"backward() without an explicit gradient needs a scalar, got shape {self.shape}"
                )
            grad = np.ones(self.data.shape)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"backward() got a gradient of shape {grad.shape} for a tensor of shape {self.shape}"
                )

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            if node._backward is _freed:
                raise RuntimeError(_FREED)
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        self.grad = grad if self.grad is None else self.grad + grad
        # pop in reverse topological order: once a node has run, nothing left
        # in the graph refers to it, so its buffers go with the last reference
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _freed
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_FREED = "backward() through a graph that an earlier backward() already freed"


def _freed(grad: np.ndarray) -> None:
    """Backward closure of a node whose graph has been through backward.

    ``Tensor.backward`` raises on meeting it, before any gradient moves.
    """
    raise RuntimeError(_FREED)


def constant(value) -> Tensor:
    """Wrap raw data as a non-trainable tensor."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _taping(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a tape node."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward) -> Tensor:
    out = Tensor(data)
    if _taping(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accum(t: Tensor, grad: np.ndarray) -> None:
    # grad buffers are never mutated in place, so aliasing is safe here
    if not t.requires_grad:
        return
    grad = _unbroadcast(grad, t.data.shape)
    t.grad = grad if t.grad is None else t.grad + grad


# ---------------------------------------------------------------------------
# elementwise and structural primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _make(out_data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = constant(a), constant(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * a.data / (b.data * b.data))

    return _make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    a, b = constant(a), constant(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            if b.ndim == 2 and g.ndim > 2:
                # batched input against a shared matrix: collapse the batch
                # axes into one product instead of reducing per-batch results
                _accum(b, _weight_grad(a.data, g))
            else:
                _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(out_data, (a, b), backward)


def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes; with no ``axes``, swap the last two."""
    a = constant(a)
    if axes is None:
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.transpose(a.data, axes)

    def backward(g):
        _accum(a, np.transpose(g, inverse))

    return _make(out_data, (a,), backward)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = constant(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = constant(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _make(out_data, (a,), backward)


def exp(a) -> Tensor:
    a = constant(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accum(a, g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = constant(a)
    out_data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data)

    return _make(out_data, (a,), backward)


def sqrt(a) -> Tensor:
    a = constant(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accum(a, g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


# Cephes ndtr.c (S. L. Moshier), the code behind scipy.special.ndtr: rational
# approximations of erf and erfc in the manner of Cody (1969). polevl(x, c)
# is ((c0*x + c1)*x + c2)...; p1evl(x, c) is ((x + c0)*x + c1)..., monic.
# erf(x) = x*polevl(x*x, T)/p1evl(x*x, U) for |x| < 1; erfc(x) =
# exp(-x*x)*polevl(x, P)/p1evl(x, Q) for 1 <= x < 8, with R and S from 8 on,
# and 0 once -x*x < -MAXLOG.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# every |x| past sqrt(MAXLOG) = 26.64 gives erfc 0; clipping there keeps x*x
# and the polynomials finite, so infinities raise no warning
_ERFC_CLIP = 27.0


def _polevl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes' erfc of ``x`` >= 1, as a new array."""
    x = np.minimum(x, _ERFC_CLIP)
    y = np.multiply(x, x)
    under = y > _MAXLOG
    np.negative(y, out=y)
    np.exp(y, out=y)
    y[under] = 0.0
    p, q = _polevl(x, _ERFC_P, np.empty_like(x)), _p1evl(x, _ERFC_Q, np.empty_like(x))
    far = np.flatnonzero(x >= 8.0)
    if far.size:
        x_far = x[far]
        p[far] = _polevl(x_far, _ERFC_R, np.empty_like(x_far))
        q[far] = _p1evl(x_far, _ERFC_S, np.empty_like(x_far))
    y *= p
    y /= q
    return y


def _ndtr(a: np.ndarray, out: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Phi(a), the standard normal CDF, into ``out``; ``s1`` and ``s2`` are scratch of ``a``'s shape.

    A numpy port of Cephes' ``ndtr``. With x = a * sqrt(1/2), every element
    with |x| < 1 takes 0.5 + 0.5 * erf(x) in Cephes' order of operations,
    so for |a| < sqrt(2) the result is bitwise ``scipy.special.ndtr``'s.
    The others are gathered and take 0.5 * erfc(|x|), or 1 minus it for
    x > 0; numpy's ``exp`` may round an ulp off the C library's, so there
    the two agree to a few ulp. NaN gives NaN, and no input warns.
    """
    x = np.multiply(a, _SQRT1_2, out=s1)
    np.abs(x, out=s2)
    tail = np.flatnonzero(s2 >= 1.0)
    x_tail = np.take(x, tail)
    np.put(x, tail, 0.0)  # keeps x*x finite; the tail's central values are overwritten below
    np.multiply(x, x, out=s2)
    _polevl(s2, _ERF_T, out)
    out *= x
    out /= _p1evl(s2, _ERF_U, s1)
    out *= 0.5
    out += 0.5
    if tail.size:
        y = _erfc(np.abs(x_tail))
        y *= 0.5
        np.subtract(1.0, y, out=y, where=x_tail > 0.0)
        np.put(out, tail, y)
    return out


def _gelu_slope(z: np.ndarray, cdf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """d/dz of z * Phi(z) = Phi(z) + z * phi(z), given ``cdf`` = Phi(z); into ``out`` if given."""
    slope = np.multiply(z, z, out=out)
    slope *= -0.5
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= z
    slope += cdf
    return slope


def gelu(a) -> Tensor:
    """Gaussian error linear unit, z * Phi(z) with the exact normal CDF."""
    a = constant(a)
    cdf, s1, s2 = np.empty((3, *a.shape))
    _ndtr(a.data, cdf, s1, s2)
    out_data = a.data * cdf

    def backward(g):
        _accum(a, g * _gelu_slope(a.data, cdf))

    return _make(out_data, (a,), backward)


class MicroBatchMasks:
    """Dropout masks of one whole-batch pass, served to its micro-batches.

    Passed where a dropout ``rng`` goes, it gives micro-batch ``j`` (of
    leading size ``rows[j]``) its rows of the masks that one forward pass
    over all the micro-batches stacked in order would draw. Iterating it
    selects each micro-batch in turn and yields its rows ``(lo, hi)`` of the
    whole batch; the loop body runs that micro-batch's forward pass. When
    micro-batch 0 reaches a dropout site, the site's whole mask is drawn
    from ``rng`` one micro-batch's rows at a time: the same values as one
    ``rng.random`` call over the whole batch, without its float64 buffer,
    and ``rng`` ends where the whole-batch pass would leave it. Each site's
    mask is kept bit-packed along its last axis (one bit per element) and a
    micro-batch's rows are unpacked when served. Later micro-batches must
    reach the same sites with the same shapes; so may any number of later
    iterations, which see the same masks again (gradient caching encodes
    each micro-batch twice).
    """

    def __init__(self, rng: np.random.Generator, rows: Sequence[int]):
        self.rng = rng
        self.offsets = np.cumsum([0, *rows])
        self.masks: list[tuple[np.ndarray, int]] = []  # (packed mask, width of its last axis)
        self.batch = 0
        self.site = 0

    def __iter__(self):
        for batch in range(len(self.offsets) - 1):
            self.batch, self.site = batch, 0
            yield int(self.offsets[batch]), int(self.offsets[batch + 1])

    def keep(self, shape, rate: float) -> np.ndarray:
        shape = tuple(shape)
        lo, hi = self.offsets[self.batch], self.offsets[self.batch + 1]
        if self.site == len(self.masks):
            if self.batch != 0:
                raise ShapeError(f"micro-batch {self.batch} reached a dropout site micro-batch 0 did not")
            packed = np.empty((self.offsets[-1], *shape[1:-1], -(-shape[-1] // 8)), dtype=np.uint8)
            for start, stop in zip(self.offsets[:-1], self.offsets[1:]):
                packed[start:stop] = np.packbits(self.rng.random((stop - start, *shape[1:])) >= rate, axis=-1)
            self.masks.append((packed, shape[-1]))
        packed, width = self.masks[self.site]
        rows = (hi - lo, *packed.shape[1:-1], width)
        if rows != shape:
            raise ShapeError(f"dropout site {self.site} has shape {shape}, its mask rows {rows}")
        self.site += 1
        return np.unpackbits(packed[lo:hi], axis=-1, count=width).view(bool)


def _keep_mask(shape, rate: float, rng) -> np.ndarray | None:
    """Boolean keep mask of inverted dropout, or None when dropout is off.

    A ``rate`` outside [0, 1), NaN included, raises ``ConfigError``
    whether or not ``rng`` is given. Dropout is on exactly when ``rng`` is
    given and ``rate`` is above 0. A ``np.random.Generator`` draws
    ``rng.random(shape)`` as float64, one value per element; a
    :class:`MicroBatchMasks` serves the current micro-batch's rows of the
    whole-batch mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None
    if isinstance(rng, MicroBatchMasks):
        return rng.keep(shape, rate)
    return rng.random(shape) >= rate


def dropout(a, rate: float, rng) -> Tensor:
    """Inverted dropout; the identity when ``rng`` is None or ``rate`` is 0.

    A ``rate`` outside [0, 1) raises ``ConfigError``, with or without
    ``rng``. The mask source is the only switch. Every trainer passes a
    :class:`MicroBatchMasks`, which serves each micro-batch its rows of the
    masks of one whole-batch pass; a generator draws one fresh mask per
    call; inference passes give None.
    """
    a = constant(a)
    keep = _keep_mask(a.data.shape, rate, rng)
    if keep is None:
        return a
    scale = 1.0 / (1.0 - rate)
    # times the mask, then times the scale: bitwise a * (keep * scale),
    # without a float64 copy of the mask
    out_data = a.data * keep
    out_data *= scale

    def backward(g):
        d = g * keep
        d *= scale
        _accum(a, d)

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# normalization, attention, losses
# ---------------------------------------------------------------------------


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, computed with max subtraction for stability."""
    a = constant(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accum(a, out_data * (g - inner))

    return _make(out_data, (a,), backward)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a shared matrix ``w`` in ``a @ w``: a^T g over all leading axes."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    ``_LAYER_NORM_EPS`` (1e-12) sits inside the square root, so constant
    rows map to zero. One tape node; backward keeps the normalized rows and
    their scale.
    """
    x, gain, bias = constant(x), constant(gain), constant(bias)
    if x.shape[-1] != gain.shape[-1] or x.shape[-1] != bias.shape[-1]:
        raise ShapeError(
            f"layer_norm feature axis {x.shape[-1]} does not match gain {gain.shape} / bias {bias.shape}"
        )
    inv_n = 1.0 / x.shape[-1]
    normed = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    sigma = np.sqrt((normed * normed).sum(axis=-1, keepdims=True) * inv_n + _LAYER_NORM_EPS)
    normed /= sigma
    g_data = gain.data
    out_data = normed * g_data
    out_data += bias.data

    def backward(g):
        if gain.requires_grad:
            _accum(gain, g * normed)
        if bias.requires_grad:
            _accum(bias, g)
        if x.requires_grad:
            d = g * g_data
            along_normed = (d * normed).mean(axis=-1, keepdims=True)
            d -= d.mean(axis=-1, keepdims=True)
            d -= normed * along_normed
            d /= sigma
            _accum(x, d)

    return _make(out_data, (x, gain, bias), backward)


@dataclass
class AttnWeights:
    """Projection matrices for one attention block; ``w_o`` may be absent."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor | None = None


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., L, D) -> (..., heads, L, D // heads), as a view."""
    *lead, length, width = x.shape
    x = x.reshape(*lead, length, heads, width // heads)
    return np.swapaxes(x, -3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(..., heads, L, d_h) -> (..., L, heads * d_h)."""
    *lead, heads, length, dh = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, length, heads * dh)


def multi_head_attention(q_in, kv_in, weights, heads: int) -> Tensor:
    """Scaled dot-product attention with per-head scale 1/sqrt(D/heads).

    ``weights`` carries D x D projections ``w_q``, ``w_k``, ``w_v`` and an
    optional output projection ``w_o`` applied after head concatenation.
    Inputs are (..., L_q, D) queries against (..., L_k, D) keys/values. The
    whole block is one tape node; backward keeps the projected queries, keys
    and values, the attention probabilities and (for ``w_o``) the merged
    context. ``heads`` that is not an integer >= 1, or does not divide D,
    raises ``ConfigError``.
    """
    q_in, kv_in = constant(q_in), constant(kv_in)
    if q_in.ndim < 2 or kv_in.ndim < 2:
        raise ShapeError(f"attention needs (..., L, D) inputs, got shapes {q_in.shape} and {kv_in.shape}")
    width = q_in.shape[-1]
    check_integer(heads, "heads", 1)
    if width % heads != 0:
        raise ConfigError(f"model width {width} is not divisible by {heads} heads")
    if kv_in.shape[-1] != width:
        raise ShapeError(f"query width {width} does not match key/value width {kv_in.shape[-1]}")
    w_q, w_k, w_v = constant(weights.w_q), constant(weights.w_k), constant(weights.w_v)
    w_o = None if weights.w_o is None else constant(weights.w_o)
    scale = 1.0 / math.sqrt(width // heads)

    q = _split_heads(np.matmul(q_in.data, w_q.data), heads)
    k = _split_heads(np.matmul(kv_in.data, w_k.data), heads)
    v = _split_heads(np.matmul(kv_in.data, w_v.data), heads)
    probs = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    context = _merge_heads(np.matmul(probs, v))
    out_data = context if w_o is None else np.matmul(context, w_o.data)

    def backward(g):
        if w_o is not None:
            if w_o.requires_grad:
                _accum(w_o, _weight_grad(context, g))
            g = np.matmul(g, w_o.data.T)
        g = _split_heads(g, heads)
        d_v = np.matmul(np.swapaxes(probs, -1, -2), g)
        # softmax backward, from d(probs) in place: probs * (dp - sum(dp * probs))
        d_scores = np.matmul(g, np.swapaxes(v, -1, -2))
        d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
        d_scores *= probs
        d_scores *= scale
        d_q = np.matmul(d_scores, k)
        d_k = np.matmul(np.swapaxes(d_scores, -1, -2), q)
        for inp, w, d in ((q_in, w_q, d_q), (kv_in, w_k, d_k), (kv_in, w_v, d_v)):
            d = _unbroadcast(_merge_heads(d), inp.shape)
            if w.requires_grad:
                _accum(w, _weight_grad(inp.data, d))
            if inp.requires_grad:
                _accum(inp, np.matmul(d, w.data.T))

    parents = (q_in, kv_in, w_q, w_k, w_v) + (() if w_o is None else (w_o,))
    return _make(out_data, parents, backward)


def ffn(x, w1, b1, w2, b2, *, rate: float = 0.0, rng=None) -> Tensor:
    """Two affine maps with a GELU between; dropout after the activation.

    One tape node; backward keeps the hidden activations, the GELU slope
    and the boolean dropout mask. The forward runs in blocks of whole
    series (the (L, D) matrices of ``x.reshape(-1, L, D)``, in order), each
    as many series as hold at most ``_PHI_BLOCK`` (2**15) hidden values, or
    one series when a single series' (L, 4D) hidden layer holds more; each
    block evaluates Phi with one cache-sized ``_ndtr`` call, bitwise
    ``scipy.special.ndtr`` for |z| < sqrt(2) and within a few ulp beyond.
    The output is preallocated, and a block's work arrays are one module
    buffer that every call reuses (a single series too large for it gets
    its own). When taping, each block's hidden layer and slope go straight
    into the buffers backward keeps; otherwise only one block's hidden
    layer is alive at a time. The dropout mask is drawn for the whole shape
    first, so ``rng`` advances as in one whole pass.
    Dropout is on exactly when ``rng`` (a generator or a
    :class:`MicroBatchMasks`) is given and ``rate`` is above 0; a ``rate``
    outside [0, 1) raises ``ConfigError`` either way.
    """
    x, w1, b1, w2, b2 = parents = tuple(constant(t) for t in (x, w1, b1, w2, b2))
    if x.ndim < 2 or x.shape[-1] != w1.shape[0] or w1.shape[-1] != w2.shape[0]:
        raise ShapeError(f"ffn shapes disagree: x {x.shape}, w1 {w1.shape}, w2 {w2.shape}")
    taping = _taping(parents)
    *lead, length, width = x.shape
    hidden_shape = (*lead, length, w1.shape[-1])
    keep = _keep_mask(hidden_shape, rate, rng)
    scale = 1.0 / (1.0 - rate) if keep is not None else 1.0
    n = math.prod(lead)
    hidden_width = w1.shape[-1]
    per_block = max(1, _PHI_BLOCK // max(1, length * hidden_width))
    block = min(per_block, n)
    size = block * length * hidden_width
    work = _FFN_SCRATCH[:, :size] if size <= _PHI_BLOCK else np.empty((4, size))
    z_block, s1, s2, block_hidden = work.reshape(4, block, length, hidden_width)
    series = x.data.reshape(n, length, width)
    keeps = None if keep is None else keep.reshape(n, length, hidden_width)
    out_data = np.empty((n, length, w2.shape[-1]))
    hidden = np.empty((n, length, hidden_width)) if taping else block_hidden
    slope = np.empty_like(hidden) if taping else None
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        z = np.matmul(series[lo:hi], w1.data, out=z_block[: hi - lo])
        z += b1.data
        h = hidden[lo:hi] if taping else hidden[: hi - lo]
        _ndtr(z, h, s1[: hi - lo], s2[: hi - lo])  # Phi(z), turned into z * Phi(z) in place once the slope is taken
        if taping:
            _gelu_slope(z, h, out=slope[lo:hi])
        h *= z
        if keeps is not None:
            h *= keeps[lo:hi]
            h *= scale
        np.matmul(h, w2.data, out=out_data[lo:hi])
        out_data[lo:hi] += b2.data
    out_data = out_data.reshape(*lead, length, w2.shape[-1])
    if not taping:
        return Tensor(out_data)
    hidden, slope = hidden.reshape(hidden_shape), slope.reshape(hidden_shape)

    def backward(g):
        if b2.requires_grad:
            _accum(b2, g)
        if w2.requires_grad:
            _accum(w2, _weight_grad(hidden, g))
        d = np.matmul(g, w2.data.T)
        if keep is not None:
            d *= keep
            d *= scale
        d *= slope
        if b1.requires_grad:
            _accum(b1, d)
        if w1.requires_grad:
            _accum(w1, _weight_grad(x.data, d))
        if x.requires_grad:
            _accum(x, np.matmul(d, w1.data.T))

    return _make(out_data, parents, backward)


def _onehot(labels, k: int) -> np.ndarray:
    """The (n, k) boolean one-hot rows of ``labels``.

    A label that is text or not a whole number raises ``ConfigError`` naming
    the first one; a label outside [0, k) raises ``IndexError``.
    """
    labels = class_indices(labels, "labels", ConfigError)
    onehot = np.equal.outer(labels, np.arange(k))  # a row without its True has a bad label
    if np.count_nonzero(onehot) != len(labels):
        bad = labels[~onehot.any(axis=1)][0]
        raise IndexError(f"label {bad} outside [0, {k})")
    return onehot


def _cross_entropy_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, onehot: np.ndarray):
    """Summed negative log softmax of the ``onehot`` entries of the logits ``x @ w + b``.

    Returns the loss with the softmax numerators ``e`` and their row sums
    ``total``, which :func:`_cross_entropy_backward` takes.
    """
    logits = np.matmul(x, w)
    logits += b
    # ufunc reductions, bitwise the ndarray methods without their Python wrappers
    shift = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = logits - shift
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    logits -= np.log(total) + shift  # the log probabilities
    logits *= onehot  # times 1.0 or 0.0
    return -np.add.reduce(logits, axis=None), e, total


def _cross_entropy_backward(g, onehot: np.ndarray, e: np.ndarray, total: np.ndarray) -> np.ndarray:
    """d(logits) of :func:`_cross_entropy_forward` for the upstream gradient ``g``.

    (softmax - onehot) * g, in the rounding of the composed ops.
    """
    g_true = -g
    return g_true * onehot + (-g_true / total) * e


def cross_entropy(x, w, b, labels) -> Tensor:
    """Affine classifier head and its summed softmax cross entropy, as one node.

    The logits are ``x @ w + b`` for (n, d) rows ``x``, a (d, k) matrix ``w``
    and a (k,) bias ``b``; the loss is the sum over the n rows of the
    negative log softmax probability of the row's label, one of n integers
    in [0, k) (a label that is text or not a whole number raises
    ``ConfigError``, one outside the range ``IndexError``), so the losses
    of a batch's micro-batches add up to the batch's. One tape node;
    backward keeps the softmax numerators and their sums, and gives ``x``,
    ``w`` and ``b`` their gradients in closed form: at an upstream gradient
    of 1/n they are bitwise those of the composed matmul, add and mean cross
    entropy at 1, as x * (-1/n) and (-x) * (1/n) round alike. The arithmetic lives in ``_cross_entropy_forward`` and
    ``_cross_entropy_backward``, which the linear-probe head also calls
    without a tape.
    """
    x, w, b = parents = (constant(x), constant(w), constant(b))
    x_data, w_data = x.data, w.data
    if x_data.ndim != 2 or w_data.ndim != 2 or x_data.shape[1] != w_data.shape[0] or b.shape != w_data.shape[1:]:
        raise ShapeError(
            f"cross_entropy needs (n, d) rows, a (d, k) matrix and a (k,) bias, got {x.shape}, {w.shape}, {b.shape}"
        )
    n, k = x_data.shape[0], w_data.shape[1]
    if n == 0:
        raise ShapeError("cross_entropy needs at least one row")
    if np.shape(labels) != (n,):
        raise ShapeError(f"cross_entropy got {n} rows but labels of shape {np.shape(labels)}")
    onehot = _onehot(labels, k)
    out_data, e, total = _cross_entropy_forward(x_data, w_data, b.data, onehot)

    def backward(g):
        d = _cross_entropy_backward(g, onehot, e, total)
        if b.requires_grad:
            _accum(b, np.add.reduce(d, axis=0))
        if w.requires_grad:
            _accum(w, np.matmul(x_data.T, d))
        if x.requires_grad:
            _accum(x, np.matmul(d, w_data.T))

    return _make(out_data, parents, backward)


def contrastive_loss(projections, anchors, positives, tau: float) -> Tensor:
    """Temperature-scaled similarity loss of anchor rows against every row.

    ``projections`` is (n, k); ``anchors`` holds the m distinct indices of
    the anchor rows and ``positives`` is an (m, n) boolean mask of each
    anchor's c_a positives. Rows are scaled to unit length u (with
    ``_NORM_FLOOR`` under the root, so a zero row warns, has similarity 0
    to every row and gets a zero gradient) and s = u_A u^T / tau. The loss
    is the mean over anchors of c_a * logsumexp of s_a over every row but
    the anchor itself, minus the sum of s_a over its positives. One tape node; backward keeps
    the unit rows, their norms and the masked softmax.
    """
    projections = constant(projections)
    if projections.ndim != 2:
        raise ShapeError(f"contrastive_loss expects (n, k) projections, got {projections.shape}")
    p = projections.data
    zero = np.abs(p).sum(axis=-1) == 0.0
    if zero.any():
        warnings.warn("zero projection row: its similarities are defined as 0", RuntimeWarning)
    norm = np.sqrt((p * p).sum(axis=-1, keepdims=True) + _NORM_FLOOR)
    unit = p / norm
    m = len(anchors)
    sims = unit[anchors] @ unit.T
    sims *= 1.0 / tau
    pos_sums = (sims * positives).sum(axis=-1, keepdims=True)
    sims[np.arange(m), anchors] = -np.inf  # each anchor leaves its own row out of the denominator
    shift = sims.max(axis=-1, keepdims=True)
    probs = np.exp(sims - shift)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    counts = positives.sum(axis=-1, keepdims=True)
    out_data = (counts * (np.log(total) + shift) - pos_sums).sum() * (1.0 / m)

    def backward(g):
        d_sims = counts * probs - positives
        d_sims *= g / (m * tau)
        d_unit = d_sims.T @ unit[anchors]
        d_unit[anchors] += d_sims @ unit
        d_unit -= unit * (unit * d_unit).sum(axis=-1, keepdims=True)
        d_unit /= norm
        d_unit[zero] = 0.0  # the constant-0 row, not 1/_NORM_FLOOR times the others
        _accum(projections, d_unit)

    return _make(out_data, (projections,), backward)


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------


def flop_estimate(steps: int, channels: int, width: int, interactive: bool) -> int:
    """Attention-score multiply-accumulates for one two-tower layer.

    Cross-attending towers score time-against-channel twice (2*T*C*D);
    self-attending towers pay (T^2 + C^2)*D. Each of ``steps``,
    ``channels`` and ``width`` must be an integer >= 1 (not a bool nor a
    float), or ``ConfigError`` is raised.
    """
    for name, value in (("steps", steps), ("channels", channels), ("width", width)):
        check_integer(value, name, 1)
    if interactive:
        return 2 * steps * channels * width
    return (steps * steps + channels * channels) * width
