"""Channel-aware transformer encoder for multivariate time series.

A sample x (C channels x T steps) is embedded twice: a time stream of T
step vectors and a channel stream of C channel vectors, both of width D.
A stack of two-tower layers updates the streams; in the default ``cat``
variant each tower cross-attends against the *other* stream's layer input
(both towers read the previous layer's outputs, so the update is parallel,
not sequential). A final aggregate attention folds the time stream into the
channel stream. :func:`encode` returns one (..., rows, D) tensor, one row
per channel (per time step for ``tat``); a task that needs one vector per
sample reshapes it to (..., rows * D), the flat representation. Dropout is
on exactly when an ``rng`` mask source is passed (see
:func:`chants.tensor.dropout`); inference passes none.

Variants, all selected by ``EncoderConfig.variant``:

* ``cat``            - cross-attending towers + aggregate (the default)
* ``self_aggregate`` - towers self-attend, aggregate unchanged
* ``channel_self``   - single self-attending channel tower, no aggregate
* ``no_aggregate``   - cross-attending towers, channel stream returned as-is
* ``tat``            - aggregate mirrored onto the time axis (T x D rows)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, ShapeError, check_fields
from .tensor import (
    AttnWeights,
    Tensor,
    add,
    constant,
    dropout,
    ffn,
    layer_norm,
    matmul,
    multi_head_attention,
    transpose,
)

__all__ = [
    "CatParams",
    "CoLayerParams",
    "Encoder",
    "EncoderConfig",
    "FfnWeights",
    "NormWeights",
    "VARIANTS",
    "aggregate",
    "co_layer",
    "embed",
    "encode",
    "init_cat_params",
    "representation_rows",
    "sinusoid_table",
]

VARIANTS = ("cat", "self_aggregate", "channel_self", "no_aggregate", "tat")


@dataclass(frozen=True)
class EncoderConfig:
    """Dimensions and switches of the encoder.

    Each count declares its lower bound, which
    :func:`chants.errors.check_fields` enforces; ``__post_init__`` adds the
    rules no one field states: ``width`` divisible by ``heads``, ``dropout``
    in [0, 1) and a known ``variant``.
    """

    channels: int = field(metadata={">=": 1})
    steps: int = field(metadata={">=": 2})
    width: int = field(default=512, metadata={">=": 1})
    depth: int = field(default=8, metadata={">=": 1})
    heads: int = field(default=8, metadata={">=": 1})
    dropout: float = 0.2
    variant: str = "cat"

    def __post_init__(self):
        check_fields(self)
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} is not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown encoder variant '{self.variant}' (expected one of {VARIANTS})")


@dataclass
class NormWeights:
    gain: Tensor
    bias: Tensor


@dataclass
class FfnWeights:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class CoLayerParams:
    """One two-tower layer: attention + FFN blocks for each stream."""

    time_attn: AttnWeights
    time_norm1: NormWeights
    time_ffn: FfnWeights
    time_norm2: NormWeights
    chan_attn: AttnWeights
    chan_norm1: NormWeights
    chan_ffn: FfnWeights
    chan_norm2: NormWeights


def _named_tree(node, path: str = "") -> dict[str, Tensor]:
    """Dotted path -> tensor over nested dataclasses and lists, skipping ``None``.

    A dataclass field contributes its ``metadata["key"]`` to the path when it
    has one, else its name; a list item contributes its index.
    """
    if node is None:
        return {}
    if isinstance(node, Tensor):
        return {path: node}
    if isinstance(node, list):
        children = [(str(i), item) for i, item in enumerate(node)]
    else:
        children = [(f.metadata.get("key", f.name), getattr(node, f.name)) for f in fields(node)]
    out: dict[str, Tensor] = {}
    for key, child in children:
        out.update(_named_tree(child, f"{path}.{key}" if path else key))
    return out


@dataclass
class CatParams:
    """Every learnable array of the encoder, plus the fixed positional table."""

    w_time: Tensor = field(metadata={"key": "embed.w_time"})  # (C, D) time-embedding matrix
    w_chan: Tensor = field(metadata={"key": "embed.w_chan"})  # (T, D) channel-embedding matrix
    e_pos: Tensor = field(metadata={"key": "embed.e_pos"})  # (T, D) sinusoidal table, receives no gradient
    layers: list[CoLayerParams] = field(default_factory=list)
    agg: AttnWeights | None = field(default=None, metadata={"key": "aggregate"})  # fresh Q/K/V, no output projection

    def named(self) -> dict[str, Tensor]:
        """Flat path -> tensor view of the whole tree (``e_pos`` included).

        Paths follow the fields: ``embed.*``, ``layers.{i}.{block}.*`` and
        ``aggregate.*``; they are the checkpoint's array names.
        """
        return _named_tree(self)

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.named().items() if t.requires_grad}


def representation_rows(config: EncoderConfig) -> int:
    """Row count of the representation: channels, or steps for ``tat``."""
    return config.steps if config.variant == "tat" else config.channels


def sinusoid_table(steps: int, width: int) -> np.ndarray:
    """Fixed positional table: even columns sin, odd columns cos."""
    pos = np.arange(steps, dtype=np.float64)[:, None]
    pair = np.arange(0, width, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, pair / width)
    table = np.zeros((steps, width))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : width // 2])
    return table


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


def _attn(rng: np.random.Generator, width: int, with_out: bool) -> AttnWeights:
    return AttnWeights(
        w_q=_glorot(rng, width, width),
        w_k=_glorot(rng, width, width),
        w_v=_glorot(rng, width, width),
        w_o=_glorot(rng, width, width) if with_out else None,
    )


def _norm(width: int) -> NormWeights:
    return NormWeights(
        gain=Tensor(np.ones(width), requires_grad=True),
        bias=Tensor(np.zeros(width), requires_grad=True),
    )


def _ffn(rng: np.random.Generator, width: int) -> FfnWeights:
    hidden = 4 * width
    return FfnWeights(
        w1=_glorot(rng, width, hidden),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=_glorot(rng, hidden, width),
        b2=Tensor(np.zeros(width), requires_grad=True),
    )


def init_cat_params(config: EncoderConfig, rng: np.random.Generator) -> CatParams:
    """Fresh parameters: Glorot-uniform weights, zero biases, unit norm gains."""
    d = config.width
    layers = [
        CoLayerParams(
            time_attn=_attn(rng, d, with_out=True),
            time_norm1=_norm(d),
            time_ffn=_ffn(rng, d),
            time_norm2=_norm(d),
            chan_attn=_attn(rng, d, with_out=True),
            chan_norm1=_norm(d),
            chan_ffn=_ffn(rng, d),
            chan_norm2=_norm(d),
        )
        for _ in range(config.depth)
    ]
    return CatParams(
        w_time=_glorot(rng, config.channels, d),
        w_chan=_glorot(rng, config.steps, d),
        e_pos=Tensor(sinusoid_table(config.steps, d)),
        layers=layers,
        agg=_attn(rng, d, with_out=False),
    )


def embed(x, params: CatParams) -> tuple[Tensor, Tensor]:
    """Project a sample into the two streams.

    ``x`` is (C, T) or batched (B, C, T). The time stream is x^T W_time plus
    the fixed positional table; the channel stream is x W_chan with no
    positional term.
    """
    x = constant(x)
    c, d = params.w_time.shape
    t = params.w_chan.shape[0]
    if x.shape[-2:] != (c, t):
        raise ShapeError(f"input shape {x.shape} does not match configured (C, T) = ({c}, {t})")
    e_t = add(matmul(transpose(x), params.w_time), params.e_pos)
    e_c = matmul(x, params.w_chan)
    return e_t, e_c


def _tower(
    a_self: Tensor,
    kv: Tensor,
    attn: AttnWeights,
    norm1: NormWeights,
    f: FfnWeights,
    norm2: NormWeights,
    config: EncoderConfig,
    rng,
) -> Tensor:
    h = multi_head_attention(a_self, kv, attn, config.heads)
    h = dropout(h, config.dropout, rng)
    b = layer_norm(add(h, a_self), norm1.gain, norm1.bias)
    f_out = ffn(b, f.w1, f.b1, f.w2, f.b2, rate=config.dropout, rng=rng)
    return layer_norm(add(f_out, b), norm2.gain, norm2.bias)


def co_layer(
    a_t: Tensor, a_c: Tensor, layer: CoLayerParams, config: EncoderConfig, *, rng=None
) -> tuple[Tensor, Tensor]:
    """One two-tower layer; both towers read this layer's *inputs*.

    Wiring follows the variant: cross-attention for ``cat``/``no_aggregate``/
    ``tat`` (time queries attend channel keys and vice versa), self-attention
    for ``self_aggregate``, and a lone self-attending channel tower for
    ``channel_self`` (the time stream passes through untouched).
    """
    if config.variant == "channel_self":
        new_c = _tower(a_c, a_c, layer.chan_attn, layer.chan_norm1, layer.chan_ffn, layer.chan_norm2, config, rng)
        return a_t, new_c
    cross = config.variant != "self_aggregate"
    time_kv = a_c if cross else a_t
    chan_kv = a_t if cross else a_c
    new_t = _tower(a_t, time_kv, layer.time_attn, layer.time_norm1, layer.time_ffn, layer.time_norm2, config, rng)
    new_c = _tower(a_c, chan_kv, layer.chan_attn, layer.chan_norm1, layer.chan_ffn, layer.chan_norm2, config, rng)
    return new_t, new_c


def aggregate(a_t: Tensor, a_c: Tensor, agg: AttnWeights, heads: int) -> Tensor:
    """Fold the time stream into the channel stream with one attention pass.

    Channel rows act as queries over time keys/values. No residual, layer
    norm, FFN, or output projection follows; the (..., C, D) result rows
    are the representation.
    """
    return multi_head_attention(a_c, a_t, agg, heads)


def encode(x, params: CatParams, config: EncoderConfig, *, rng=None) -> Tensor:
    """Embed, run the layer stack, and reduce to the (..., rows, D) representation.

    ``x`` is (C, T) or (B, C, T); the result has one D-wide row per channel
    (per time step for ``tat``, see :func:`representation_rows`) and the
    leading axes of ``x``. Dropout is on exactly when ``rng`` (a generator
    or a :class:`chants.tensor.MicroBatchMasks`) is given.
    """
    a_t, a_c = embed(x, params)
    for layer in params.layers:
        a_t, a_c = co_layer(a_t, a_c, layer, config, rng=rng)
    if config.variant in ("channel_self", "no_aggregate"):
        return a_c
    if config.variant == "tat":
        return multi_head_attention(a_t, a_c, params.agg, config.heads)
    return aggregate(a_t, a_c, params.agg, config.heads)


@dataclass
class Encoder:
    """Bundle of parameters and config with a batched encode call."""

    params: CatParams
    config: EncoderConfig

    def encode_batch(self, xs, *, rng=None) -> Tensor:
        """The (B, rows, D) representation of a (B, C, T) batch; see :func:`encode`."""
        xs = constant(xs)
        if xs.ndim != 3:
            raise ShapeError(f"Encoder.encode_batch expects (B, C, T), got shape {xs.shape}")
        return encode(xs, self.params, self.config, rng=rng)

    @property
    def flat_dim(self) -> int:
        return representation_rows(self.config) * self.config.width
