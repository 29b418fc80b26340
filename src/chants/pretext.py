"""Self-supervised pretext tasks over channel-wise representations.

Two tasks drive pretraining. Next-trend prediction truncates a series at a
random step t, zero-pads the tail, and asks a shared linear head to classify
whether each channel rises or falls at the following step (ties count as a
rise). Contextual similarity builds a 5B contrastive batch per B originals -
one jittered positive, one synchronously permuted positive, and two
asynchronously permuted negatives each - and applies a temperature-scaled
similarity loss whose anchors are the originals. :func:`build_cs_batch`
derives the anchor rows and each anchor's positive mask once, from that
layout; its ablations drop the negatives or count them as positives. A
next-value regression task is the baseline variant of next-trend prediction.

Both truncation tasks cut their series through one function,
:func:`_truncate`; their makers (:func:`make_ntp_instances`,
:func:`nvp_instances`) return (truncated copies, targets) arrays. The heads
do not encode: :func:`ntp_loss`, :func:`nvp_loss` and :func:`cs_projections`
take the encoder's (n, rows, D) representation of the rows they score, and
the two losses sum over those rows, so the harness's micro-batch loops
encode each micro-batch once and add the parts up. :func:`cs_loss` alone
encodes, as the whole-batch reference of contrastive similarity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .augment import AugmentConfig, async_permute, interval_adjust, sync_permute
from .encoder import Encoder, EncoderConfig, _glorot, representation_rows
from .errors import ConfigError, ShapeError, check_fields
from .tensor import (
    Tensor,
    add,
    constant,
    contrastive_loss,
    cross_entropy,
    ffn,
    matmul,
    mul,
    reshape,
    tensor_sum,
)

__all__ = [
    "CS_PROJECTION_DIM",
    "CsBatch",
    "LossWeights",
    "PretextHeads",
    "build_cs_batch",
    "combined_loss",
    "contrastive_loss_from_projections",
    "cs_loss",
    "cs_projections",
    "init_pretext_heads",
    "make_ntp_instances",
    "ntp_loss",
    "nvp_instances",
    "nvp_loss",
    "nvp_truncation_count",
]

CS_PROJECTION_DIM = 128


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights of the combined objective and the CS temperature.

    The weights are >= 0 and ``tau`` is > 0, bounds declared on the fields
    and enforced by :func:`chants.errors.check_fields`; ``__post_init__``
    refuses both weights at 0.
    """

    alpha1: float = field(default=2.0, metadata={">=": 0})
    alpha2: float = field(default=1.0, metadata={">=": 0})
    tau: float = field(default=0.2, metadata={">": 0})

    def __post_init__(self):
        check_fields(self)
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ConfigError("at least one loss weight must be positive")


def _as_batch(xs) -> np.ndarray:
    """``xs`` as a float64 (B, C, T) array; another shape or an empty batch raises ``ShapeError``."""
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or len(xs) == 0:
        raise ShapeError(f"expected a nonempty batch of shape (B, C, T), got {xs.shape}")
    return xs


def _truncate(xs: np.ndarray, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut each (C, T) sample of ``xs`` at ``count`` points t drawn from ``rng``.

    Each sample in turn draws ``count`` distinct points from [1, T-1], or
    draws with replacement (with a warning) when T - 1 < ``count``. Returns
    the copies cut at t, which keep steps 0..t-1 and zero steps t..T-1,
    grouped by sample (B * count, C, T), the points (B * count,) and the
    values after each cut, x[:, t] (B * count, C).
    """
    xs = _as_batch(xs)
    steps = xs.shape[-1]
    if steps < 3:
        raise ConfigError(f"truncated instances need at least 3 steps, got {steps}")
    if count < 1:
        raise ConfigError(f"need at least one truncation point per sample, got {count}")
    if count <= steps - 1:
        draws = [rng.choice(np.arange(1, steps), size=count, replace=False) for _ in xs]
    else:
        warnings.warn(
            f"{count} truncation points exceed the {steps - 1} available; drawing with replacement",
            RuntimeWarning,
        )
        draws = [rng.integers(1, steps, size=count) for _ in xs]
    points = np.concatenate(draws)
    source = np.repeat(np.arange(len(xs)), count)
    truncated = np.where(np.arange(steps) < points[:, None, None], xs[source], 0.0)
    return truncated, points, xs[source, :, points]


def make_ntp_instances(
    xs: np.ndarray, k_ntp: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Cut each (C, T) sample of ``xs`` at ``k_ntp`` points and label the following step's trend.

    Returns the truncated copies (B * k_ntp, C, T), grouped by sample, and
    per-channel labels (B * k_ntp, C): 1 if x[:, t] >= x[:, t-1] for the cut
    at t (a tie counts as a rise), else 0. See :func:`_truncate` for the draw.
    """
    truncated, points, following = _truncate(xs, k_ntp, rng)
    before = truncated[np.arange(len(points)), :, points - 1]
    return truncated, (following >= before).astype(np.int64)


@dataclass
class CsBatch:
    """Contrastive batch: the stacked samples, the rows that anchor the loss and their positives.

    ``anchors`` holds the m anchor row indices and ``positives`` is the
    (m, n) boolean mask of each anchor's positive rows, as
    :func:`chants.tensor.contrastive_loss` takes them. A batch with no
    anchor, anchors that are not distinct rows, an anchor without a
    positive, or a mask of another shape is refused at construction.
    """

    samples: np.ndarray  # (n, C, T)
    anchors: np.ndarray  # (m,) row indices
    positives: np.ndarray  # (m, n) bool

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.int64)
        self.positives = np.asarray(self.positives, dtype=bool)
        if self.anchors.size == 0:
            raise ConfigError("contrastive batch has no originals to anchor the loss")
        distinct = np.unique(self.anchors)  # a repeated anchor would get part of its gradient only
        if distinct.size != self.anchors.size or distinct[0] < 0 or distinct[-1] >= self.size:
            raise ShapeError(f"anchors must be distinct rows of {self.size}, got {self.anchors.tolist()}")
        want = (self.anchors.size, self.size)
        if self.positives.shape != want:
            raise ShapeError(f"expected a positive mask of shape (anchors, rows) {want}, got {self.positives.shape}")
        lonely = self.anchors[~self.positives.any(axis=-1)]
        if lonely.size:
            raise ConfigError(f"anchor {lonely[0]} has no positives")

    @property
    def size(self) -> int:
        return self.samples.shape[0]


def build_cs_batch(
    originals: np.ndarray,
    aug_cfg: AugmentConfig,
    rng: np.random.Generator,
    *,
    include_negatives: bool = True,
    reverse_neg: bool = False,
) -> CsBatch:
    """Expand B originals into the contrastive batch, one group of rows per original.

    A group is the original (its anchor), an interval-jittered positive, a
    synchronously permuted positive and, unless ``include_negatives`` is
    off, two independent asynchronously permuted negatives: 5B rows, or 3B.
    Each anchor's positives are the two positives of its group; under
    ``reverse_neg`` (ablation) its negatives count as positives too.
    """
    samples: list[np.ndarray] = []
    for x in _as_batch(originals):
        samples += [x, interval_adjust(x, aug_cfg, rng), sync_permute(x, aug_cfg, rng)]
        if include_negatives:
            samples += [async_permute(x, aug_cfg, rng), async_permute(x, aug_cfg, rng)]
    anchors = np.arange(0, len(samples), 5 if include_negatives else 3)
    offset = np.arange(len(samples)) - anchors[:, None]  # each row's place in each anchor's group
    # rows 1 and 2 of a group are its positives; under reverse_neg rows 3 and 4 (the negatives) too
    positives = (offset >= 1) & (offset < (5 if include_negatives and reverse_neg else 3))
    return CsBatch(np.stack(samples), anchors, positives)


@dataclass
class PretextHeads:
    """Projection heads: trend classifier, similarity projector, value regressor."""

    ntp_w: Tensor  # (D, 2)
    ntp_b: Tensor  # (2,)
    cs_w1: Tensor  # (rows * D, D)
    cs_b1: Tensor  # (D,)
    cs_w2: Tensor  # (D, CS_PROJECTION_DIM)
    cs_b2: Tensor  # (CS_PROJECTION_DIM,)
    nvp_w: Tensor  # (D, 1)
    nvp_b: Tensor  # (1,)

    def named(self) -> dict[str, Tensor]:
        """``heads.{task}.{array}`` -> tensor, one per field (``cs_w1`` is ``heads.cs.w1``)."""
        return {"heads." + f.name.replace("_", ".", 1): getattr(self, f.name) for f in fields(self)}


def init_pretext_heads(config: EncoderConfig, rng: np.random.Generator) -> PretextHeads:
    d = config.width
    flat = representation_rows(config) * d
    return PretextHeads(
        ntp_w=_glorot(rng, d, 2),
        ntp_b=Tensor(np.zeros(2), requires_grad=True),
        cs_w1=_glorot(rng, flat, d),
        cs_b1=Tensor(np.zeros(d), requires_grad=True),
        cs_w2=_glorot(rng, d, CS_PROJECTION_DIM),
        cs_b2=Tensor(np.zeros(CS_PROJECTION_DIM), requires_grad=True),
        nvp_w=_glorot(rng, d, 1),
        nvp_b=Tensor(np.zeros(1), requires_grad=True),
    )


def ntp_loss(rep: Tensor, targets: np.ndarray, heads: PretextHeads) -> Tensor:
    """Trend cross-entropy of the (n, C, D) representation of n truncated copies against their (n, C) labels.

    Summed over channels and copies; pretraining divides by the batch size.
    """
    n, rows, d = rep.shape
    return cross_entropy(reshape(rep, (n * rows, d)), heads.ntp_w, heads.ntp_b, targets.reshape(-1))


def contrastive_loss_from_projections(
    projections: Tensor,
    batch: CsBatch,
    tau: float,
) -> Tensor:
    """Temperature-scaled similarity loss given one projected row per row of ``batch``.

    Each of the batch's anchors sums, over its positives, the log-ratio of
    that positive's scaled-similarity weight against every other batch row
    (the denominator spans every row but the anchor, positives included).
    The result is averaged over anchors. One tape node
    (:func:`chants.tensor.contrastive_loss`), whose backward is the gradient
    with respect to ``projections`` in closed form.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    if projections.shape[0] != batch.size:
        raise ShapeError(f"{projections.shape[0]} projections for a batch of {batch.size}")
    return contrastive_loss(projections, batch.anchors, batch.positives, tau)


def cs_projections(rep: Tensor, heads: PretextHeads) -> Tensor:
    """Project each sample's flattened (rows, D) representation of ``rep`` (affine, GELU, affine)."""
    return ffn(reshape(rep, (rep.shape[0], -1)), heads.cs_w1, heads.cs_b1, heads.cs_w2, heads.cs_b2)


def cs_loss(encoder: Encoder, batch: CsBatch, heads: PretextHeads, weights: LossWeights, *, rng=None) -> Tensor:
    """Encode and project the whole batch in one graph, then apply the similarity loss.

    The whole-batch reference: pretraining computes the same value and
    gradients a few rows at a time (``harness._cs_grad_cache``). Dropout is
    on exactly when ``rng`` is given.
    """
    projections = cs_projections(encoder.encode_batch(batch.samples, rng=rng), heads)
    return contrastive_loss_from_projections(projections, batch, weights.tau)


def nvp_truncation_count(steps: int) -> int:
    """ceil(0.15 * (T - 1)) truncation points for the regression baseline."""
    return math.ceil(0.15 * (steps - 1))


def nvp_instances(xs: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Cut each (C, T) sample of ``xs`` at ``nvp_truncation_count(T)`` points, for the regression baseline.

    Returns the truncated copies (n, C, T), grouped by sample, and the
    targets, the values x[:, t] after each cut (n, C). See :func:`_truncate`
    for the draw.
    """
    truncated, _, following = _truncate(xs, nvp_truncation_count(np.shape(xs)[-1]), rng)
    return truncated, following


def nvp_loss(rep: Tensor, targets: np.ndarray, heads: PretextHeads) -> Tensor:
    """Next-value regression baseline: squared error of the value head on the (n, C) ``targets``.

    ``rep`` is the (n, C, D) representation of the n truncated copies.
    Summed over channels and copies; pretraining divides by the batch size.
    """
    n, rows, d = rep.shape
    pred = add(matmul(reshape(rep, (n * rows, d)), heads.nvp_w), heads.nvp_b)
    err = add(pred, mul(constant(targets.reshape(-1, 1)), constant(-1.0)))
    return tensor_sum(mul(err, err))


def combined_loss(ntp, cs, weights: LossWeights) -> Tensor:
    """alpha1 * ntp + alpha2 * cs as a tensor; float inputs are wrapped as constants."""
    return add(mul(weights.alpha1, ntp), mul(weights.alpha2, cs))
