"""Self-supervised pretext tasks over channel-wise representations.

Two tasks drive pretraining. Next-trend prediction truncates a series at a
random step t, zero-pads the tail, and asks a shared linear head to classify
whether each channel rises or falls at the following step (ties count as a
rise). Contextual similarity builds a 5B contrastive batch per B originals -
one jittered positive, one synchronously permuted positive, and two
asynchronously permuted negatives each - and applies a temperature-scaled
similarity loss whose anchors are the originals. A next-value regression
task and a reversed-negative mode exist as baseline/ablation variants.

Both truncation tasks cut their series through one function,
:func:`_truncate`; their makers (:func:`make_ntp_instances`,
:func:`nvp_instances`) return (truncated copies, targets) arrays, and their
losses (:func:`ntp_loss`, :func:`nvp_loss`) take those arrays with one
signature and sum over the copies they are given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

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
    "NEGATIVE",
    "ORIGINAL",
    "POSITIVE",
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
    "reverse_neg_mode",
]

ORIGINAL = "original"
POSITIVE = "positive"
NEGATIVE = "negative"

CS_PROJECTION_DIM = 128


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights of the combined objective and the CS temperature."""

    alpha1: float = 2.0
    alpha2: float = 1.0
    tau: float = 0.2

    def __post_init__(self):
        check_fields(self)
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigError(f"loss weights must be nonnegative, got {self.alpha1}, {self.alpha2}")
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.tau <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.tau}")


def _truncate(xs: np.ndarray, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut each (C, T) sample of ``xs`` at ``count`` points t drawn from ``rng``.

    Each sample in turn draws ``count`` distinct points from [1, T-1], or
    draws with replacement (with a warning) when T - 1 < ``count``. Returns
    the copies cut at t, which keep steps 0..t-1 and zero steps t..T-1,
    grouped by sample (B * count, C, T), the points (B * count,) and the
    values after each cut, x[:, t] (B * count, C).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or len(xs) == 0:
        raise ShapeError(f"expected a nonempty batch of shape (B, C, T), got {xs.shape}")
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
    """Contrastive batch: originals plus tagged augmentations.

    ``samples`` stacks all elements; ``origin[i]`` is the source sample index
    and ``polarity[i]`` one of original/positive/negative. The standard batch
    holds B originals, 2 positives and 2 negatives per origin (5B total);
    dropping negatives yields 3B.
    """

    samples: np.ndarray  # (n, C, T)
    origin: np.ndarray  # (n,) ints in [0, B)
    polarity: list[str]

    @property
    def size(self) -> int:
        return self.samples.shape[0]


def build_cs_batch(
    originals: np.ndarray,
    aug_cfg: AugmentConfig,
    rng: np.random.Generator,
    *,
    include_negatives: bool = True,
) -> CsBatch:
    """Expand B originals into the contrastive batch.

    Per original: the sample itself, an interval-jittered positive, a
    synchronously permuted positive, and (unless disabled) two independent
    asynchronously permuted negatives.
    """
    originals = np.asarray(originals, dtype=np.float64)
    if originals.ndim != 3:
        raise ShapeError(f"expected originals of shape (B, C, T), got {originals.shape}")
    samples: list[np.ndarray] = []
    origin: list[int] = []
    polarity: list[str] = []
    for i, x in enumerate(originals):
        group = [
            (x, ORIGINAL),
            (interval_adjust(x, aug_cfg, rng), POSITIVE),
            (sync_permute(x, aug_cfg, rng), POSITIVE),
        ]
        if include_negatives:
            group.append((async_permute(x, aug_cfg, rng), NEGATIVE))
            group.append((async_permute(x, aug_cfg, rng), NEGATIVE))
        for arr, tag in group:
            samples.append(arr)
            origin.append(i)
            polarity.append(tag)
    return CsBatch(samples=np.stack(samples), origin=np.array(origin, dtype=np.int64), polarity=polarity)


def reverse_neg_mode(batch: CsBatch) -> CsBatch:
    """Relabel every negative as positive (ablation); sizes are unchanged."""
    flipped = [POSITIVE if p == NEGATIVE else p for p in batch.polarity]
    return CsBatch(samples=batch.samples, origin=batch.origin, polarity=flipped)


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


def ntp_loss(encoder: Encoder, truncated: np.ndarray, targets: np.ndarray, heads: PretextHeads, *, rng=None) -> Tensor:
    """Trend cross-entropy of the (n, C, T) ``truncated`` copies against their (n, C) labels.

    Summed over channels and copies; pretraining divides by the batch size.
    Dropout is on exactly when ``rng`` is given.
    """
    rep = encoder.encode_batch(truncated, rng=rng)
    n, rows, d = rep.shape
    ce_mean = cross_entropy(reshape(rep, (n * rows, d)), heads.ntp_w, heads.ntp_b, targets.reshape(-1))
    return mul(ce_mean, constant(n * rows))


def contrastive_loss_from_projections(
    projections: Tensor,
    batch: CsBatch,
    tau: float,
) -> Tensor:
    """Temperature-scaled similarity loss given projected rows.

    Anchors are the originals; each anchor's loss sums, over the positives
    of its origin, the log-ratio of that positive's scaled-similarity weight
    against every other batch element (the denominator spans every element
    but the anchor, positives included). The result is averaged over
    anchors. One tape node (:func:`chants.tensor.contrastive_loss`), whose
    backward is the gradient with respect to ``projections`` in closed form.
    """
    if tau <= 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    n = batch.size
    if projections.shape[0] != n:
        raise ShapeError(f"{projections.shape[0]} projections for a batch of {n}")
    polarity = np.asarray(batch.polarity)
    anchors = np.flatnonzero(polarity == ORIGINAL)
    if anchors.size == 0:
        raise ConfigError("contrastive batch has no originals to anchor the loss")
    positives = (polarity == POSITIVE) & (batch.origin == batch.origin[anchors, None])
    lonely = anchors[~positives.any(axis=-1)]
    if lonely.size:
        raise ConfigError(f"anchor {lonely[0]} has no positives")
    return contrastive_loss(projections, anchors, positives, tau)


def cs_projections(encoder: Encoder, samples: np.ndarray, heads: PretextHeads, *, rng=None) -> Tensor:
    """Encode ``samples`` and project each flat representation (affine, GELU, affine)."""
    rep = encoder.encode_batch(samples, rng=rng)
    return ffn(reshape(rep, (len(samples), -1)), heads.cs_w1, heads.cs_b1, heads.cs_w2, heads.cs_b2)


def cs_loss(encoder: Encoder, batch: CsBatch, heads: PretextHeads, weights: LossWeights, *, rng=None) -> Tensor:
    """Project the whole batch in one graph, then apply the similarity loss.

    The whole-batch reference: pretraining computes the same value and
    gradients a few rows at a time (``harness._cs_grad_cache``).
    """
    projections = cs_projections(encoder, batch.samples, heads, rng=rng)
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


def nvp_loss(encoder: Encoder, truncated: np.ndarray, targets: np.ndarray, heads: PretextHeads, *, rng=None) -> Tensor:
    """Next-value regression baseline: squared error of the value head on the (n, C) ``targets``.

    Summed over channels and copies; pretraining divides by the batch size.
    Dropout is on exactly when ``rng`` is given.
    """
    rep = encoder.encode_batch(truncated, rng=rng)
    n, rows, d = rep.shape
    pred = add(matmul(reshape(rep, (n * rows, d)), heads.nvp_w), heads.nvp_b)
    err = add(pred, mul(constant(targets.reshape(-1, 1)), constant(-1.0)))
    return tensor_sum(mul(err, err))


def combined_loss(ntp, cs, weights: LossWeights) -> Tensor:
    """alpha1 * ntp + alpha2 * cs as a tensor; float inputs are wrapped as constants."""
    return add(mul(weights.alpha1, ntp), mul(weights.alpha2, cs))
