"""Self-supervised pretext tasks over channel-wise representations.

Two tasks drive pretraining. Next-trend prediction truncates a series at a
random step t, zero-pads the tail, and asks a shared linear head to classify
whether each channel rises or falls at the following step (ties count as a
rise). Contextual similarity builds a 5B contrastive batch per B originals -
one jittered positive, one synchronously permuted positive, and two
asynchronously permuted negatives each - and applies a temperature-scaled
similarity loss whose anchors are the originals. A next-value regression
task and a reversed-negative mode exist as baseline/ablation variants.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .augment import AugmentConfig, async_permute, interval_adjust, sync_permute
from .encoder import Encoder, EncoderConfig, _glorot, representation_rows
from .errors import ConfigError, ShapeError
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
    "NtpInstance",
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
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigError(f"loss weights must be nonnegative, got {self.alpha1}, {self.alpha2}")
        if self.alpha1 == 0 and self.alpha2 == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.tau <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.tau}")


@dataclass
class NtpInstance:
    """One truncated sample: steps t+1..T zeroed, per-channel trend labels."""

    truncated: np.ndarray  # (C, T) with the tail zero-padded
    t: int  # truncation step, 1-indexed in [1, T-1]
    labels: np.ndarray  # (C,) ints in {0, 1}; 1 means x[., t+1] >= x[., t]


def make_ntp_instances(
    x: np.ndarray, k_ntp: int, rng: np.random.Generator
) -> list[NtpInstance]:
    """Draw k distinct truncation points and label the following step's trend.

    Falls back to drawing with replacement (with a warning) when the series
    is too short to supply ``k_ntp`` distinct points.
    """
    x = np.asarray(x, dtype=np.float64)
    channels, steps = x.shape
    if steps < 3:
        raise ConfigError(f"next-trend instances need at least 3 steps, got {steps}")
    if k_ntp < 1:
        raise ConfigError(f"k_ntp must be >= 1, got {k_ntp}")
    if k_ntp > steps - 1:
        warnings.warn(
            f"k_ntp={k_ntp} exceeds the {steps - 1} available truncation points; drawing with replacement",
            RuntimeWarning,
        )
        ts = rng.integers(1, steps, size=k_ntp)
    else:
        ts = rng.choice(np.arange(1, steps), size=k_ntp, replace=False)
    instances = []
    for t in (int(v) for v in ts):
        truncated = x.copy()
        truncated[:, t:] = 0.0
        labels = (x[:, t] >= x[:, t - 1]).astype(np.int64)
        instances.append(NtpInstance(truncated=truncated, t=t, labels=labels))
    return instances


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


def ntp_loss(
    encoder: Encoder,
    instances: Sequence[Sequence[NtpInstance]],
    heads: PretextHeads,
    *,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> Tensor:
    """Trend cross-entropy, summed over channels and truncation points.

    ``instances`` groups truncation instances by their source sample; the
    per-sample sums are averaged over the batch.
    """
    groups = [list(g) for g in instances]
    flat_instances = [inst for g in groups for inst in g]
    if not flat_instances:
        raise ConfigError("ntp_loss needs at least one instance")
    stack = np.stack([inst.truncated for inst in flat_instances])
    labels = np.concatenate([inst.labels for inst in flat_instances])
    rep = encoder.encode_batch(stack, rng=rng, train=train)
    n, rows, d = rep.per_channel.shape
    logits = add(matmul(reshape(rep.per_channel, (n * rows, d)), heads.ntp_w), heads.ntp_b)
    ce_mean = cross_entropy(logits, labels)
    total_terms = n * rows
    return mul(ce_mean, constant(total_terms / len(groups)))


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


def cs_projections(
    encoder: Encoder, samples: np.ndarray, heads: PretextHeads, *, rng=None, train: bool = False
) -> Tensor:
    """Encode ``samples`` and project each flat representation (affine, GELU, affine)."""
    rep = encoder.encode_batch(samples, rng=rng, train=train)
    return ffn(rep.flat, heads.cs_w1, heads.cs_b1, heads.cs_w2, heads.cs_b2)


def cs_loss(
    encoder: Encoder,
    batch: CsBatch,
    heads: PretextHeads,
    weights: LossWeights,
    *,
    rng: np.random.Generator | None = None,
    train: bool = False,
) -> Tensor:
    """Project the whole batch in one graph, then apply the similarity loss.

    The whole-batch reference: pretraining computes the same value and
    gradients one origin group at a time (``harness._cs_grad_cache``).
    """
    projections = cs_projections(encoder, batch.samples, heads, rng=rng, train=train)
    return contrastive_loss_from_projections(projections, batch, weights.tau)


def nvp_truncation_count(steps: int) -> int:
    """ceil(0.15 * (T - 1)) truncation points for the regression baseline."""
    return math.ceil(0.15 * (steps - 1))


def nvp_loss(
    encoder: Encoder,
    xs: np.ndarray,
    rng: np.random.Generator,
    heads: PretextHeads,
    *,
    train: bool = False,
) -> Tensor:
    """Next-value regression baseline: squared error on the step after the cut.

    15% of the possible truncation points are sampled per sample; the squared
    errors are summed over channels and points and averaged over the batch.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim == 2:
        xs = xs[None]
    batch, channels, steps = xs.shape
    if steps < 3:
        raise ConfigError(f"next-value instances need at least 3 steps, got {steps}")
    n_points = nvp_truncation_count(steps)
    truncated = []
    targets = []
    for x in xs:
        ts = rng.choice(np.arange(1, steps), size=n_points, replace=False)
        for t in (int(v) for v in ts):
            cut = x.copy()
            cut[:, t:] = 0.0
            truncated.append(cut)
            targets.append(x[:, t])
    rep = encoder.encode_batch(np.stack(truncated), rng=rng, train=train)
    n, rows, d = rep.per_channel.shape
    pred = add(matmul(reshape(rep.per_channel, (n * rows, d)), heads.nvp_w), heads.nvp_b)
    target = constant(np.concatenate(targets)[:, None])
    err = add(pred, mul(target, constant(-1.0)))
    return mul(tensor_sum(mul(err, err)), constant(1.0 / batch))


def combined_loss(ntp, cs, weights: LossWeights):
    """alpha1 * ntp + alpha2 * cs; stays a plain float for float inputs."""
    if isinstance(ntp, Tensor) or isinstance(cs, Tensor):
        return add(mul(constant(weights.alpha1), ntp), mul(constant(weights.alpha2), cs))
    return weights.alpha1 * ntp + weights.alpha2 * cs
