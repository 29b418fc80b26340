"""Training harnesses: self-supervised pretraining, frozen-encoder linear
probing, a supervised-from-scratch baseline, metrics, and the few-shot sweep.

Every run is a pure function of (seed, config, dataset): rng streams are
derived from the seed per purpose, so identical runs produce identical loss
logs and bitwise-identical checkpoints; pretraining draws the dropout masks
of every pretext task (NTP or NVP, then CS) from one. The three trainers
share one update loop, :func:`fit`: each step's loss function leaves its
gradients on the trainables, and ``fit`` checks the loss and makes one
``adam_step``. Pretraining backpropagates each task's weighted part inside
its step and hands the parts' values to ``combined_loss``, the supervised
baseline backpropagates its class loss the same way, and the linear-probe
head records no tape at all: it trains one packed (d + 1, k) array with
closed-form gradient steps. No trainer and no feature extraction passes
the encoder more than ``MICRO_BATCH`` series in one call, with a graph or
without: no trainer builds a graph of more, whatever the batch size and
``k_ntp``, and extraction encodes no more at a time. Every micro-batch loop
of a trainer is a plain iteration of one
:class:`chants.tensor.MicroBatchMasks`, which serves every micro-batch the
dropout masks of one whole-batch pass. The loops encode each micro-batch
once themselves and hand its representation to a head (NTP, NVP, the CS
projection or the supervised classifier), whose loss sums over its rows,
and each part goes through :func:`_backward`, the one caller of
``Tensor.backward``, which checks it is finite before its backward.

``pretrain`` alone writes a run directory, and refuses a run it cannot do
before it writes anything. The directory holds:
- ``manifest.json``: the command, the full ``TrainConfig``, the package
  version, the seed, the UTC start time and ``series_sha256``, the SHA-256
  of the float64 series the run trains on (after any normalization, so it
  names the arrays, not a data file);
- ``log.jsonl``: one record per step (``epoch``, ``step``, ``ntp_loss``,
  ``cs_loss``, ``combined``);
- ``checkpoint_epochNNNN.ckpt`` and ``checkpoint.ckpt``: checkpoints that
  carry the ``TrainConfig`` and any normalization stats, so a checkpoint is
  all ``probe`` and ``fewshot`` need. :func:`load_pretrained`, next to
  ``pretrain``, is the one reader of that layout.

:func:`train_config_from_dict` is the one way to build a ``TrainConfig``
from plain values.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import typing
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import __version__
from .augment import AugmentConfig
from .checkpoint import load_encoder, save_encoder
from .data import MtsDataset, NormStats, batches, class_indices, subsample_rows
from .encoder import CatParams, Encoder, EncoderConfig, _glorot, init_cat_params
from .errors import CheckpointError, ConfigError, DataError, ShapeError, check_fields, field_types
from .optim import adam_step, init_adam_state
from .pretext import (
    CsBatch,
    LossWeights,
    PretextHeads,
    build_cs_batch,
    combined_loss,
    contrastive_loss_from_projections,
    cs_projections,
    init_pretext_heads,
    make_ntp_instances,
    ntp_loss,
    nvp_instances,
    nvp_loss,
)
from .tensor import (
    MicroBatchMasks,
    Tensor,
    _cross_entropy_backward,
    _cross_entropy_forward,
    _onehot,
    constant,
    cross_entropy,
    no_grad,
    reshape,
)

logger = logging.getLogger(__name__)

__all__ = [
    "Metrics",
    "TrainConfig",
    "compute_metrics",
    "extract_features",
    "fewshot_sweep",
    "linear_probe",
    "load_pretrained",
    "pretrain",
    "supervised_baseline",
    "train_config_from_dict",
    "train_linear_head",
]


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter of a run, ablation switches included.

    A pretext task is switched off by setting its weight in ``weights`` to 0.
    Each number declares its bound on its field (learning rates > 0, counts
    >= 1, ``seed`` >= 0), which :func:`chants.errors.check_fields` enforces.
    """

    encoder: EncoderConfig
    weights: LossWeights = field(default_factory=LossWeights)
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    k_ntp: int = field(default=10, metadata={">=": 1})
    pretrain_lr: float = field(default=5e-5, metadata={">": 0})
    probe_lr: float = field(default=1e-3, metadata={">": 0})
    supervised_lr: float = field(default=1e-4, metadata={">": 0})
    pretrain_batch: int = field(default=10, metadata={">=": 1})
    probe_batch: int = field(default=4, metadata={">=": 1})
    pretrain_epochs: int = field(default=40, metadata={">=": 1})
    probe_epochs: int = field(default=100, metadata={">=": 1})
    early_stop_patience: int = field(default=10, metadata={">=": 1})
    save_every: int = field(default=1, metadata={">=": 1})
    seed: int = field(default=0, metadata={">=": 0})
    no_neg_augment: bool = False
    reverse_neg: bool = False
    use_nvp: bool = False

    def __post_init__(self):
        check_fields(self)


def _build(cls, values: Mapping, prefix: str = ""):
    """An instance of the dataclass ``cls`` from typed values, as TOML and
    JSON read them.

    A nested dataclass field builds its instance from a mapping, a tuple
    field takes a list as a tuple, and a float field an integer as a float;
    every other value is passed on as it is, for the dataclass to check its
    type (:func:`chants.errors.check_fields`), so text is refused whatever
    it spells. An error from building a nested section names the section.
    """
    hints = field_types(cls)
    kwargs = {}
    for key, value in values.items():
        kind = hints.get(key)
        if kind is None:
            raise ConfigError(f"unknown config key '{prefix}{key}'")
        if dataclasses.is_dataclass(kind) and isinstance(value, Mapping):
            value = _build(kind, value, f"{prefix}{key}.")
        elif isinstance(value, list) and typing.get_origin(kind) is tuple:
            value = tuple(value)
        elif kind is float and type(value) is int:
            value = float(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"incomplete config {prefix.rstrip('.') or 'block'}: {exc}") from None
    except ConfigError as exc:
        raise (ConfigError(f"config section '{prefix.rstrip('.')}': {exc}") if prefix else exc) from None


def train_config_from_dict(values: Mapping) -> TrainConfig:
    """Build a ``TrainConfig`` from ``{field: value, section: {field: value}}``.

    Sections are ``encoder``, ``weights`` and ``aug``. This is the one
    builder of a config file (:func:`chants.cli.read_config_file`), a run
    manifest's ``config`` and a checkpoint's training config: values are
    typed as TOML and JSON read them, a list standing for a range and an
    integer for a float (:func:`_build`), and the dataclasses check every
    value's type, so text such as ``"7"`` or ``"true"`` is refused. A key
    that is not a field, such as the ``no_ntp``, ``no_cs`` and
    ``aug.rng_seed`` of configs written before the loss weights switched
    tasks off, raises ``ConfigError``.
    """
    return _build(TrainConfig, values)


@dataclass
class Metrics:
    """Accuracy, macro-F1, per-class F1, and the confusion matrix."""

    accuracy: float
    macro_f1: float
    per_class_f1: np.ndarray
    confusion: np.ndarray


def compute_metrics(pred, truth, class_count: int) -> Metrics:
    """Exact-match accuracy and unweighted mean F1 over classes.

    ``confusion[i, j]`` counts samples of true class i predicted as j; a class
    with zero precision+recall contributes an F1 of 0. Predictions and labels
    must be integers in [0, ``class_count``): text or a value such as 0.9
    raises ``ConfigError`` naming it, rather than being truncated.
    """
    pred = class_indices(pred, "predictions", ConfigError)
    truth = class_indices(truth, "labels", ConfigError)
    if pred.shape != truth.shape:
        raise ConfigError(f"predictions of shape {pred.shape} for labels of shape {truth.shape}")
    if pred.size == 0:
        raise ConfigError("compute_metrics needs at least one sample")
    for arr, what in ((pred, "prediction"), (truth, "label")):
        if arr.min() < 0 or arr.max() >= class_count:
            raise ConfigError(f"{what} outside [0, {class_count})")
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (truth, pred), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    diag = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    precision = np.divide(diag, col, out=np.zeros(class_count), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros(class_count), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros(class_count), where=pr > 0)
    return Metrics(
        accuracy=accuracy,
        macro_f1=float(f1.mean()),
        per_class_f1=f1,
        confusion=confusion,
    )


# ---------------------------------------------------------------------------
# the update loop
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit(
    trainables: Mapping[str, Tensor],
    *,
    lr: float,
    epochs: int,
    patience: int,
    epoch_batches: Callable[[int], Iterable],
    step_loss: Callable[[object], tuple[float, dict]],
    log: list[dict] | None = None,
    on_epoch: Callable[[int, float, int, bool], None] | None = None,
) -> bool:
    """Train ``trainables`` with Adam; return whether the run stopped early.

    ``epoch_batches(epoch)`` yields one epoch's batches. Each step clears
    the trainables' gradients, then ``step_loss(batch)`` leaves the step's
    gradients on them (``.grad``, None for zero) and returns the loss value
    and the fields to log with it; once the step's update is taken,
    ``{"epoch", "step", **fields}`` is appended to ``log`` (when given). A
    non-finite loss raises ``FloatingPointError`` before the update, and an
    epoch that yields no batch raises ``ConfigError``. The run stops once
    the epoch mean has not improved for ``patience`` epochs; after each
    epoch ``on_epoch(epoch, mean loss, steps so far, last)`` runs, ``last``
    telling whether the run ends with this epoch, early or not. The name ->
    array mapping that Adam updates in place is built once per run (so
    nothing may rebind a trainable's ``data`` during it), and a step makes
    one ``adam_step`` call. numpy's overflow, invalid-value and division
    warnings are off during the run, since a non-finite loss or gradient
    raises ``FloatingPointError`` instead.
    """
    named = list(trainables.items())
    arrays = {k: t.data for k, t in named}
    state = init_adam_state(arrays, lr=lr)
    best = math.inf
    stale = 0
    step = 0
    for epoch in range(epochs):
        losses: list[float] = []
        for batch in epoch_batches(epoch):
            for _, t in named:
                t.zero_grad()
            value, fields = step_loss(batch)
            if not math.isfinite(value):
                raise FloatingPointError(f"non-finite loss {value} at epoch {epoch} step {step}")
            adam_step(arrays, {k: t.grad for k, t in named if t.grad is not None}, state)  # in place
            if log is not None:
                log.append({"epoch": epoch, "step": step, **fields})
            losses.append(value)
            step += 1
        if not losses:
            raise ConfigError(f"epoch {epoch} yielded no batch")
        epoch_mean = float(np.mean(losses))
        if epoch_mean < best - 1e-12:
            best, stale = epoch_mean, 0
        else:
            stale += 1
        if on_epoch is not None:
            on_epoch(epoch, epoch_mean, step, stale >= patience or epoch == epochs - 1)
        if stale >= patience:
            logger.info("loss plateaued for %d epochs, stopping early", stale)
            return True
    return False


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------


MICRO_BATCH = 5
"""Most series that a trainer or feature extraction passes the encoder in
one call, with a graph or without: one CS group, an original with
its two positives and two negatives. No trainer builds a graph of more,
and :func:`extract_features` encodes no more at a time."""


def _backward(out: Tensor, grad, describe: Callable[[float], str]) -> float:
    """Backpropagate ``grad`` through ``out``; return the sum of its entries.

    An ``out`` with a non-finite entry raises ``FloatingPointError`` with
    ``describe(sum)`` before any backward.
    """
    value = float(out.data.sum())
    if not np.isfinite(out.data).all():
        raise FloatingPointError("non-finite " + describe(value))
    out.backward(grad)
    return value


def _micro_batch_masks(rng: np.random.Generator, rows: int) -> MicroBatchMasks:
    """The masks of one pass over ``rows`` rows, served in runs of at most ``MICRO_BATCH``."""
    return MicroBatchMasks(rng, [min(MICRO_BATCH, rows - lo) for lo in range(0, rows, MICRO_BATCH)])


def _in_micro_batches(
    encoder: Encoder, heads, task: str, loss: Callable[..., Tensor],
    inputs: np.ndarray, targets: np.ndarray, rng: np.random.Generator, weight: float,
) -> float:
    """The summed ``loss`` over the rows of ``inputs``, with ``weight`` times its gradient added to the leaves.

    The rows run in micro-batches of at most ``MICRO_BATCH`` consecutive
    rows. Each is encoded with its rows of the dropout masks that one pass
    over all of them would draw from ``rng``, scored by
    ``loss(rep, targets, heads)``, a head that sums over the rows of the
    representation ``rep`` (NTP and NVP over truncated copies, the
    supervised class loss over samples), and backpropagated before the next
    is encoded. So the summed values and gradients are those of that one
    pass, up to rounding, and ``rng`` ends where it would leave it. A
    non-finite part raises ``FloatingPointError`` naming ``task`` and its
    rows before its backward.
    """
    masks, grad = _micro_batch_masks(rng, len(inputs)), np.asarray(weight)
    total = 0.0
    for lo, hi in masks:
        out = loss(encoder.encode_batch(inputs[lo:hi], rng=masks), targets[lo:hi], heads)
        total += _backward(out, grad, lambda value: f"{task} loss {value} on rows {lo} to {hi - 1} of the batch")
    return total


def _cs_grad_cache(
    encoder: Encoder, batch: CsBatch, heads: PretextHeads, rng: np.random.Generator, weight: float, tau: float
) -> float:
    """The CS loss at temperature ``tau`` over ``batch``, with ``weight`` times its gradient added to the leaves.

    Gradient caching (Gao et al. 2021, arXiv 2101.06983) over micro-batches
    of at most ``MICRO_BATCH`` consecutive rows (for the standard batch, one
    original with its four augmentations each):
    1. encode and project the batch without a graph, one micro-batch at a time;
    2. take the loss on a leaf holding the stacked projections and
       backpropagate ``weight`` to that leaf only;
    3. encode each micro-batch again with a graph and backpropagate its rows
       of the cached projection gradient through it.
    Both passes iterate one :class:`MicroBatchMasks`, so they see the
    dropout masks of one whole-batch pass and ``rng`` ends where ``cs_loss``
    would leave it: the value and the gradients are those of ``cs_loss`` up
    to rounding. A non-finite loss raises ``FloatingPointError`` before any
    backward.
    """
    masks = _micro_batch_masks(rng, batch.size)
    with no_grad():
        rows = [cs_projections(encoder.encode_batch(batch.samples[lo:hi], rng=masks), heads).data for lo, hi in masks]
    cached = Tensor(np.concatenate(rows), requires_grad=True)
    loss = contrastive_loss_from_projections(cached, batch, tau)
    value = _backward(loss, np.asarray(weight), lambda value: f"CS loss {value}")
    for lo, hi in masks:
        out = cs_projections(encoder.encode_batch(batch.samples[lo:hi], rng=masks), heads)
        _backward(
            out, cached.grad[lo:hi], lambda value: f"CS projections (sum {value}) of rows {lo} to {hi - 1} of the batch"
        )
    return value


def _check_pretrain(ds: MtsDataset, cfg: TrainConfig) -> None:
    """Raise ``ConfigError`` unless :func:`pretrain` can run ``cfg`` on ``ds``.

    ``ds`` must hold at least one sample of the encoder's (channels, steps).
    With the truncation task on (``weights.alpha1`` > 0), next-trend and
    next-value prediction label each channel of a truncated copy, so they
    need one representation row per channel (every variant but ``tat``) and
    at least 3 steps to cut. ``pretrain`` checks this before it touches
    ``out_dir``.
    """
    if ds.size < 1:
        raise ConfigError("pretraining needs at least one sample")
    if (ds.channels, ds.steps) != (cfg.encoder.channels, cfg.encoder.steps):
        raise ConfigError(
            f"dataset (channels, steps) = ({ds.channels}, {ds.steps}) does not match "
            f"the encoder config's ({cfg.encoder.channels}, {cfg.encoder.steps})"
        )
    if cfg.weights.alpha1 > 0.0 and cfg.encoder.variant == "tat":
        raise ConfigError(
            "next-trend and next-value labels are per channel, but tat has a row per step; set weights.alpha1 = 0"
        )
    if cfg.weights.alpha1 > 0.0 and ds.steps < 3:
        raise ConfigError(f"truncated copies need at least 3 steps, got {ds.steps}; set weights.alpha1 = 0")


def pretrain(
    ds: MtsDataset,
    cfg: TrainConfig,
    *,
    out_dir=None,
    norm: NormStats | None = None,
) -> tuple[CatParams, PretextHeads, list[dict]]:
    """Run the self-supervised loop and return (params, heads, step log).

    Per step: build the contrastive batch and the trend instances on the same
    originals, combine the two losses with their weights (a weight of 0
    skips its task; ablation flags drop the contrastive negatives, count
    them as positives (:func:`chants.pretext.build_cs_batch` builds either
    batch), or swap the trend task for value regression), and take one
    Adam step. No graph holds more than ``MICRO_BATCH`` (5) encoded series:
    every task runs in micro-batches, each backpropagated before the next is
    encoded, with the dropout masks one whole-batch pass would draw, so the
    step's gradient is that of the whole batch, up to rounding:
    - next-trend prediction (``k_ntp`` cuts per sample) and its ``use_nvp``
      variant, next-value regression, draw every truncation of the batch
      first, then encode the flat list of copies in micro-batches
      (:func:`_in_micro_batches`);
    - contextual similarity runs through gradient caching: the batch is
      projected without a graph, the loss's gradient with respect to the
      projections is cached, and each micro-batch (for the standard batch,
      one original and its augmentations) is encoded again with a graph to
      backpropagate its rows of that gradient (:func:`_cs_grad_cache`).

    When ``out_dir`` is given, it is created if need be and the run writes
    its whole directory there. The epoch and final checkpoints and the
    ``log.jsonl`` an earlier run left in ``out_dir`` are removed (and
    logged) first, so a run that aborts leaves none of them behind. Then
    ``manifest.json`` is written: ``command``, ``config`` (the whole
    ``TrainConfig``), ``code_version``, ``seed``, ``created`` (UTC, ISO
    8601) and ``series_sha256``, the SHA-256 of ``ds.series`` as the
    float64 array this run trains on. An epoch checkpoint is written every
    ``save_every`` epochs and after the last, early stop or not, keeping the
    last two and the first with the lowest loss, ``log.jsonl`` once the
    loop ends or aborts, and ``checkpoint.ckpt`` at the end. Each checkpoint
    holds the encoder config (the checkpoint manifest's ``config``, which
    :func:`chants.checkpoint.load_encoder` builds the parameters under), the
    heads, every other ``TrainConfig`` field as ``meta.train_config`` and,
    when ``norm`` gives the stats ``ds`` was normalized with, those stats as
    the ``extra`` arrays ``norm.mean`` and ``norm.std``;
    :func:`load_pretrained` reads all three back. A non-finite loss or
    gradient raises ``FloatingPointError`` with the manifest, the log so
    far and this run's checkpoints left in place. A run
    :func:`_check_pretrain` rejects, and an ``out_dir`` where a directory
    holds the name of ``manifest.json``, ``log.jsonl`` or a checkpoint,
    raise ``ConfigError`` before ``out_dir`` is touched, and a config with a
    field of the wrong type never reaches it: every config dataclass
    refuses one at construction (:func:`chants.errors.check_fields`).
    """
    _check_pretrain(ds, cfg)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        # every checkpoint and log in out_dir must belong to this run, even if it aborts
        stale = sorted([*out_dir.glob("checkpoint*.ckpt"), *out_dir.glob("log.jsonl")])
        for path in (out_dir / "manifest.json", *stale):
            if path.is_dir():
                raise ConfigError(f"output file is a directory: {path}")
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in stale:
            logger.info("removing %s, left by an earlier run", path.name)
            path.unlink()
        manifest = {
            "command": "pretrain",
            "config": dataclasses.asdict(cfg),
            "series_sha256": hashlib.sha256(np.ascontiguousarray(ds.series)).hexdigest(),
            "code_version": __version__,
            "seed": cfg.seed,
            "created": datetime.now(timezone.utc).isoformat(),
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    rng_init = np.random.default_rng([cfg.seed, 1])
    rng_aug = np.random.default_rng([cfg.seed, 2])
    rng_ntp = np.random.default_rng([cfg.seed, 3])
    rng_drop = np.random.default_rng([cfg.seed, 4])

    params = init_cat_params(cfg.encoder, rng_init)
    heads = init_pretext_heads(cfg.encoder, rng_init)
    encoder = Encoder(params, cfg.encoder)
    weights = cfg.weights

    def step_loss(rows):
        # each part is backpropagated as it is computed: its value joins the
        # combined loss as a constant
        x = ds.series[rows]
        ntp = cs = 0.0
        if weights.alpha1 > 0.0:
            if cfg.use_nvp:
                task, loss = "NVP", nvp_loss
                truncated, targets = nvp_instances(x, rng_ntp)
            else:
                task, loss = "NTP", ntp_loss
                truncated, targets = make_ntp_instances(x, cfg.k_ntp, rng_ntp)
            b = len(x)
            ntp = _in_micro_batches(encoder, heads, task, loss, truncated, targets, rng_drop, weights.alpha1 / b) / b
        if weights.alpha2 > 0.0:
            cs_batch = build_cs_batch(
                x, cfg.aug, rng_aug, include_negatives=not cfg.no_neg_augment, reverse_neg=cfg.reverse_neg
            )
            cs = _cs_grad_cache(encoder, cs_batch, heads, rng_drop, weights.alpha2, weights.tau)
        combined = combined_loss(constant(ntp), constant(cs), weights).item()
        return combined, {"ntp_loss": ntp, "cs_loss": cs, "combined": combined}

    def save(path: Path, step: int, **meta) -> None:
        extra = {k: t.data for k, t in heads.named().items()}
        if norm is not None:
            extra["norm.mean"], extra["norm.std"] = norm.mean, norm.std
        meta["train_config"] = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "encoder"}
        save_encoder(path, params, cfg.encoder, seed=cfg.seed, step=step, extra=extra, meta=meta)

    saved: list[tuple[float, Path]] = []

    def on_epoch(epoch: int, mean: float, step: int, last: bool) -> None:
        logger.info("pretrain epoch %d: combined loss %.6f (%d steps so far)", epoch, mean, step)
        if out_dir is not None and ((epoch + 1) % cfg.save_every == 0 or last):
            path = out_dir / f"checkpoint_epoch{epoch:04d}.ckpt"
            save(path, step, epoch=epoch, train_loss=mean)
            # keep the last two epoch checkpoints plus the first with the lowest train loss
            saved.append((mean, path))
            best = min(saved, key=lambda entry: entry[0])[1]
            for _, old in saved[:-2]:
                if old != best and old.exists():
                    old.unlink()

    log: list[dict] = []
    try:
        stopped = fit(
            {**params.trainable(), **heads.named()},
            lr=cfg.pretrain_lr,
            epochs=cfg.pretrain_epochs,
            patience=cfg.early_stop_patience,
            epoch_batches=lambda epoch: batches(ds, cfg.pretrain_batch, seed=cfg.seed, epoch=epoch),
            step_loss=step_loss,
            log=log,
            on_epoch=on_epoch,
        )
    finally:
        if out_dir is not None:
            with open(out_dir / "log.jsonl", "w", encoding="utf-8") as fh:
                for record in log:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
    if out_dir is not None:
        save(out_dir / "checkpoint.ckpt", len(log), final=True, stopped_early=stopped)
    return params, heads, log


def load_pretrained(path) -> tuple[CatParams, TrainConfig, NormStats | None]:
    """The encoder parameters, training config and normalization stats of a
    :func:`pretrain` checkpoint; the stats are None when it holds none.

    The config is ``meta.train_config`` under the manifest's encoder
    ``config``, the one the parameters were saved under; the encoder block
    older checkpoints keep in ``meta.train_config`` is not read. A file that
    cannot be read or holds no valid encoder, a missing or bad training
    config, and stats that are not both present, finite and one per channel
    of the encoder raise ``CheckpointError`` naming ``path``.
    """
    params, config, manifest, extra = load_encoder(path)
    meta = manifest.get("meta", {})
    snapshot = meta.get("train_config") if isinstance(meta, dict) else meta
    if not isinstance(snapshot, dict):
        raise CheckpointError(f"{path}: no training config object (meta.train_config); not written by pretrain")
    try:
        cfg = train_config_from_dict({**snapshot, "encoder": manifest["config"]})
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad training config: {exc}") from exc
    mean, std = extra.get("norm.mean"), extra.get("norm.std")
    if mean is None and std is None:
        return params, cfg, None
    if any(v is None or v.shape != (config.channels,) for v in (mean, std)):
        raise CheckpointError(f"{path}: normalization stats must be norm.mean and norm.std of length {config.channels}")
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise CheckpointError(f"{path}: normalization stats norm.mean and norm.std must be finite")
    return params, cfg, NormStats(mean=mean, std=std)


# ---------------------------------------------------------------------------
# probing and supervised training
# ---------------------------------------------------------------------------


def extract_features(encoder: Encoder, series: np.ndarray, chunk: int = MICRO_BATCH) -> np.ndarray:
    """Flat representations with no graph built; the encoder stays untouched.

    Returns a float64 (n, ``encoder.flat_dim``) array, filled by encoding
    ``min(chunk, MICRO_BATCH)`` series at a time; zero series give a
    (0, flat_dim) array. The encoder never mixes series, so every block
    size gives bitwise the same rows. ``chunk`` can only shrink the block
    below ``MICRO_BATCH``, and so the chunk-sized attention and layer-norm
    arrays with it (the FFN runs one series at a time whatever the block);
    a larger ``chunk`` changes nothing. A ``chunk`` that is not
    an integer >= 1 raises ``ConfigError``.
    """
    if isinstance(chunk, bool) or not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ConfigError(f"chunk must be an integer >= 1, got {chunk!r}")
    block = min(int(chunk), MICRO_BATCH)
    features = np.empty((len(series), encoder.flat_dim))
    with no_grad():
        for start in range(0, len(series), block):
            rows = series[start : start + block]
            features[start : start + len(rows)] = encoder.encode_batch(rows).data.reshape(len(rows), -1)
    return features


def train_linear_head(
    features: np.ndarray,
    labels: np.ndarray,
    class_count: int,
    *,
    lr: float,
    batch_size: int,
    epochs: int,
    patience: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Train one affine layer with cross entropy on fixed features; return (w, b).

    ``features`` is (n, d) with n >= 1 and ``labels`` holds n integers in
    [0, ``class_count``). The head is one (d + 1, ``class_count``) array:
    the Glorot-initialised weights ``w`` with the zero bias ``b`` as its last
    row, both returned as views of it, so ``features @ w + b`` are the
    logits. Each epoch gathers its shuffled rows and one-hot rows once and
    slices its batches of ``batch_size`` rows from them. A step of m rows
    takes the batch's mean loss and its gradient with respect to the packed
    array in closed form: the summed arithmetic of
    :func:`chants.tensor.cross_entropy` with 1/m as the upstream gradient,
    and its sum times 1/m, so ``w`` and ``b`` are bitwise those of the mean
    cross entropy's node with Adam on each. A step records no tape node and
    makes one ``adam_step`` over the one array. Bad shapes raise
    ``ShapeError``, an empty set of rows or a batch size under 1 raises
    ``ConfigError``, and a label outside [0, ``class_count``) raises
    ``IndexError``, all before any step.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2:
        raise ShapeError(f"train_linear_head needs (n, d) features, got shape {features.shape}")
    n, dim = features.shape
    if labels.shape != (n,):
        raise ShapeError(f"train_linear_head got {n} feature rows but labels of shape {labels.shape}")
    if n == 0:
        raise ConfigError("train_linear_head needs at least one feature row")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    onehot = _onehot(labels, class_count)
    head = Tensor(np.zeros((dim + 1, class_count)))
    w, b = head.data[:-1], head.data[-1]
    w[...] = _glorot(np.random.default_rng([seed, 10]), dim, class_count).data
    grad = np.empty_like(head.data)  # refilled by every step; adam_step keeps no reference to it

    def epoch_batches(epoch: int):
        order = np.random.default_rng([seed, 11, epoch]).permutation(n)
        rows, hot = features[order], onehot[order]
        return ((rows[lo : lo + batch_size], hot[lo : lo + batch_size]) for lo in range(0, n, batch_size))

    def step_loss(batch):
        rows, hot = batch
        loss, e, total = _cross_entropy_forward(rows, w, b, hot)
        d = _cross_entropy_backward(1.0 / len(rows), hot, e, total)
        np.matmul(rows.T, d, out=grad[:-1])
        np.add.reduce(d, axis=0, out=grad[-1])
        head.grad = grad
        return loss * (1.0 / len(rows)), {}

    fit({"head": head}, lr=lr, epochs=epochs, patience=patience, epoch_batches=epoch_batches, step_loss=step_loss)
    return w, b


def _score(
    w: np.ndarray,
    b: np.ndarray,
    feats_test: np.ndarray,
    labels_test: np.ndarray,
    labels_train: np.ndarray,
    class_count: int,
) -> Metrics:
    """Metrics of the affine head (``w``, ``b``) on the test features.

    Classes absent from ``labels_train`` are masked so they are never
    predicted, scoring their test samples wrong; a warning names those the
    test split holds.
    """
    present = np.zeros(class_count, dtype=bool)
    present[np.unique(labels_train)] = True
    missing = sorted(int(v) for v in set(np.unique(labels_test)) - set(np.unique(labels_train)))
    if missing:
        warnings.warn(
            f"classes {missing} appear in the test split but not in training; "
            "they will always be scored wrong",
            RuntimeWarning,
        )
    logits = feats_test @ w + b
    logits[:, ~present] = -np.inf
    return compute_metrics(logits.argmax(axis=1), labels_test, class_count)


def _probe_features(
    feats_train: np.ndarray,
    labels_train: np.ndarray,
    feats_test: np.ndarray,
    labels_test: np.ndarray,
    class_count: int,
    cfg: TrainConfig,
) -> Metrics:
    """Train one affine head on the train features and score the test features (:func:`_score`)."""
    w, b = train_linear_head(
        feats_train,
        labels_train,
        class_count,
        lr=cfg.probe_lr,
        batch_size=cfg.probe_batch,
        epochs=cfg.probe_epochs,
        patience=cfg.early_stop_patience,
        seed=cfg.seed,
    )
    return _score(w, b, feats_test, labels_test, labels_train, class_count)


def linear_probe(
    ds_train: MtsDataset,
    ds_test: MtsDataset,
    encoder_params: CatParams,
    cfg: TrainConfig,
) -> Metrics:
    """Train one affine head on top of the frozen encoder and score the test split.

    Encoder parameters receive no gradients (features are extracted outside
    the tape). Classes absent from the training split trigger a warning and
    are masked so they are never predicted, scoring their test samples wrong.
    """
    if ds_train.labels is None or ds_test.labels is None:
        raise DataError("linear_probe needs labeled train and test splits")
    k = max(ds_train.class_count, ds_test.class_count)
    encoder = Encoder(encoder_params, cfg.encoder)
    feats_train = extract_features(encoder, ds_train.series)
    feats_test = extract_features(encoder, ds_test.series)
    return _probe_features(feats_train, ds_train.labels, feats_test, ds_test.labels, k, cfg)


def supervised_baseline(
    ds_train: MtsDataset,
    ds_test: MtsDataset,
    cfg: TrainConfig,
) -> Metrics:
    """Train encoder plus head end to end with cross entropy, then score.

    A step of n samples runs through :func:`_in_micro_batches`, as NTP and
    NVP do: it encodes each micro-batch, and the class head's cross entropy,
    summed over the micro-batch's samples, is backpropagated at weight 1/n,
    so the step's gradient is that of the batch's mean loss, up to
    rounding, and no graph holds more than ``MICRO_BATCH`` series. Classes
    absent from the training split trigger a warning and are masked so they
    are never predicted, scoring their test samples wrong.
    """
    if ds_train.labels is None or ds_test.labels is None:
        raise DataError("supervised_baseline needs labeled train and test splits")
    k = max(ds_train.class_count, ds_test.class_count)
    rng_init = np.random.default_rng([cfg.seed, 20])
    rng_drop = np.random.default_rng([cfg.seed, 21])
    params = init_cat_params(cfg.encoder, rng_init)
    encoder = Encoder(params, cfg.encoder)
    head_w = _glorot(rng_init, encoder.flat_dim, k)
    head_b = Tensor(np.zeros(k), requires_grad=True)

    def summed_loss(rep, labels, head):
        return cross_entropy(reshape(rep, (len(labels), -1)), *head, labels)

    def step_loss(rows):
        n = len(rows)
        head = (head_w, head_b)
        x, labels = ds_train.series[rows], ds_train.labels[rows]
        total = _in_micro_batches(encoder, head, "supervised", summed_loss, x, labels, rng_drop, 1 / n)
        return total / n, {}

    fit(
        {**params.trainable(), "head.w": head_w, "head.b": head_b},
        lr=cfg.supervised_lr,
        epochs=cfg.probe_epochs,
        patience=cfg.early_stop_patience,
        epoch_batches=lambda epoch: batches(ds_train, cfg.probe_batch, seed=cfg.seed, epoch=epoch),
        step_loss=step_loss,
        on_epoch=lambda epoch, mean, *_: logger.info("supervised epoch %d: loss %.6f", epoch, mean),
    )

    feats_test = extract_features(encoder, ds_test.series)
    return _score(head_w.data, head_b.data, feats_test, ds_test.labels, ds_train.labels, k)


# ---------------------------------------------------------------------------
# few-shot sweep
# ---------------------------------------------------------------------------


def fewshot_sweep(
    ds_train: MtsDataset,
    ds_test: MtsDataset,
    encoder_params: CatParams,
    cfg: TrainConfig,
    fractions,
    *,
    repeats: int = 5,
) -> list[dict]:
    """Frozen-probe vs supervised-from-scratch at each label fraction.

    Each cell repeats over ``repeats`` seeds (cfg.seed + 0..repeats-1) and
    reports mean and population std of accuracy and macro-F1. Each repeat
    trains on the rows of ``ds_train`` that :func:`subsample_rows` picks for
    its seed, the subsample :func:`subsample` gives. Every fraction's rows
    are picked first, so a fraction outside (0, 1] raises ``ConfigError``
    before any extraction. The frozen encoder's features are extracted once
    per sweep, and each probe takes its subsample's rows of them: the same
    features, row for row, that :func:`linear_probe` on the subsample
    extracts.
    """
    fractions = list(fractions)
    if not fractions:
        raise ConfigError("fewshot_sweep needs at least one fraction")
    if repeats < 1:
        raise ConfigError(f"fewshot_sweep needs repeats >= 1, got {repeats}")
    picks = {(f, r): subsample_rows(ds_train, f, seed=cfg.seed + r) for f in fractions for r in range(repeats)}
    if ds_test.labels is None:
        raise DataError("fewshot_sweep needs a labeled test split")
    class_count = max(ds_train.class_count, ds_test.class_count)
    encoder = Encoder(encoder_params, cfg.encoder)
    feats_train = extract_features(encoder, ds_train.series)
    feats_test = extract_features(encoder, ds_test.series)
    rows: list[dict] = []
    for fraction in fractions:
        for mode in ("probe", "supervised"):
            accs, mf1s = [], []
            for k in range(repeats):
                run_cfg = dataclasses.replace(cfg, seed=cfg.seed + k)
                pick = picks[fraction, k]
                if mode == "probe":
                    metrics = _probe_features(
                        feats_train[pick], ds_train.labels[pick], feats_test, ds_test.labels, class_count, run_cfg
                    )
                else:
                    small = dataclasses.replace(ds_train, series=ds_train.series[pick], labels=ds_train.labels[pick])
                    metrics = supervised_baseline(small, ds_test, run_cfg)
                accs.append(metrics.accuracy)
                mf1s.append(metrics.macro_f1)
            rows.append(
                {
                    "fraction": fraction,
                    "mode": mode,
                    "acc_mean": float(np.mean(accs)),
                    "acc_std": float(np.std(accs)),
                    "mf1_mean": float(np.mean(mf1s)),
                    "mf1_std": float(np.std(mf1s)),
                }
            )
    return rows
