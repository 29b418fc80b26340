"""Training harnesses: self-supervised pretraining, frozen-encoder linear
probing, a supervised-from-scratch baseline, metrics, and the few-shot sweep.

Every run is a pure function of (seed, config, dataset): rng streams are
derived from the seed per purpose, so identical runs produce identical loss
logs and bitwise-identical checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .checkpoint import save_encoder
from .data import MtsDataset, batches, subsample
from .encoder import CatParams, Encoder, EncoderConfig, init_cat_params
from .errors import ConfigError
from .optim import adam_step, init_adam_state
from .pretext import (
    LossWeights,
    PretextHeads,
    build_cs_batch,
    combined_loss,
    cs_loss,
    init_pretext_heads,
    make_ntp_instances,
    ntp_loss,
    nvp_loss,
    reverse_neg_mode,
)
from .tensor import Tensor, add, constant, cross_entropy, matmul, no_grad

logger = logging.getLogger(__name__)

__all__ = [
    "Metrics",
    "TrainConfig",
    "compute_metrics",
    "extract_features",
    "fewshot_sweep",
    "linear_probe",
    "pretrain",
    "supervised_baseline",
    "train_linear_head",
]


@dataclass
class TrainConfig:
    """Every hyperparameter of a run, ablation switches included."""

    encoder: EncoderConfig
    weights: LossWeights = field(default_factory=LossWeights)
    aug: AugmentConfig = field(default_factory=AugmentConfig)
    k_ntp: int = 10
    pretrain_lr: float = 5e-5
    probe_lr: float = 1e-3
    supervised_lr: float = 1e-4
    pretrain_batch: int = 10
    probe_batch: int = 4
    pretrain_epochs: int = 40
    probe_epochs: int = 100
    early_stop_patience: int = 10
    save_every: int = 1
    seed: int = 0
    no_ntp: bool = False
    no_cs: bool = False
    no_neg_augment: bool = False
    reverse_neg: bool = False
    use_nvp: bool = False

    def __post_init__(self):
        for name in ("pretrain_lr", "probe_lr", "supervised_lr"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("pretrain_batch", "probe_batch", "pretrain_epochs", "probe_epochs", "k_ntp", "save_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")
        if self.effective_alpha1 == 0.0 and self.effective_alpha2 == 0.0:
            raise ConfigError("both pretext tasks are disabled; nothing to pretrain")

    @property
    def effective_alpha1(self) -> float:
        return 0.0 if self.no_ntp else self.weights.alpha1

    @property
    def effective_alpha2(self) -> float:
        return 0.0 if self.no_cs else self.weights.alpha2


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
    with zero precision+recall contributes an F1 of 0.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ConfigError(f"{pred.shape[0]} predictions for {truth.shape[0]} labels")
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
# pretraining
# ---------------------------------------------------------------------------


def _write_log(out_dir: Path | None, log: list[dict]) -> None:
    if out_dir is None:
        return
    with open(out_dir / "log.jsonl", "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class _CheckpointKeeper:
    """Keep the last two epoch checkpoints plus the best-by-train-loss one."""

    def __init__(self, out_dir: Path | None):
        self.out_dir = out_dir
        self.saved: list[tuple[int, Path]] = []
        self.best: tuple[float, Path] | None = None

    def save(self, epoch: int, loss: float, params, config, cfg: TrainConfig, heads, step: int):
        if self.out_dir is None:
            return
        path = self.out_dir / f"checkpoint_epoch{epoch:04d}.ckpt"
        extras = {k: t.data for k, t in heads.named().items()}
        meta = {"epoch": epoch, "train_loss": loss, "train_config": _config_dict(cfg)}
        save_encoder(path, params, config, seed=cfg.seed, step=step, extra=extras, meta=meta)
        self.saved.append((epoch, path))
        if self.best is None or loss < self.best[0]:
            self.best = (loss, path)
        keep = {p for _, p in self.saved[-2:]}
        if self.best is not None:
            keep.add(self.best[1])
        for _, p in self.saved[:-2]:
            if p not in keep and p.exists():
                p.unlink()


def _config_dict(cfg: TrainConfig) -> dict:
    out = dataclasses.asdict(cfg)
    return out


def pretrain(
    ds: MtsDataset,
    cfg: TrainConfig,
    *,
    out_dir=None,
) -> tuple[CatParams, PretextHeads, list[dict]]:
    """Run the self-supervised loop and return (params, heads, step log).

    Per step: build the contrastive batch and the trend instances on the same
    originals, combine the two losses with their weights (ablation flags can
    zero either side, drop the negatives, flip them to positives, or swap the
    trend task for value regression), and take one Adam step. Checkpoints are
    written per epoch when ``out_dir`` is given, keeping the last two and the
    best; a non-finite loss aborts with previously written checkpoints left
    in place.
    """
    if ds.size < 1:
        raise ConfigError("pretraining needs at least one sample")
    if ds.channels != cfg.encoder.channels or ds.steps != cfg.encoder.steps:
        raise ConfigError(
            f"dataset shape (C, T) = ({ds.channels}, {ds.steps}) does not match "
            f"encoder config ({cfg.encoder.channels}, {cfg.encoder.steps})"
        )
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rng_init = np.random.default_rng([cfg.seed, 1])
    rng_aug = np.random.default_rng([cfg.seed, 2])
    rng_ntp = np.random.default_rng([cfg.seed, 3])
    rng_drop = np.random.default_rng([cfg.seed, 4])

    params = init_cat_params(cfg.encoder, rng_init)
    heads = init_pretext_heads(cfg.encoder, rng_init)
    encoder = Encoder(params, cfg.encoder)
    trainables = {**params.trainable(), **heads.named()}
    state = init_adam_state({k: t.data for k, t in trainables.items()}, lr=cfg.pretrain_lr)

    a1, a2 = cfg.effective_alpha1, cfg.effective_alpha2
    eff_weights = LossWeights(alpha1=a1, alpha2=a2, tau=cfg.weights.tau)

    log: list[dict] = []
    keeper = _CheckpointKeeper(out_dir)
    best_epoch_loss = math.inf
    stale = 0
    step = 0
    stopped = False
    for epoch in range(cfg.pretrain_epochs):
        epoch_losses: list[float] = []
        for batch in batches(ds, cfg.pretrain_batch, shuffle=True, seed=cfg.seed, epoch=epoch):
            for t in trainables.values():
                t.zero_grad()

            if a1 > 0.0:
                if cfg.use_nvp:
                    ntp_part = nvp_loss(encoder, batch.x, rng_ntp, heads, train=True)
                else:
                    groups = [make_ntp_instances(x, cfg.k_ntp, rng_ntp) for x in batch.x]
                    ntp_part = ntp_loss(encoder, groups, heads, rng=rng_drop, train=True)
            else:
                ntp_part = constant(0.0)
            if a2 > 0.0:
                cs_batch = build_cs_batch(
                    batch.x, cfg.aug, rng_aug, include_negatives=not cfg.no_neg_augment
                )
                if cfg.reverse_neg:
                    cs_batch = reverse_neg_mode(cs_batch)
                cs_part = cs_loss(encoder, cs_batch, heads, eff_weights, rng=rng_drop, train=True)
            else:
                cs_part = constant(0.0)

            combined = combined_loss(ntp_part, cs_part, eff_weights)
            value = combined.item()
            record = {
                "epoch": epoch,
                "step": step,
                "ntp_loss": ntp_part.item(),
                "cs_loss": cs_part.item(),
                "combined": value,
            }
            # no graph outlives its step: backward frees it, and only
            # `combined` refers to it from here on
            del ntp_part, cs_part
            if not math.isfinite(value):
                _write_log(out_dir, log)
                raise FloatingPointError(
                    f"non-finite loss {value} at epoch {epoch} step {step}; "
                    "last-good checkpoints retained"
                )
            combined.backward()
            del combined
            grads = {k: t.grad for k, t in trainables.items() if t.grad is not None}
            new_values, state = adam_step({k: t.data for k, t in trainables.items()}, grads, state)
            for k, t in trainables.items():
                t.data = new_values[k]

            log.append(record)
            epoch_losses.append(value)
            step += 1

        epoch_mean = float(np.mean(epoch_losses))
        logger.info("pretrain epoch %d: combined loss %.6f (%d steps)", epoch, epoch_mean, len(epoch_losses))
        if (epoch + 1) % cfg.save_every == 0 or epoch == cfg.pretrain_epochs - 1:
            keeper.save(epoch, epoch_mean, params, cfg.encoder, cfg, heads, step)
        if epoch_mean < best_epoch_loss - 1e-12:
            best_epoch_loss = epoch_mean
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                logger.info("pretrain: loss plateaued for %d epochs, stopping early", stale)
                stopped = True
                break

    if out_dir is not None:
        extras = {k: t.data for k, t in heads.named().items()}
        meta = {"final": True, "stopped_early": stopped, "train_config": _config_dict(cfg)}
        save_encoder(out_dir / "checkpoint.ckpt", params, cfg.encoder, seed=cfg.seed, step=step, extra=extras, meta=meta)
        _write_log(out_dir, log)
    return params, heads, log


# ---------------------------------------------------------------------------
# probing and supervised training
# ---------------------------------------------------------------------------


def extract_features(encoder: Encoder, series: np.ndarray, chunk: int = 128) -> np.ndarray:
    """Flat representations with no graph built; the encoder stays untouched."""
    outs = []
    with no_grad():
        for start in range(0, series.shape[0], chunk):
            rep = encoder.encode_batch(series[start : start + chunk])
            outs.append(rep.flat.data)
    return np.concatenate(outs, axis=0)


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
    """Train one affine layer with cross entropy on fixed features."""
    n, dim = features.shape
    rng = np.random.default_rng([seed, 10])
    limit = math.sqrt(6.0 / (dim + class_count))
    w = Tensor(rng.uniform(-limit, limit, size=(dim, class_count)), requires_grad=True)
    b = Tensor(np.zeros(class_count), requires_grad=True)
    state = init_adam_state({"w": w.data, "b": b.data}, lr=lr)
    best = math.inf
    stale = 0
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 11, epoch]).permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            w.zero_grad()
            b.zero_grad()
            loss = cross_entropy(add(matmul(constant(features[idx]), w), b), labels[idx])
            losses.append(loss.item())
            loss.backward()
            del loss
            new_values, state = adam_step(
                {"w": w.data, "b": b.data}, {"w": w.grad, "b": b.grad}, state
            )
            w.data, b.data = new_values["w"], new_values["b"]
        epoch_mean = float(np.mean(losses))
        if epoch_mean < best - 1e-12:
            best, stale = epoch_mean, 0
        else:
            stale += 1
            if stale >= patience:
                break
    return w.data, b.data


def _predict(features: np.ndarray, w: np.ndarray, b: np.ndarray, present: np.ndarray) -> np.ndarray:
    logits = features @ w + b
    logits[:, ~present] = -np.inf
    return logits.argmax(axis=1)


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
        raise ConfigError("linear_probe needs labeled train and test splits")
    k = max(ds_train.class_count, ds_test.class_count)
    encoder = Encoder(encoder_params, cfg.encoder)
    feats_train = extract_features(encoder, ds_train.series)
    feats_test = extract_features(encoder, ds_test.series)
    present = np.zeros(k, dtype=bool)
    present[np.unique(ds_train.labels)] = True
    missing = sorted(int(v) for v in set(np.unique(ds_test.labels)) - set(np.unique(ds_train.labels)))
    if missing:
        warnings.warn(
            f"classes {missing} appear in the test split but not in training; "
            "they will always be scored wrong",
            RuntimeWarning,
        )
    w, b = train_linear_head(
        feats_train,
        ds_train.labels,
        k,
        lr=cfg.probe_lr,
        batch_size=cfg.probe_batch,
        epochs=cfg.probe_epochs,
        patience=cfg.early_stop_patience,
        seed=cfg.seed,
    )
    pred = _predict(feats_test, w, b, present)
    return compute_metrics(pred, ds_test.labels, k)


def supervised_baseline(
    ds_train: MtsDataset,
    ds_test: MtsDataset,
    cfg: TrainConfig,
) -> Metrics:
    """Train encoder plus head end to end with cross entropy, then score."""
    if ds_train.labels is None or ds_test.labels is None:
        raise ConfigError("supervised_baseline needs labeled train and test splits")
    k = max(ds_train.class_count, ds_test.class_count)
    rng_init = np.random.default_rng([cfg.seed, 20])
    rng_drop = np.random.default_rng([cfg.seed, 21])
    params = init_cat_params(cfg.encoder, rng_init)
    encoder = Encoder(params, cfg.encoder)
    dim = encoder.flat_dim
    limit = math.sqrt(6.0 / (dim + k))
    head_w = Tensor(rng_init.uniform(-limit, limit, size=(dim, k)), requires_grad=True)
    head_b = Tensor(np.zeros(k), requires_grad=True)
    trainables = {**params.trainable(), "head.w": head_w, "head.b": head_b}
    state = init_adam_state({n: t.data for n, t in trainables.items()}, lr=cfg.supervised_lr)

    best = math.inf
    stale = 0
    for epoch in range(cfg.probe_epochs):
        losses = []
        for batch in batches(ds_train, cfg.probe_batch, shuffle=True, seed=cfg.seed, epoch=epoch):
            for t in trainables.values():
                t.zero_grad()
            flat = encoder.encode_batch(batch.x, rng=rng_drop, train=True).flat
            loss = cross_entropy(add(matmul(flat, head_w), head_b), batch.labels)
            del flat
            losses.append(loss.item())
            loss.backward()
            del loss
            grads = {n: t.grad for n, t in trainables.items() if t.grad is not None}
            new_values, state = adam_step({n: t.data for n, t in trainables.items()}, grads, state)
            for n, t in trainables.items():
                t.data = new_values[n]
        epoch_mean = float(np.mean(losses))
        logger.info("supervised epoch %d: loss %.6f", epoch, epoch_mean)
        if epoch_mean < best - 1e-12:
            best, stale = epoch_mean, 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    present = np.zeros(k, dtype=bool)
    present[np.unique(ds_train.labels)] = True
    feats_test = extract_features(encoder, ds_test.series)
    pred = _predict(feats_test, head_w.data, head_b.data, present)
    return compute_metrics(pred, ds_test.labels, k)


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
    reports mean and population std of accuracy and macro-F1.
    """
    fractions = list(fractions)
    if not fractions:
        raise ConfigError("fewshot_sweep needs at least one fraction")
    if repeats < 1:
        raise ConfigError(f"fewshot_sweep needs repeats >= 1, got {repeats}")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ConfigError(f"fraction {f} outside (0, 1]")
    rows: list[dict] = []
    for fraction in fractions:
        for mode in ("probe", "supervised"):
            accs, mf1s = [], []
            for k in range(repeats):
                run_cfg = dataclasses.replace(cfg, seed=cfg.seed + k)
                small = subsample(ds_train, fraction, seed=run_cfg.seed)
                if mode == "probe":
                    metrics = linear_probe(small, ds_test, encoder_params, run_cfg)
                else:
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
