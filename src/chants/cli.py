"""Command-line entry point.

Subcommands bind config files to harness runs:

* ``pretrain``        - self-supervised training, checkpoints + log + manifest
* ``probe``           - linear probe of a frozen checkpoint on labeled data
* ``fewshot``         - probe vs supervised sweep over label fractions
* ``augment-preview`` - dump original and augmented series side by side
* ``flops``           - attention-cost estimates for a (T, C, D) shape

Exit codes are a stable contract: 0 success, 2 usage or config error,
3 data error, 4 checkpoint or shape error.

Config files are plain ``key = value`` text, one key per line, ``#`` starting
a comment line. Keys are the ``TrainConfig`` field names, with the
``encoder``, ``weights`` and ``aug`` sections addressed by a dot
(``encoder.width = 512``, ``weights.alpha1 = 2``, ``k_ntp = 10`` ...). Each
value is text, parsed by its field's type: ``true``/``false`` for switches,
and two numbers such as ``4, 8`` for a range. ``encoder.channels`` and
``encoder.steps`` default to the dataset's and must match it when given.
Unknown keys, repeated keys and values that do not parse as their field's
type (``k_ntp = 2.5``) are hard errors. A pretext task is
switched off by a weight of 0; the older keys ``no_ntp = true`` and
``no_cs = true`` still work and mean ``weights.alpha1 = 0`` and
``weights.alpha2 = 0``. ``aug.rng_seed``, which nothing read, is accepted
and ignored.

A ``pretrain`` checkpoint carries everything ``probe`` and ``fewshot``
need: the encoder config its parameters were saved under, the rest of the
training config and, unless ``--no-normalize`` was given, the per-channel
normalization stats, which they then apply to their data. A ``--test``
split's labels are matched to the training split's by class name, not by
index; a class only the test split has is scored wrong. Without ``--test``,
30% of each class is held out; a holdout that leaves no training row (each
class holds one sample) is a data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .augment import AugmentConfig, async_permute, interval_adjust, sync_permute
from .checkpoint import load_encoder
from .data import (
    MtsDataset,
    NormStats,
    apply_norm_stats,
    check_fraction,
    load_dataset,
    subsample,
    train_test_split,
    znormalize,
)
from .encoder import EncoderConfig
from .errors import CheckpointError, ChantsError, ConfigError, DataError, ShapeError
from .harness import TrainConfig, check_pretrain, fewshot_sweep, linear_probe, pretrain, train_config_from_dict
from .tensor import flop_estimate

logger = logging.getLogger(__name__)

_SECTIONS = ("encoder", "weights", "aug")


def read_config_file(path) -> dict:
    """Read ``key = value`` lines into ``{section: {field: text}}`` plus top-level text.

    A key given on two lines, or a file that is not UTF-8, raises ``ConfigError``.
    """
    raw: dict = {section: {} for section in _SECTIONS}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    if not path.is_file():
        raise ConfigError(f"config path is not a file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}") from exc
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"{path}: config key '{key}' is set on line {first_line[key]} and again on line {lineno}")
        first_line[key] = lineno
        section, dot, field = key.partition(".")
        if dot and section in _SECTIONS:
            raw[section][field] = value
        elif dot or key in _SECTIONS:
            raise ConfigError(f"unknown config key '{key}'")
        else:
            raw[key] = value
    return raw


def _fingerprint(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: TrainConfig, data_path, seed: int) -> None:
    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "dataset_fingerprint": _fingerprint(data_path),
        "code_version": __version__,
        "seed": seed,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _out_dir(path) -> Path:
    """``path`` as an output directory, created later; checked before any data is loaded.

    ``ConfigError`` if it, or the nearest of its ancestors that exists, is
    not a directory.
    """
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {path}: {existing} is not a directory")
    return path


def _load_data(args, path=None) -> MtsDataset:
    return load_dataset(
        path if path is not None else args.data,
        channels=args.csv_channels,
        layout=args.csv_layout,
        labeled=args.csv_labeled,
    )


def _load_splits(args) -> tuple[MtsDataset, MtsDataset]:
    """The training and test splits; labels of a ``--test`` file are re-indexed
    onto the training split's class names, names only it has appended.
    Without ``--test``, a 30% holdout that leaves no training row raises
    ``DataError`` naming the data file."""
    train = _load_data(args)
    if args.test is None:
        logger.warning("no --test split given; holding out 30%% of %s deterministically", args.data)
        train, test = train_test_split(train, 0.3, seed=args.seed or 0)
        if train.size == 0:
            raise DataError(f"{args.data}: the 30% holdout leaves no training rows; give a --test split")
        return train, test
    test = _load_data(args, path=args.test)
    if train.labels is None or test.labels is None:
        return train, test
    names = train.label_names + [name for name in test.label_names if name not in train.label_names]
    labels = np.array([names.index(name) for name in test.label_names], dtype=np.int64)[test.labels]
    return train, dataclasses.replace(test, labels=labels, class_count=len(names), label_names=names)


def _check_dims(config: EncoderConfig, ds: MtsDataset, path) -> None:
    if (config.channels, config.steps) != (ds.channels, ds.steps):
        raise ShapeError(
            f"checkpoint expects (channels, steps) = ({config.channels}, {config.steps}) "
            f"but dataset {path} has ({ds.channels}, {ds.steps})"
        )


def _load_ckpt(path):
    try:
        return load_encoder(path)
    except (FileNotFoundError, IsADirectoryError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc


def _write_metrics(out_dir: Path, metrics) -> None:
    payload = {
        "accuracy": metrics.accuracy,
        "macro_f1": metrics.macro_f1,
        "per_class_f1": [float(v) for v in metrics.per_class_f1],
        "confusion": metrics.confusion.tolist(),
    }
    (out_dir / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n")
    with open(out_dir / "metrics.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["accuracy", f"{metrics.accuracy:.6f}"])
        writer.writerow(["macro_f1", f"{metrics.macro_f1:.6f}"])
        for k, v in enumerate(metrics.per_class_f1):
            writer.writerow([f"f1_class_{k}", f"{v:.6f}"])


def cmd_pretrain(args) -> int:
    out_dir = _out_dir(args.out_dir)
    raw = read_config_file(args.config)
    ds = _load_data(args)
    raw["encoder"] = {"channels": ds.channels, "steps": ds.steps, **raw["encoder"]}
    cfg = train_config_from_dict(raw)
    check_pretrain(ds, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "pretrain", cfg, args.data, cfg.seed)
    stats = None
    if args.normalize:
        ds, stats = znormalize(ds)
    pretrain(ds, cfg, out_dir=out_dir, norm=stats)
    print(f"wrote checkpoint and log to {out_dir}")
    return 0


def _probe_setup(args):
    """Checkpoint params, its training config and the data splits, normalized
    with the checkpoint's stats when it carries them. The encoder config is
    the manifest's ``config``, the one the parameters were built under; the
    copy older checkpoints hold in ``meta.train_config`` is not read."""
    path = args.checkpoint
    params, enc_config, manifest, extra = _load_ckpt(path)
    meta = manifest.get("meta", {})
    snapshot = meta.get("train_config") if isinstance(meta, dict) else meta
    if not isinstance(snapshot, dict):
        raise CheckpointError(f"{path}: no training config object (meta.train_config); not written by pretrain")
    try:
        cfg = train_config_from_dict({**snapshot, "encoder": manifest["config"]})
    except ConfigError as exc:
        raise CheckpointError(f"{path}: bad training config: {exc}") from exc
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train, test = _load_splits(args)
    for ds, data_path in ((train, args.data), (test, args.test)):
        _check_dims(enc_config, ds, data_path)
    if "norm.mean" in extra or "norm.std" in extra:
        stats = NormStats(mean=extra.get("norm.mean"), std=extra.get("norm.std"))
        if any(v is None or v.shape != (train.channels,) for v in (stats.mean, stats.std)):
            raise CheckpointError(
                f"{path}: normalization stats must be norm.mean and norm.std of length {train.channels}"
            )
        if not (np.isfinite(stats.mean).all() and np.isfinite(stats.std).all()):
            raise CheckpointError(f"{path}: normalization stats norm.mean and norm.std must be finite")
        train, test = apply_norm_stats(train, stats), apply_norm_stats(test, stats)
    return params, cfg, train, test


def cmd_probe(args) -> int:
    if args.fraction is not None:
        check_fraction(args.fraction)
    out_dir = _out_dir(args.out_dir)
    params, cfg, train, test = _probe_setup(args)
    if args.fraction is not None:
        train = subsample(train, args.fraction, seed=cfg.seed)
    metrics = linear_probe(train, test, params, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_metrics(out_dir, metrics)
    print(f"ACC {metrics.accuracy:.4f} MF1 {metrics.macro_f1:.4f}")
    return 0


def cmd_fewshot(args) -> int:
    for fraction in args.fractions:
        check_fraction(fraction)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    out_dir = _out_dir(args.out_dir)
    params, cfg, train, test = _probe_setup(args)
    rows = fewshot_sweep(train, test, params, cfg, args.fractions, repeats=args.repeats)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "fewshot.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(
            f"fraction {row['fraction']:<6} {row['mode']:<10} "
            f"ACC {row['acc_mean']:.4f}+-{row['acc_std']:.4f} "
            f"MF1 {row['mf1_mean']:.4f}+-{row['mf1_std']:.4f}"
        )
    return 0


_STRATEGIES = {"interval": interval_adjust, "sync": sync_permute, "async": async_permute}


def cmd_augment_preview(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if Path(args.out_csv).is_dir():
        raise ConfigError(f"output file is a directory: {args.out_csv}")
    ds = _load_data(args)
    if not 0 <= args.index < ds.size:
        raise ConfigError(f"sample index {args.index} outside [0, {ds.size})")
    x = ds.series[args.index]
    rng = np.random.default_rng(args.seed)
    augmented = _STRATEGIES[args.strategy](x, AugmentConfig(), rng)
    with open(args.out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "t", "original", "augmented"])
        for j in range(x.shape[0]):
            for t in range(x.shape[1]):
                writer.writerow([j, t, repr(float(x[j, t])), repr(float(augmented[j, t]))])
    print(f"wrote {args.out_csv}")
    return 0


def cmd_flops(args) -> int:
    interactive = flop_estimate(args.T, args.C, args.D, interactive=True)
    self_attn = flop_estimate(args.T, args.C, args.D, interactive=False)
    print(f"interactive (cross-attending towers): {interactive}")
    print(f"self-attending towers:                {self_attn}")
    print(f"ratio self/interactive:               {self_attn / interactive:.4f}")
    return 0


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv-channels", type=int, default=None, help="channel count for CSV input")
    parser.add_argument("--csv-layout", choices=("wide", "blocked"), default="wide")
    parser.add_argument("--csv-labeled", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chants", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="self-supervised pretraining")
    p.add_argument("config", help="key = value config file")
    p.add_argument("data", help="dataset file (.ts or .csv)")
    p.add_argument("out_dir")
    p.add_argument("--no-normalize", dest="normalize", action="store_false")
    _add_csv_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("probe", help="linear probe on a frozen checkpoint")
    p.add_argument("checkpoint")
    p.add_argument("data", help="labeled training split")
    p.add_argument("out_dir")
    p.add_argument("--test", default=None, help="labeled test split (default: 30%% holdout)")
    p.add_argument("--fraction", type=float, default=None, help="stratified label fraction")
    p.add_argument("--seed", type=int, default=None)
    _add_csv_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("fewshot", help="probe vs supervised sweep over label fractions")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("out_dir")
    p.add_argument("--fractions", type=float, nargs="+", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=5)
    _add_csv_flags(p)
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("augment-preview", help="dump original and augmented series as CSV")
    p.add_argument("data")
    p.add_argument("strategy", choices=sorted(_STRATEGIES))
    p.add_argument("seed", type=int)
    p.add_argument("out_csv")
    p.add_argument("--index", type=int, default=0)
    _add_csv_flags(p)
    p.set_defaults(func=cmd_augment_preview)

    p = sub.add_parser("flops", help="attention-cost estimates for one layer")
    p.add_argument("T", type=int)
    p.add_argument("C", type=int)
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_flops)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ChantsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
