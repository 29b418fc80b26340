"""Command-line entry point.

Subcommands bind config files to harness runs:

* ``pretrain``        - self-supervised training, checkpoints + log + manifest
* ``probe``           - linear probe of a frozen checkpoint on labeled data
* ``fewshot``         - probe vs supervised sweep over label fractions
* ``augment-preview`` - dump original and augmented series side by side
* ``flops``           - attention-cost estimates for a (T, C, D) shape

Exit codes are a stable contract: 0 success, 2 usage or config error,
3 data error, 4 checkpoint or shape error.

Config files are plain ``key = value`` text with dotted sections mirroring
the training-config field names (``encoder.width = 512``, ``weights.alpha1 =
2``, ``k_ntp = 10`` ...). Unknown keys are hard errors.
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
    apply_norm_stats,
    load_dataset,
    save_norm_stats,
    subsample,
    train_test_split,
    znormalize,
)
from .encoder import EncoderConfig
from .errors import CheckpointError, ChantsError, ConfigError, DataError, ShapeError
from .harness import TrainConfig, fewshot_sweep, linear_probe, pretrain
from .pretext import LossWeights
from .tensor import flop_estimate

logger = logging.getLogger(__name__)

_SECTION_FIELDS = {
    "encoder": {f.name: f.type for f in dataclasses.fields(EncoderConfig)},
    "weights": {f.name: f.type for f in dataclasses.fields(LossWeights)},
    "aug": {f.name: f.type for f in dataclasses.fields(AugmentConfig)},
}
_TOP_FIELDS = {
    f.name: f.type
    for f in dataclasses.fields(TrainConfig)
    if f.name not in ("encoder", "weights", "aug")
}


def _parse_value(key: str, text: str, type_hint: str):
    text = text.strip()
    hint = str(type_hint)
    try:
        if "bool" in hint:
            if text.lower() not in ("true", "false"):
                raise ValueError
            return text.lower() == "true"
        if "tuple" in hint:
            parts = [p for p in text.replace(",", " ").split() if p]
            if len(parts) != 2:
                raise ValueError
            return (int(parts[0]), int(parts[1]))
        if "int" in hint:
            return int(text)
        if "float" in hint:
            return float(text)
        return text
    except ValueError:
        raise ConfigError(f"config key '{key}': cannot parse value {text!r}")


def read_config_file(path) -> dict:
    """Parse dotted key/value lines into {section: {field: value}} + top-level."""
    raw: dict = {"encoder": {}, "weights": {}, "aug": {}}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if "." in key:
            section, _, field = key.partition(".")
            if section not in _SECTION_FIELDS or field not in _SECTION_FIELDS[section]:
                raise ConfigError(f"unknown config key '{key}'")
            raw[section][field] = _parse_value(key, value, _SECTION_FIELDS[section][field])
        else:
            if key not in _TOP_FIELDS:
                raise ConfigError(f"unknown config key '{key}'")
            raw[key] = _parse_value(key, value, _TOP_FIELDS[key])
    return raw


def build_train_config(raw: dict, channels: int, steps: int) -> TrainConfig:
    """Materialize a TrainConfig, inferring data dims unless the file pins them."""
    enc = dict(raw.get("encoder", {}))
    enc.setdefault("channels", channels)
    enc.setdefault("steps", steps)
    if enc["channels"] != channels or enc["steps"] != steps:
        raise ConfigError(
            f"config declares (channels, steps) = ({enc['channels']}, {enc['steps']}) "
            f"but the dataset has ({channels}, {steps})"
        )
    top = {k: v for k, v in raw.items() if k not in ("encoder", "weights", "aug")}
    return TrainConfig(
        encoder=EncoderConfig(**enc),
        weights=LossWeights(**raw.get("weights", {})),
        aug=AugmentConfig(**raw.get("aug", {})),
        **top,
    )


def train_config_from_dict(d: dict) -> TrainConfig:
    """Rebuild a TrainConfig from a checkpoint's stored snapshot."""
    d = dict(d)
    enc = EncoderConfig(**d.pop("encoder"))
    weights = LossWeights(**d.pop("weights"))
    aug_raw = d.pop("aug")
    for key in ("interval_count_range", "segment_count_range"):
        aug_raw[key] = tuple(aug_raw[key])
    return TrainConfig(encoder=enc, weights=weights, aug=AugmentConfig(**aug_raw), **d)


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


def _load_data(args, path=None) -> MtsDataset:
    return load_dataset(
        path if path is not None else args.data,
        channels=args.csv_channels,
        layout=args.csv_layout,
        labeled=args.csv_labeled,
    )


def _load_splits(args) -> tuple[MtsDataset, MtsDataset]:
    train = _load_data(args)
    if args.test is not None:
        test = _load_data(args, path=args.test)
    else:
        logger.warning("no --test split given; holding out 30%% of %s deterministically", args.data)
        train, test = train_test_split(train, 0.3, seed=args.seed or 0)
    return train, test


def _check_dims(config: EncoderConfig, ds: MtsDataset, path) -> None:
    if (config.channels, config.steps) != (ds.channels, ds.steps):
        raise ShapeError(
            f"checkpoint expects (channels, steps) = ({config.channels}, {config.steps}) "
            f"but dataset {path} has ({ds.channels}, {ds.steps})"
        )


def _load_ckpt(path):
    try:
        return load_encoder(path)
    except FileNotFoundError as exc:
        raise CheckpointError(f"no such checkpoint: {path}") from exc


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
    ds = _load_data(args)
    raw = read_config_file(args.config)
    cfg = build_train_config(raw, ds.channels, ds.steps)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(out_dir, "pretrain", cfg, args.data, cfg.seed)
    if args.normalize:
        ds, stats = znormalize(ds)
        save_norm_stats(stats, out_dir / "norm_stats.json")
    pretrain(ds, cfg, out_dir=out_dir)
    print(f"wrote checkpoint and log to {out_dir}")
    return 0


def _probe_setup(args):
    params, enc_config, manifest, _extra = _load_ckpt(args.checkpoint)
    cfg = train_config_from_dict(manifest["meta"]["train_config"])
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    train, test = _load_splits(args)
    _check_dims(enc_config, train, args.data)
    stats_path = Path(args.checkpoint).parent / "norm_stats.json"
    if stats_path.exists():
        from .data import load_norm_stats

        stats = load_norm_stats(stats_path)
        train = apply_norm_stats(train, stats)
        test = apply_norm_stats(test, stats)
    return params, cfg, train, test


def cmd_probe(args) -> int:
    params, cfg, train, test = _probe_setup(args)
    if args.fraction is not None:
        train = subsample(train, args.fraction, seed=cfg.seed)
    metrics = linear_probe(train, test, params, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_metrics(out_dir, metrics)
    print(f"ACC {metrics.accuracy:.4f} MF1 {metrics.macro_f1:.4f}")
    return 0


def cmd_fewshot(args) -> int:
    for fraction in args.fractions:
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction {fraction} outside (0, 1]")
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    params, cfg, train, test = _probe_setup(args)
    rows = fewshot_sweep(train, test, params, cfg, args.fractions, repeats=args.repeats)
    out_dir = Path(args.out_dir)
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
    ds = _load_data(args)
    if not 0 <= args.index < ds.size:
        raise ConfigError(f"sample index {args.index} outside [0, {ds.size})")
    x = ds.series[args.index]
    rng = np.random.default_rng(args.seed)
    augmented = _STRATEGIES[args.strategy](x, AugmentConfig(rng_seed=args.seed), rng)
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
