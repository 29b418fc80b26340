"""Single-file checkpoints: a JSON manifest plus raw little-endian float64 arrays.

Layout: an 8-byte magic, an 8-byte little-endian manifest length, the
manifest (JSON, sorted keys), then every array's raw ``<f8`` bytes in sorted
name order. Writing the same state twice produces identical bytes, so
save -> load -> save round-trips are byte-stable.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from .encoder import CatParams, EncoderConfig, init_cat_params
from .errors import CheckpointError

__all__ = [
    "load_checkpoint",
    "load_encoder",
    "save_checkpoint",
    "save_encoder",
]

_MAGIC = b"CHANTS\x00\x01"


def save_checkpoint(path, manifest: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` (all coerced to float64) under a JSON ``manifest``."""
    names = sorted(arrays)
    data = {name: np.ascontiguousarray(arrays[name], dtype="<f8") for name in names}
    full = dict(manifest)
    full["arrays"] = {name: list(data[name].shape) for name in names}
    blob = json.dumps(full, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for name in names:
            fh.write(data[name].tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back a manifest and its named arrays; validates the manifest and sizes strictly.

    The manifest must be a JSON object whose ``arrays`` object maps each
    name to a list of non-negative ints; anything else, a truncated array or
    trailing bytes raise ``CheckpointError``, as does a path that cannot be
    read (missing, a directory, under a regular file ...).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from exc
    if raw[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file (bad magic)")
    offset = len(_MAGIC)
    blob_len = int.from_bytes(raw[offset : offset + 8], "little")
    offset += 8
    try:
        manifest = json.loads(raw[offset : offset + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest") from exc
    offset += blob_len
    if not isinstance(manifest, dict) or not isinstance(manifest.get("arrays", {}), dict):
        raise CheckpointError(f"{path}: corrupt manifest (not an object with an 'arrays' object)")
    arrays: dict[str, np.ndarray] = {}
    for name, shape in sorted(manifest.get("arrays", {}).items()):
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise CheckpointError(f"{path}: array '{name}' has shape {shape!r}, not a list of non-negative ints")
        end = offset + 8 * math.prod(shape)
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated array '{name}'")
        arrays[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return manifest, arrays


def save_encoder(
    path,
    params: CatParams,
    config: EncoderConfig,
    *,
    seed: int,
    step: int,
    extra: Mapping[str, np.ndarray] | None = None,
    meta: dict | None = None,
) -> None:
    """Checkpoint an encoder: config + seed + step plus every parameter array."""
    arrays = {f"params.{k}": t.data for k, t in params.named().items()}
    if extra:
        arrays.update({f"extra.{k}": np.asarray(v, dtype=np.float64) for k, v in extra.items()})
    manifest = {
        "kind": "encoder",
        "config": dataclasses.asdict(config),
        "seed": int(seed),
        "step": int(step),
    }
    if meta:
        manifest["meta"] = meta
    save_checkpoint(path, manifest, arrays)


def load_encoder(path) -> tuple[CatParams, EncoderConfig, dict, dict[str, np.ndarray]]:
    """Restore (params, config, manifest, extra arrays) from :func:`save_encoder`.

    The manifest's ``config`` block must name every ``EncoderConfig`` field:
    a field left out would take its default and load another model, so it
    raises ``CheckpointError`` naming the missing fields, as any other bad
    block or array does.
    """
    manifest, arrays = load_checkpoint(path)
    if manifest.get("kind") != "encoder":
        raise CheckpointError(f"{path}: not an encoder checkpoint")
    try:
        missing = [f.name for f in dataclasses.fields(EncoderConfig) if f.name not in manifest["config"]]
        if missing:
            raise ValueError("missing " + ", ".join(map(repr, missing)))
        config = EncoderConfig(**manifest["config"])
        params = init_cat_params(config, np.random.default_rng(0))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc
    named = params.named()
    for name, tensor in named.items():
        key = f"params.{name}"
        if key not in arrays:
            raise CheckpointError(f"{path}: missing parameter '{name}'")
        stored = arrays[key]
        if stored.shape != tensor.data.shape:
            raise CheckpointError(
                f"{path}: parameter '{name}' has shape {stored.shape}, expected {tensor.data.shape}"
            )
        tensor.data = stored
    extra = {k[len("extra.") :]: v for k, v in arrays.items() if k.startswith("extra.")}
    expected = {f"params.{n}" for n in named} | {f"extra.{k}" for k in extra}
    unknown = sorted(set(arrays) - expected)
    if unknown:
        raise CheckpointError(f"{path}: unrecognized arrays {unknown[:3]}")
    return params, config, manifest, extra
