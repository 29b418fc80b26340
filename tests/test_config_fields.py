"""Every field of every config dataclass refuses a value of the wrong type,
or past the bound it declares, at construction, however the config is
built: in Python, from plain values or from a checkpoint's config block."""

import dataclasses
import re
import typing

import numpy as np
import pytest

from chants.augment import AugmentConfig
from chants.checkpoint import load_checkpoint, load_encoder, save_checkpoint, save_encoder
from chants.encoder import EncoderConfig, init_cat_params
from chants.errors import CheckpointError, ConfigError
from chants.harness import TrainConfig
from chants.pretext import LossWeights

ENCODER = EncoderConfig(channels=3, steps=12, width=8, depth=1, heads=2, dropout=0.0)
VALID = {
    EncoderConfig: ENCODER,
    LossWeights: LossWeights(),
    AugmentConfig: AugmentConfig(),
    TrainConfig: TrainConfig(encoder=ENCODER),
}
# values no field of the type may hold; a field of a type missing here fails the guard
WRONG = {
    int: [2.5, True, np.int64(2), "2"],
    float: [True, "0.5", np.int64(1), None],
    bool: [1, "true", np.bool_(True)],
    str: [3, b"cat", None],
    tuple[int, int]: [[1, 2], (1,), (1, 2.0), (True, 2), (np.int64(1), 2)],
    EncoderConfig: [dataclasses.asdict(ENCODER)],
    LossWeights: [dataclasses.asdict(LossWeights())],
    AugmentConfig: [dataclasses.asdict(AugmentConfig())],
}
FIELDS = [(cls, field) for cls in VALID for field in dataclasses.fields(cls)]
FIELD_IDS = [f"{cls.__name__}.{field.name}" for cls, field in FIELDS]
# one head, so that width may sit at its bound of 1 and stay divisible by heads
AT_BOUNDS = {**VALID, EncoderConfig: dataclasses.replace(ENCODER, heads=1)}


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_each_config_field_refuses_a_wrong_typed_value(cls, field):
    for value in WRONG[typing.get_type_hints(cls)[field.name]]:
        with pytest.raises(ConfigError, match=re.escape(f"config field '{field.name}' must be")):
            dataclasses.replace(VALID[cls], **{field.name: value})
        # nor can it be set after the check
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(VALID[cls], field.name, value)


@pytest.mark.parametrize("cls, field", FIELDS, ids=FIELD_IDS)
def test_each_numeric_config_field_declares_its_bound_and_refuses_one_step_past_it(cls, field):
    kind = typing.get_type_hints(cls)[field.name]
    bounds = {op: field.metadata[op] for op in (">=", ">") if op in field.metadata}
    if kind not in (int, float) or field.name == "dropout":  # dropout's range is two-sided
        assert bounds == {}
        return
    assert len(bounds) == 1, f"{field.name} declares no bound"
    ((op, bound),) = bounds.items()
    if op == ">=":
        assert getattr(dataclasses.replace(AT_BOUNDS[cls], **{field.name: kind(bound)}), field.name) == bound
    past = kind(bound) - 1 if op == ">=" else kind(bound)
    message = f"{field.name} must be {op} {bound}, got {past!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(AT_BOUNDS[cls], **{field.name: past})


@pytest.mark.parametrize("change", [{"heads": 2.0}, {"depth": True}])
def test_a_checkpoint_config_block_of_the_wrong_type_is_refused(tmp_path, change):
    path = tmp_path / "encoder.ckpt"
    save_encoder(path, init_cat_params(ENCODER, np.random.default_rng(0)), ENCODER, seed=0, step=0)
    manifest, arrays = load_checkpoint(path)
    save_checkpoint(path, {**manifest, "config": {**manifest["config"], **change}}, arrays)
    (name,) = change
    with pytest.raises(CheckpointError, match=f"bad config block: config field '{name}' must be int"):
        load_encoder(path)
