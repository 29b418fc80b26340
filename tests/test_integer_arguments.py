"""Every integer argument of the package's exported functions and classes
refuses a value that is not an integer (a float, a bool) or that is below
its least value, with its site's exception class and the one message form
of :func:`chants.errors.check_integer`, and takes a numpy integer.

The parameters are collected from the signatures: every parameter
annotated ``int`` of every function and class a module lists in
``__all__``. Each must have an entry in ``SITES`` or a reason in
``EXEMPT``. The config dataclasses are left to ``test_config_fields.py``.
"""

import importlib
import inspect
import pkgutil
import re
import typing

import numpy as np
import pytest

import chants
from chants.augment import AugmentConfig, draw_intervals
from chants.checkpoint import save_encoder
from chants.data import (
    MtsDataset,
    batches,
    make_synthetic_fixture,
    parse_csv,
    subsample,
    subsample_rows,
    train_test_split,
)
from chants.encoder import Encoder, EncoderConfig, aggregate, init_cat_params, sinusoid_table
from chants.errors import ConfigError, DataError
from chants.harness import TrainConfig, compute_metrics, extract_features, fewshot_sweep, train_linear_head
from chants.pretext import LossWeights, make_ntp_instances, nvp_truncation_count
from chants.tensor import AttnWeights, flop_estimate, multi_head_attention

CONFIGS = {AugmentConfig, EncoderConfig, LossWeights, TrainConfig}


def collected() -> list[str]:
    """``module.name.parameter`` of every ``int`` parameter of a function or
    non-config class (its constructor) that a ``chants`` module exports."""
    found = []
    for info in pkgutil.iter_modules(chants.__path__, prefix="chants."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if obj in CONFIGS or not callable(obj):
                continue
            hints = typing.get_type_hints(obj.__init__ if inspect.isclass(obj) else obj)
            for param in inspect.signature(obj).parameters:
                if hints.get(param) is int:
                    found.append(f"{info.name.removeprefix('chants.')}.{name}.{param}")
    return sorted(found)


ENCODER = EncoderConfig(channels=2, steps=8, width=4, depth=1, heads=1, dropout=0.0)
CFG = TrainConfig(encoder=ENCODER, probe_batch=4, probe_epochs=1)
DS = make_synthetic_fixture(m=8, channels=2, steps=8, seed=0)
ROWS, LABELS = np.ones((4, 3)), np.array([0, 0, 0, 0])
W4 = AttnWeights(*(np.eye(4) for _ in range(3)), None)
# keyword arguments of train_linear_head that a case does not set
HEAD = dict(lr=0.1, batch_size=2, epochs=1, patience=1, seed=0)


def head(**change):
    return train_linear_head(ROWS, LABELS, change.pop("class_count", 1), **{**HEAD, **change})


def fixture(**change):
    return make_synthetic_fixture(**{"m": 2, "channels": 2, "steps": 4, "seed": 0, **change})


def csv_channels(tmp_path, v):
    path = tmp_path / "d.csv"
    path.write_text("1,2\n")
    return parse_csv(path, v)


def encoder():
    return Encoder(init_cat_params(ENCODER, np.random.default_rng(0)), ENCODER)


# "module.name.parameter" -> (exception class, least value, a call that passes the value there)
SITES = {
    "augment.draw_intervals.steps": (
        ConfigError, 1, lambda tmp, v: draw_intervals(v, AugmentConfig(), np.random.default_rng(0)),
    ),
    "checkpoint.save_encoder.seed": (
        ConfigError, 0, lambda tmp, v: save_encoder(tmp / "e.ckpt", encoder().params, ENCODER, seed=v, step=0),
    ),
    "checkpoint.save_encoder.step": (
        ConfigError, 0, lambda tmp, v: save_encoder(tmp / "e.ckpt", encoder().params, ENCODER, seed=0, step=v),
    ),
    "data.MtsDataset.class_count": (DataError, 0, lambda tmp, v: MtsDataset(np.zeros((1, 1, 3)), None, v, "x")),
    "data.batches.batch_size": (DataError, 1, lambda tmp, v: next(batches(DS, v, seed=0))),
    "data.batches.seed": (DataError, 0, lambda tmp, v: next(batches(DS, 2, seed=v))),
    "data.batches.epoch": (DataError, 0, lambda tmp, v: next(batches(DS, 2, seed=0, epoch=v))),
    "data.make_synthetic_fixture.m": (DataError, 0, lambda tmp, v: fixture(m=v)),
    "data.make_synthetic_fixture.channels": (DataError, 2, lambda tmp, v: fixture(channels=v)),
    "data.make_synthetic_fixture.steps": (DataError, 1, lambda tmp, v: fixture(steps=v)),
    "data.make_synthetic_fixture.seed": (DataError, 0, lambda tmp, v: fixture(seed=v)),
    "data.parse_csv.channels": (DataError, 1, csv_channels),
    "data.subsample.seed": (ConfigError, 0, lambda tmp, v: subsample(DS, 0.5, seed=v)),
    "data.subsample_rows.seed": (ConfigError, 0, lambda tmp, v: subsample_rows(DS, 0.5, seed=v)),
    "data.train_test_split.seed": (DataError, 0, lambda tmp, v: train_test_split(DS, 0.5, seed=v)),
    "encoder.aggregate.heads": (ConfigError, 1, lambda tmp, v: aggregate(np.ones((3, 4)), np.ones((2, 4)), W4, v)),
    "encoder.sinusoid_table.steps": (ConfigError, 1, lambda tmp, v: sinusoid_table(v, 4)),
    "encoder.sinusoid_table.width": (ConfigError, 1, lambda tmp, v: sinusoid_table(4, v)),
    "harness.compute_metrics.class_count": (ConfigError, 1, lambda tmp, v: compute_metrics([0], [0], v)),
    "harness.extract_features.chunk": (ConfigError, 1, lambda tmp, v: extract_features(encoder(), DS.series, v)),
    "harness.fewshot_sweep.repeats": (
        ConfigError, 1, lambda tmp, v: fewshot_sweep(DS, DS, encoder().params, CFG, [1.0], repeats=v),
    ),
    "harness.train_linear_head.class_count": (ConfigError, 1, lambda tmp, v: head(class_count=v)),
    "harness.train_linear_head.batch_size": (ConfigError, 1, lambda tmp, v: head(batch_size=v)),
    "harness.train_linear_head.epochs": (ConfigError, 1, lambda tmp, v: head(epochs=v)),
    "harness.train_linear_head.patience": (ConfigError, 1, lambda tmp, v: head(patience=v)),
    "harness.train_linear_head.seed": (ConfigError, 0, lambda tmp, v: head(seed=v)),
    "pretext.nvp_truncation_count.steps": (ConfigError, 1, lambda tmp, v: nvp_truncation_count(v)),
    "pretext.make_ntp_instances.k_ntp": (
        ConfigError, 1, lambda tmp, v: make_ntp_instances(np.zeros((1, 1, 6)), v, np.random.default_rng(0)),
    ),
    "tensor.flop_estimate.steps": (ConfigError, 1, lambda tmp, v: flop_estimate(v, 9, 64, True)),
    "tensor.flop_estimate.channels": (ConfigError, 1, lambda tmp, v: flop_estimate(128, v, 64, True)),
    "tensor.flop_estimate.width": (ConfigError, 1, lambda tmp, v: flop_estimate(128, 9, v, False)),
    "tensor.multi_head_attention.heads": (
        ConfigError, 1, lambda tmp, v: multi_head_attention(np.ones((2, 4)), np.ones((3, 4)), W4, v),
    ),
}

# collected parameters that take no check, and why
EXEMPT = {
    "tensor.softmax.axis": "any integer is an axis; numpy refuses one the array does not have",
    "optim.AdamState.step_count": "optimizer state that init_adam_state starts at 0 and adam_step advances",
}


def test_every_collected_integer_parameter_has_a_site_or_a_reason():
    assert set(SITES).isdisjoint(EXEMPT)
    assert sorted({*SITES, *EXEMPT}) == collected()


@pytest.mark.parametrize("site", sorted(SITES))
def test_an_integer_argument_refuses_a_non_integer_or_a_value_below_its_least(site, tmp_path):
    error, least, call = SITES[site]
    name = site.rpartition(".")[2]
    for value in (2.5, True, least - 1):
        message = f"{name} must be an integer >= {least}, got {value!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(tmp_path, value)
    call(tmp_path, np.int64(least))
