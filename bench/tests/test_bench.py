"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
from tracer import Tracer, encoder_macs, self_times  # noqa: E402

import chants.encoder  # noqa: E402
import chants.tensor  # noqa: E402
from chants.encoder import EncoderConfig, encode, init_cat_params  # noqa: E402
from chants.tensor import Tensor  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_generator_is_deterministic_per_seed():
    a_series, a_labels = inputs.lagged_sinusoids(6, 3, 16, seed=4)
    b_series, b_labels = inputs.lagged_sinusoids(6, 3, 16, seed=4)
    other, _ = inputs.lagged_sinusoids(6, 3, 16, seed=5)
    assert np.array_equal(a_series, b_series)
    assert np.array_equal(a_labels, b_labels)
    assert not np.allclose(a_series, other)
    assert a_series.shape == (6, 3, 16)
    assert a_labels.tolist() == [0, 1, 0, 1, 0, 1]


def test_every_metric_name_is_well_formed_and_traced_names_are_declared():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in declared)
    assert len(declared) == len(set(declared))
    assert set(Tracer().metrics([1.0])) <= {m["name"] for m in SPEC["per_layer"]}


def test_self_time_is_the_span_minus_its_children():
    spans = [
        ["encoder.co_layer", 0.0, 10.0, -1, 0],
        ["encoder.ffn", 1.0, 4.0, 0, 0],
        ["tensor.fwd.gelu", 1.5, 2.0, 1, 0],
        ["encoder.layer_norm", 5.0, 9.0, 0, 0],
        ["encoder.co_layer", 10.0, 12.0, -1, 1],
    ]
    assert self_times(spans) == [3.0, 2.5, 0.5, 4.0, 2.0]
    tracer = Tracer()
    tracer.spans = spans
    metrics = tracer.metrics([10.0, 2.0])
    assert metrics["encoder.co_layer_s"] == 6.0
    assert metrics["encoder.co_layer_self_s"] == 2.5
    assert metrics["trace.coverage"] == 1.0


def test_encoder_macs_match_a_hand_count():
    # B=1, C=2, T=3, D=4, depth 1
    embed = 2 * 2 * 3 * 4
    time_tower = (3 + 2 * 2 + 3) * 16 + 2 * 3 * 2 * 4 + 2 * 3 * 4 * 16 + 2 * 3 * 12
    chan_tower = (2 + 2 * 3 + 2) * 16 + 2 * 2 * 3 * 4 + 2 * 2 * 4 * 16 + 2 * 3 * 8
    aggregate = (2 + 2 * 3) * 16 + 2 * 2 * 3 * 4
    assert embed + time_tower + chan_tower + aggregate == 1400
    assert encoder_macs(1, 2, 3, 4, 1) == 1400
    assert encoder_macs(5, 2, 3, 4, 1) == 5 * 1400


def test_traced_encode_counts_the_modelled_macs_and_restores_the_package():
    config = EncoderConfig(channels=2, steps=3, width=4, depth=1, heads=2, dropout=0.0)
    params = init_cat_params(config, np.random.default_rng(0))
    originals = [chants.tensor.matmul, chants.encoder.matmul, chants.encoder.co_layer, Tensor.backward]
    tracer = Tracer()
    with tracer.install():
        encode(np.ones((5, 2, 3)), params, config)
    assert tracer.metrics([1.0])["encoder.macs"] == encoder_macs(5, 2, 3, 4, 1)
    assert [chants.tensor.matmul, chants.encoder.matmul, chants.encoder.co_layer, Tensor.backward] == originals


def test_backward_is_traced_per_op_with_its_tape():
    x = Tensor(np.ones(3), requires_grad=True)
    tracer = Tracer()
    with tracer.install():
        # looked up in the module, where the tracer rebinds them
        chants.tensor.tensor_sum(chants.tensor.mul(x, x)).backward()
    names = {span[0] for span in tracer.spans}
    assert {"tensor.backward", "tensor.bwd.mul", "tensor.bwd.tensor_sum"} <= names
    metrics = tracer.metrics([1.0])
    assert metrics["tensor.tape_nodes"] == 2
    assert metrics["tensor.tape_bytes"] == 3 * 8 + 3 * 8 + 8
    assert metrics["tensor.op_calls"] == 2
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
