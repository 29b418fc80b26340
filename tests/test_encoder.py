"""Unit tests for the channel-aware encoder and its variants."""

import re

import numpy as np
import pytest

import chants.encoder as encoder_module
import chants.tensor as tensor_module
from chants.checkpoint import load_encoder, save_encoder
from chants.encoder import (
    CatParams,
    Encoder,
    EncoderConfig,
    aggregate,
    co_layer,
    embed,
    encode,
    init_cat_params,
    representation_rows,
    sinusoid_table,
)
from chants.errors import CheckpointError, ConfigError, ShapeError
from chants.pretext import init_pretext_heads
from chants.tensor import Tensor, constant, flop_estimate, no_grad, tensor_sum

from fdcheck import numeric_gradient, relative_error


def make(channels=3, steps=5, width=8, depth=1, heads=2, variant="cat", seed=0, dropout=0.0):
    config = EncoderConfig(
        channels=channels, steps=steps, width=width, depth=depth,
        heads=heads, dropout=dropout, variant=variant,
    )
    params = init_cat_params(config, np.random.default_rng(seed))
    return config, params


class TestEmbed:
    def test_zero_input_gives_positional_table_and_zero_channels(self):
        config, params = make()
        e_t, e_c = embed(np.zeros((3, 5)), params)
        np.testing.assert_array_equal(e_t.data, params.e_pos.data)
        np.testing.assert_array_equal(e_c.data, np.zeros((3, 8)))

    def test_har_sized_shapes(self):
        config, params = make(channels=9, steps=128, width=512, depth=1, heads=8)
        e_t, e_c = embed(np.random.default_rng(0).normal(size=(9, 128)), params)
        assert e_t.shape == (128, 512)
        assert e_c.shape == (9, 512)

    def test_positional_row_zero_alternates_zero_one(self):
        table = sinusoid_table(4, 6)
        np.testing.assert_array_equal(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_dimension_mismatch(self):
        config, params = make()
        with pytest.raises(ShapeError):
            embed(np.zeros((4, 5)), params)

    def test_positional_table_gets_no_gradient(self):
        config, params = make()
        rep = encode(np.random.default_rng(1).normal(size=(3, 5)), params, config)
        tensor_sum(rep).backward()
        assert params.e_pos.grad is None
        assert params.w_time.grad is not None


@pytest.fixture
def score_shapes(monkeypatch):
    """(L_q, L_k) of every attention score matrix the encoder computes, in call order."""
    shapes = []
    attention = encoder_module.multi_head_attention

    def recording(q_in, kv_in, weights, heads):
        shapes.append((q_in.shape[-2], kv_in.shape[-2]))
        return attention(q_in, kv_in, weights, heads)

    monkeypatch.setattr(encoder_module, "multi_head_attention", recording)
    return shapes


class TestCoLayer:
    def test_output_shapes_match_input_shapes(self):
        for channels, steps, width in [(1, 2, 4), (4, 7, 8), (6, 3, 8)]:
            config, params = make(channels=channels, steps=steps, width=width)
            rng = np.random.default_rng(2)
            a_t = constant(rng.normal(size=(steps, width)))
            a_c = constant(rng.normal(size=(channels, width)))
            out_t, out_c = co_layer(a_t, a_c, params.layers[0], config)
            assert out_t.shape == (steps, width)
            assert out_c.shape == (channels, width)

    def test_single_channel_attention_rows_normalize(self, score_shapes):
        config, params = make(channels=1, steps=6)
        rng = np.random.default_rng(3)
        co_layer(
            constant(rng.normal(size=(6, 8))),
            constant(rng.normal(size=(1, 8))),
            params.layers[0],
            config,
        )
        # channel tower queries the single channel over six time keys
        assert (1, 6) in score_shapes

    def test_score_matrices_are_time_by_channel_and_channel_by_time(self, score_shapes):
        config, params = make(channels=4, steps=9)
        rng = np.random.default_rng(4)
        co_layer(
            constant(rng.normal(size=(9, 8))),
            constant(rng.normal(size=(4, 8))),
            params.layers[0],
            config,
        )
        assert score_shapes == [(9, 4), (4, 9)]

    def test_interactive_score_macs_match_flop_estimate(self, score_shapes):
        config, params = make(channels=4, steps=9)
        rng = np.random.default_rng(5)
        co_layer(
            constant(rng.normal(size=(9, 8))),
            constant(rng.normal(size=(4, 8))),
            params.layers[0],
            config,
        )
        score_macs = sum(l_q * l_k * config.width for l_q, l_k in score_shapes)
        assert score_macs == flop_estimate(9, 4, 8, interactive=True)

    def test_towers_read_layer_inputs_not_each_others_outputs(self):
        # with the channel stream zeroed, the time tower's keys/values are
        # fixed; its output must not react to what the channel tower computes
        config, params = make(channels=2, steps=4)
        rng = np.random.default_rng(6)
        a_t = rng.normal(size=(4, 8))
        a_c = rng.normal(size=(2, 8))
        out_t_full, _ = co_layer(constant(a_t), constant(a_c), params.layers[0], config)
        # recompute with a modified *output-side* channel FFN: time tower unaffected
        params.layers[0].chan_ffn.w2.data = params.layers[0].chan_ffn.w2.data * 3.0
        out_t_again, _ = co_layer(constant(a_t), constant(a_c), params.layers[0], config)
        np.testing.assert_array_equal(out_t_full.data, out_t_again.data)


class TestAggregate:
    def test_flat_length_is_channels_times_width(self):
        config, params = make(channels=6, steps=4, width=8)
        rng = np.random.default_rng(7)
        rep = aggregate(
            constant(rng.normal(size=(4, 8))),
            constant(rng.normal(size=(6, 8))),
            params.agg,
            config.heads,
        )
        assert rep.shape == (6, 8)
        assert Encoder(params, config).flat_dim == 48

    def test_rows_concatenate_in_order(self):
        config, params = make(channels=3, steps=5, width=8)
        rng = np.random.default_rng(8)
        a_t, a_c = constant(rng.normal(size=(5, 8))), rng.normal(size=(3, 8))
        rep = aggregate(a_t, constant(a_c), params.agg, config.heads)
        flat = rep.data.reshape(1, -1)  # the flat representation every consumer takes
        for j in range(3):
            # row j is channel j's query alone, in channel order
            alone = aggregate(a_t, constant(a_c[j : j + 1]), params.agg, config.heads).data[0]
            np.testing.assert_allclose(flat[0, j * 8 : (j + 1) * 8], alone, rtol=1e-12)

    def test_single_time_step_broadcasts_value_projection(self):
        config, params = make(channels=4, steps=2, width=8)
        rng = np.random.default_rng(9)
        a_t = rng.normal(size=(1, 8))
        a_c = rng.normal(size=(4, 8))
        rep = aggregate(constant(a_t), constant(a_c), params.agg, config.heads)
        expected = a_t @ params.agg.w_v.data  # single key gets weight 1, no output projection
        for j in range(4):
            np.testing.assert_allclose(rep.data[j], expected[0], rtol=1e-12)


class TestEncode:
    def test_japanese_vowels_dims_flat_length(self):
        config, params = make(channels=12, steps=29, width=8, depth=1)
        rep = encode(np.random.default_rng(10).normal(size=(12, 29)), params, config)
        assert rep.shape == (12, 8)
        assert Encoder(params, config).flat_dim == 12 * 8

    def test_channel_permutation_equivariance(self):
        # permuting input channels together with the rows of the time-embedding
        # matrix permutes the representation rows the same way
        config, params = make(channels=4, steps=6, width=8, depth=1, heads=1, seed=3)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 6))
        perm = np.array([2, 0, 3, 1])

        base = encode(x, params, config).data

        permuted = init_cat_params(config, np.random.default_rng(3))
        permuted.w_time.data = params.w_time.data[perm]
        out = encode(x[perm], permuted, config).data
        np.testing.assert_allclose(out, base[perm], rtol=1e-10)

    def test_no_aggregate_matches_cat_channel_stream(self):
        config, params = make(channels=3, steps=5, depth=2)
        x = np.random.default_rng(12).normal(size=(3, 5))
        rep_cat = encode(x, params, config)
        config_na = EncoderConfig(channels=3, steps=5, width=8, depth=2, heads=2, dropout=0.0, variant="no_aggregate")
        rep_na = encode(x, params, config_na)
        # the pre-aggregate channel stream is what no_aggregate returns; rerun
        # cat's stack manually to confirm equality
        a_t, a_c = embed(x, params)
        for layer in params.layers:
            a_t, a_c = co_layer(a_t, a_c, layer, config)
        np.testing.assert_array_equal(rep_na.data, a_c.data)
        assert rep_cat.shape == rep_na.shape

    def test_tat_variant_flat_length_is_steps_times_width(self):
        config, params = make(channels=3, steps=5, variant="tat")
        rep = encode(np.random.default_rng(13).normal(size=(3, 5)), params, config)
        assert rep.shape == (5, 8)
        assert Encoder(params, config).flat_dim == 5 * 8
        assert representation_rows(config) == 5

    def test_variant_validation(self):
        with pytest.raises(ConfigError, match="variant"):
            EncoderConfig(channels=2, steps=4, width=8, depth=1, heads=2, variant="mystery")

    @pytest.mark.parametrize(
        "width, heads, message",
        [(0, 1, "width must be >= 1"), (-4, 2, "width must be >= 1"), (8, 0, "heads must be >= 1"), (8, -1, "heads must be >= 1")],
    )
    def test_width_and_heads_below_one_are_rejected(self, width, heads, message):
        with pytest.raises(ConfigError, match=message):
            EncoderConfig(channels=2, steps=4, width=width, depth=1, heads=heads)

    def test_a_width_the_heads_do_not_divide_is_rejected(self):
        with pytest.raises(ConfigError, match="^width 6 is not divisible by 4 heads$"):
            EncoderConfig(channels=2, steps=4, width=6, depth=1, heads=4)

    @pytest.mark.parametrize("shape", [(3, 5), (1, 2, 3, 5)])
    def test_encode_batch_refuses_a_batch_that_is_not_three_dimensional(self, shape):
        config, params = make()
        with pytest.raises(ShapeError, match=re.escape(f"Encoder.encode_batch expects (B, C, T), got shape {shape}")):
            Encoder(params, config).encode_batch(np.zeros(shape))

    def test_shape_sweep_over_random_configs(self):
        rng = np.random.default_rng(14)
        for _ in range(12):
            channels = int(rng.integers(1, 7))
            steps = int(rng.integers(2, 17))
            width = int(rng.choice([4, 8]))
            depth = int(rng.integers(1, 3))
            heads = int(rng.choice([h for h in (1, 2, 4) if width % h == 0]))
            variant = str(rng.choice(["cat", "self_aggregate", "channel_self", "no_aggregate", "tat"]))
            config = EncoderConfig(
                channels=channels, steps=steps, width=width, depth=depth,
                heads=heads, dropout=0.0, variant=variant,
            )
            params = init_cat_params(config, rng)
            rep = encode(rng.normal(size=(channels, steps)), params, config)
            rows = representation_rows(config)
            assert rep.shape == (rows, width)
            assert Encoder(params, config).flat_dim == rows * width

    def test_batched_encode_matches_per_sample(self):
        config, params = make(channels=3, steps=5, depth=2)
        rng = np.random.default_rng(15)
        xs = rng.normal(size=(4, 3, 5))
        enc = Encoder(params, config)
        batched = enc.encode_batch(xs)
        for i in range(4):
            single = enc.encode_batch(xs[i : i + 1])
            np.testing.assert_allclose(batched.data[i], single.data[0], rtol=1e-12)

    def test_encode_is_deterministic_without_dropout(self):
        config, params = make(depth=2)
        x = np.random.default_rng(16).normal(size=(3, 5))
        a = encode(x, params, config).data
        b = encode(x, params, config).data
        assert a.tobytes() == b.tobytes()

    def test_dropout_changes_training_forward_but_not_eval(self):
        config, params = make(dropout=0.5)
        x = np.random.default_rng(17).normal(size=(3, 5))
        eval_a = encode(x, params, config).data
        eval_b = encode(x, params, config, rng=np.random.default_rng(0)).data
        assert not np.array_equal(eval_a, eval_b)


def _check_every_parameter_gradient(config, seed):
    params = init_cat_params(config, np.random.default_rng(seed))
    x = np.random.default_rng(seed + 1).normal(size=(config.channels, config.steps))

    loss = tensor_sum(encode(x, params, config))
    loss.backward()

    named = {k: t for k, t in params.named().items() if t.requires_grad}

    def forward_for(name):
        def fn(arr):
            saved = named[name].data
            named[name].data = arr
            try:
                return float(tensor_sum(encode(x, params, config)).data)
            finally:
                named[name].data = saved

        return fn

    for name, tensor in named.items():
        numeric = numeric_gradient(lambda arr: forward_for(name)(arr), [tensor.data], 0, step=1e-5)
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(numeric)
        err = relative_error(analytic, numeric)
        assert err < 1e-3, f"{name}: relative error {err:.2e}"


@pytest.fixture
def phi_calls(monkeypatch):
    """A copy of every array the FFN's Phi kernel is evaluated on, in call order."""
    calls = []
    phi = tensor_module._ndtr

    def recording(a, *buffers):
        calls.append(a.copy())
        return phi(a, *buffers)

    monkeypatch.setattr(tensor_module, "_ndtr", recording)
    return calls


class TestGraphFreeFfn:
    # the time tower's series are (7, 32) hidden values and the channel
    # tower's (3, 32): all 4 series of a tower fit in one 2**15 block
    def test_encode_without_a_graph_evaluates_phi_once_per_block_of_whole_series(self, phi_calls):
        config, params = make(channels=3, steps=7, depth=2)
        xs = np.random.default_rng(8).normal(size=(4, 3, 7))
        with no_grad():
            Encoder(params, config).encode_batch(xs)
        per_layer = [(4, 7, 4 * config.width), (4, 3, 4 * config.width)]
        assert [a.shape for a in phi_calls] == per_layer * config.depth

    def test_a_taped_encode_evaluates_phi_on_the_same_blocks(self, phi_calls):
        config, params = make(channels=3, steps=7, depth=2)
        xs = np.random.default_rng(8).normal(size=(4, 3, 7))
        rep = Encoder(params, config).encode_batch(xs)
        assert rep.requires_grad
        per_layer = [(4, 7, 4 * config.width), (4, 3, 4 * config.width)]
        assert [a.shape for a in phi_calls] == per_layer * config.depth

    @pytest.mark.parametrize("taping", [False, True])
    @pytest.mark.parametrize(
        "shape, hidden, blocks",
        [
            ((7, 40, 8), 256, [3, 3, 1]),  # 10,240 hidden values a series: 3 to a block
            ((2, 3, 16, 8), 2048, [1] * 6),  # exactly 2**15: one series a block
            ((3, 130, 4), 256, [1, 1, 1]),  # 33,280: more than a block, one series a call
            ((5, 4), 64, [1]),  # a matrix is one series
        ],
    )
    def test_ffn_blocks_hold_whole_series_in_order(self, phi_calls, shape, hidden, blocks, taping):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=shape), requires_grad=taping)
        w1, b1 = rng.normal(size=(shape[-1], hidden)), rng.normal(size=hidden)
        tensor_module.ffn(x, w1, b1, rng.normal(size=(hidden, 3)), rng.normal(size=3))
        length = shape[-2]
        assert [a.shape for a in phi_calls] == [(b, length, hidden) for b in blocks]
        assert all(a.size <= 2**15 or len(a) == 1 for a in phi_calls)
        series = x.data.reshape(-1, length, shape[-1])
        want = np.stack([s @ w1 + b1 for s in series])
        assert np.concatenate(phi_calls).tobytes() == want.tobytes()


class TestEndToEndGradient:
    def test_all_parameters_pass_finite_difference_check(self):
        config = EncoderConfig(channels=2, steps=3, width=4, depth=1, heads=1, dropout=0.0)
        _check_every_parameter_gradient(config, 18)

    @pytest.mark.parametrize("variant", ["cat", "self_aggregate"])
    def test_two_heads_pass_finite_difference_check(self, variant):
        # self_aggregate passes one tensor as both queries and keys/values
        config = EncoderConfig(channels=2, steps=3, width=4, depth=1, heads=2, dropout=0.0, variant=variant)
        _check_every_parameter_gradient(config, 18)


def test_named_paths_follow_the_fields():
    # the paths are the checkpoint's array names, so they may never change
    config, params = make(depth=2)
    heads = init_pretext_heads(config, np.random.default_rng(0))

    layer0 = [
        "layers.0.time_attn.w_q", "layers.0.time_attn.w_k", "layers.0.time_attn.w_v", "layers.0.time_attn.w_o",
        "layers.0.time_norm1.gain", "layers.0.time_norm1.bias",
        "layers.0.time_ffn.w1", "layers.0.time_ffn.b1", "layers.0.time_ffn.w2", "layers.0.time_ffn.b2",
        "layers.0.time_norm2.gain", "layers.0.time_norm2.bias",
        "layers.0.chan_attn.w_q", "layers.0.chan_attn.w_k", "layers.0.chan_attn.w_v", "layers.0.chan_attn.w_o",
        "layers.0.chan_norm1.gain", "layers.0.chan_norm1.bias",
        "layers.0.chan_ffn.w1", "layers.0.chan_ffn.b1", "layers.0.chan_ffn.w2", "layers.0.chan_ffn.b2",
        "layers.0.chan_norm2.gain", "layers.0.chan_norm2.bias",
    ]
    layer1 = [key.replace("layers.0.", "layers.1.") for key in layer0]
    expected = ["embed.w_time", "embed.w_chan", "embed.e_pos", *layer0, *layer1]
    expected += ["aggregate.w_q", "aggregate.w_k", "aggregate.w_v"]
    assert list(params.named()) == expected
    assert list(heads.named()) == [
        "heads.ntp.w", "heads.ntp.b", "heads.cs.w1", "heads.cs.b1",
        "heads.cs.w2", "heads.cs.b2", "heads.nvp.w", "heads.nvp.b",
    ]
    assert params.named()["layers.1.chan_ffn.b2"] is params.layers[1].chan_ffn.b2
    assert params.named()["aggregate.w_k"] is params.agg.w_k
    assert heads.named()["heads.cs.w1"] is heads.cs_w1


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        config, params = make(channels=3, steps=5, depth=2, seed=42)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_encoder(first, params, config, seed=42, step=17, extra={"head.w": np.ones((8, 2))})
        loaded, config2, manifest, extra = load_encoder(first)
        assert config2 == config
        assert manifest["seed"] == 42 and manifest["step"] == 17
        np.testing.assert_array_equal(extra["head.w"], np.ones((8, 2)))
        save_encoder(second, loaded, config2, seed=manifest["seed"], step=manifest["step"], extra=extra)
        assert first.read_bytes() == second.read_bytes()

    def test_randomized_round_trips_are_value_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        for i in range(3):
            config = EncoderConfig(
                channels=int(rng.integers(1, 5)),
                steps=int(rng.integers(2, 9)),
                width=4,
                depth=int(rng.integers(1, 3)),
                heads=2,
                dropout=0.0,
            )
            params = init_cat_params(config, rng)
            path = tmp_path / f"r{i}.ckpt"
            save_encoder(path, params, config, seed=i, step=i)
            loaded, _, _, _ = load_encoder(path)
            for name, tensor in params.named().items():
                np.testing.assert_array_equal(loaded.named()[name].data, tensor.data)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        bogus = tmp_path / "x.ckpt"
        bogus.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_encoder(bogus)
