"""Unit tests for the pretext tasks and their losses."""

import copy
import math
import re

import numpy as np
import pytest

from chants.augment import AugmentConfig
from chants.encoder import Encoder, EncoderConfig, init_cat_params
from chants.errors import ConfigError, ShapeError
from chants.pretext import (
    CsBatch,
    LossWeights,
    _truncate,
    build_cs_batch,
    combined_loss,
    contrastive_loss_from_projections,
    cs_loss,
    init_pretext_heads,
    make_ntp_instances,
    ntp_loss,
    nvp_instances,
    nvp_loss,
    nvp_truncation_count,
)
from chants.tensor import (
    Tensor,
    add,
    constant,
    div,
    exp,
    gelu,
    log,
    matmul,
    mul,
    reshape,
    sqrt,
    tensor_sum,
    transpose,
)

from fdcheck import check_gradients
from test_tensor import composed_head


def tiny_encoder(channels=2, steps=4, width=4, depth=1, heads=1, seed=0):
    config = EncoderConfig(
        channels=channels, steps=steps, width=width, depth=depth,
        heads=heads, dropout=0.0,
    )
    params = init_cat_params(config, np.random.default_rng(seed))
    return Encoder(params, config)


def ntp_cuts(x, k, rng):
    """(points, truncated copies, labels) of the (C, T) sample ``x`` cut at ``k`` points drawn from ``rng``."""
    points = _truncate(x[None], k, copy.deepcopy(rng))[1]
    truncated, labels = make_ntp_instances(x[None], k, rng)
    return points, truncated, labels


class TestMakeNtpInstances:
    def test_rise_label(self):
        x = np.array([[1.0, 2.0, 1.5]])
        points, _, labels = ntp_cuts(x, 2, np.random.default_rng(0))
        assert labels[points == 1][0, 0] == 1  # 2.0 >= 1.0

    def test_tie_counts_as_rise(self):
        x = np.array([[2.0, 2.0, 1.0, 0.5]])
        points, _, labels = ntp_cuts(x, 3, np.random.default_rng(1))
        by_t = dict(zip(points.tolist(), labels))
        assert by_t[1][0] == 1  # 2.0 >= 2.0
        assert by_t[2][0] == 0  # 1.0 < 2.0

    def test_constant_zero_sample(self):
        truncated, labels = make_ntp_instances(np.zeros((1, 3, 5)), 4, np.random.default_rng(2))
        np.testing.assert_array_equal(labels, np.ones((4, 3), dtype=np.int64))
        np.testing.assert_array_equal(truncated, np.zeros((4, 3, 5)))

    def test_truncation_zeroes_the_tail_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 8)) + 10.0
        points, truncated, _ = ntp_cuts(x, 7, rng)
        for t, cut in zip(points, truncated):
            np.testing.assert_array_equal(cut[:, :t], x[:, :t])
            np.testing.assert_array_equal(cut[:, t:], 0.0)

    def test_points_are_distinct_when_possible(self):
        x = np.random.default_rng(4).normal(size=(1, 9))
        points, _, _ = ntp_cuts(x, 8, np.random.default_rng(5))
        assert sorted(points.tolist()) == list(range(1, 9))

    def test_short_series_falls_back_with_warning(self):
        x = np.random.default_rng(6).normal(size=(1, 1, 4))
        with pytest.warns(RuntimeWarning, match="replacement"):
            truncated, labels = make_ntp_instances(x, 10, np.random.default_rng(7))
        assert truncated.shape == (10, 1, 4) and labels.shape == (10, 1)

    def test_brute_force_relabeling_oracle(self):
        # independent 1-indexed reformulation of the labeling rule
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 250:
            x = np.round(rng.normal(size=(3, 8)), 2)
            points, _, labels = ntp_cuts(x, 5, rng)
            for t, label in zip(points, labels):
                for j in range(3):
                    value = lambda pos1: x[j, pos1 - 1]
                    expected = 1 if value(t + 1) >= value(t) else 0
                    assert label[j] == expected
                    checked += 1

    def test_a_batch_is_cut_as_its_samples_one_by_one(self):
        # each sample draws its points in turn, so the copies and labels of a
        # batch are those of its samples in order
        xs = np.random.default_rng(47).normal(size=(3, 2, 9))
        whole = make_ntp_instances(xs, 4, np.random.default_rng(48))
        rng = np.random.default_rng(48)
        parts = [make_ntp_instances(x[None], 4, rng) for x in xs]
        for got, want in zip(whole, zip(*parts)):
            np.testing.assert_array_equal(got, np.concatenate(want))

    def test_too_short_series_rejected(self):
        with pytest.raises(ConfigError):
            make_ntp_instances(np.zeros((1, 1, 2)), 1, np.random.default_rng(9))

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_truncation_point_is_refused(self, count):
        with pytest.raises(ConfigError, match=f"^need at least one truncation point per sample, got {count}$"):
            make_ntp_instances(np.zeros((1, 1, 6)), count, np.random.default_rng(9))


class TestNtpLoss:
    def test_uniform_logits_give_kc_log2_per_sample(self):
        enc = tiny_encoder(channels=3, steps=6)
        heads = init_pretext_heads(enc.config, np.random.default_rng(10))
        heads.ntp_w.data[:] = 0.0
        heads.ntp_b.data[:] = 0.0
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(2, 3, 6))
        truncated, labels = make_ntp_instances(xs, 4, rng)
        loss = ntp_loss(enc.encode_batch(truncated), labels, heads)
        assert abs(loss.item() * (1 / len(xs)) - 4 * 3 * math.log(2.0)) < 1e-9

    def test_sixty_terms_for_six_channels_ten_points(self):
        enc = tiny_encoder(channels=6, steps=12)
        heads = init_pretext_heads(enc.config, np.random.default_rng(12))
        heads.ntp_w.data[:] = 0.0
        heads.ntp_b.data[:] = 0.0
        x = np.random.default_rng(13).normal(size=(1, 6, 12))
        truncated, labels = make_ntp_instances(x, 10, np.random.default_rng(14))
        loss = ntp_loss(enc.encode_batch(truncated), labels, heads)
        assert abs(loss.item() - 60 * math.log(2.0)) < 1e-9

    def test_gradient_reaches_embeddings_and_layer_weights(self):
        enc = tiny_encoder()
        heads = init_pretext_heads(enc.config, np.random.default_rng(15))
        rng = np.random.default_rng(16)
        x = rng.normal(size=(1, 2, 4))
        truncated, labels = make_ntp_instances(x, 2, rng)

        def loss_of_encoded():
            return ntp_loss(enc.encode_batch(truncated), labels, heads)

        loss = loss_of_encoded()
        loss.backward()
        named = enc.params.named()
        for key in ("embed.w_time", "embed.w_chan", "layers.0.time_attn.w_q", "layers.0.chan_ffn.w1"):
            grad = named[key].grad
            assert grad is not None and np.abs(grad).max() > 0.0, key

        # finite-difference cross-check on one embedding entry
        w = enc.params.w_time
        base = loss.item()
        h = 1e-5
        w.data[0, 0] += h
        up = loss_of_encoded().item()
        w.data[0, 0] -= 2 * h
        down = loss_of_encoded().item()
        w.data[0, 0] += h
        numeric = (up - down) / (2 * h)
        assert abs(numeric - w.grad[0, 0]) < 1e-4 * max(1.0, abs(numeric))

    def test_value_and_every_leaf_gradient_are_bitwise_the_composed_head(self):
        enc = tiny_encoder(channels=3, steps=6)
        heads = init_pretext_heads(enc.config, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        truncated, labels = make_ntp_instances(rng.normal(size=(2, 3, 6)), 3, rng)
        leaves = {**enc.params.named(), **heads.named()}
        terms = labels.size

        def run(loss, scale):
            # the summed loss scaled by 1/terms against the composed mean at 1:
            # x * (-1/terms) and (-x) * (1/terms) round alike
            for leaf in leaves.values():
                leaf.zero_grad()
            loss.backward(np.asarray(scale))
            value = loss.data * scale
            return value.tobytes(), {k: None if t.grad is None else t.grad.tobytes() for k, t in leaves.items()}

        fused = run(ntp_loss(enc.encode_batch(truncated), labels, heads), 1.0 / terms)
        rep = enc.encode_batch(truncated)
        n, rows, d = rep.shape
        ce = composed_head(reshape(rep, (n * rows, d)), heads.ntp_w, heads.ntp_b, labels.reshape(-1))
        composed = run(ce, 1.0)
        assert fused[1]["heads.ntp.w"] is not None
        assert fused == composed


def positive_rows(batch):
    """Each anchor's positive row indices."""
    return [np.flatnonzero(row).tolist() for row in batch.positives]


class TestCsBatch:
    def test_batch_of_ten_expands_to_fifty(self):
        rng = np.random.default_rng(17)
        batch = build_cs_batch(rng.normal(size=(10, 2, 8)), AugmentConfig(), rng)
        assert batch.size == 50

    def test_each_original_anchors_its_group_of_five_with_two_positives(self):
        rng = np.random.default_rng(18)
        xs = rng.normal(size=(4, 2, 8))
        batch = build_cs_batch(xs, AugmentConfig(), rng)
        assert batch.anchors.tolist() == [0, 5, 10, 15]
        assert positive_rows(batch) == [[a + 1, a + 2] for a in batch.anchors]
        np.testing.assert_array_equal(batch.samples[batch.anchors], xs)

    def test_single_original_gives_five(self):
        rng = np.random.default_rng(19)
        batch = build_cs_batch(rng.normal(size=(1, 2, 8)), AugmentConfig(), rng)
        assert batch.size == 5

    def test_negatives_can_be_dropped(self):
        rng = np.random.default_rng(20)
        batch = build_cs_batch(rng.normal(size=(3, 2, 8)), AugmentConfig(), rng, include_negatives=False)
        assert batch.size == 9
        assert batch.anchors.tolist() == [0, 3, 6]
        assert positive_rows(batch) == [[a + 1, a + 2] for a in batch.anchors]

    def test_reverse_neg_counts_the_negatives_as_positives(self):
        xs = np.random.default_rng(21).normal(size=(2, 2, 8))
        batch = build_cs_batch(xs, AugmentConfig(), np.random.default_rng(22))
        flipped = build_cs_batch(xs, AugmentConfig(), np.random.default_rng(22), reverse_neg=True)
        np.testing.assert_array_equal(flipped.samples, batch.samples)
        np.testing.assert_array_equal(flipped.anchors, batch.anchors)
        assert positive_rows(flipped) == [[a + 1, a + 2, a + 3, a + 4] for a in flipped.anchors]

    def test_reverse_neg_without_negatives_is_the_batch_without_negatives(self):
        xs = np.random.default_rng(23).normal(size=(3, 2, 8))
        plain, both = (
            build_cs_batch(xs, AugmentConfig(), np.random.default_rng(24), include_negatives=False, reverse_neg=flag)
            for flag in (False, True)
        )
        np.testing.assert_array_equal(both.samples, plain.samples)
        np.testing.assert_array_equal(both.anchors, plain.anchors)
        np.testing.assert_array_equal(both.positives, plain.positives)

    @pytest.mark.parametrize("shape", [(0, 2, 8), (2, 8)], ids=["empty", "two-dimensional"])
    @pytest.mark.parametrize("build", [build_cs_batch, make_ntp_instances])
    def test_an_empty_or_misshapen_batch_is_refused(self, shape, build):
        args = (AugmentConfig(),) if build is build_cs_batch else (2,)
        with pytest.raises(ShapeError, match=re.escape(f"expected a nonempty batch of shape (B, C, T), got {shape}")):
            build(np.zeros(shape), *args, np.random.default_rng(25))


class TestCsLoss:
    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_identical_projections_closed_form(self, b):
        enc = tiny_encoder(channels=2, steps=6)
        heads = init_pretext_heads(enc.config, np.random.default_rng(22))
        # zero weights and a nonzero final bias make every projection identical
        heads.cs_w1.data[:] = 0.0
        heads.cs_b1.data[:] = 0.0
        heads.cs_w2.data[:] = 0.0
        heads.cs_b2.data[:] = np.linspace(0.5, 1.5, heads.cs_b2.shape[0])
        rng = np.random.default_rng(23)
        batch = build_cs_batch(rng.normal(size=(b, 2, 6)), AugmentConfig(), rng)
        loss = cs_loss(enc, batch, heads, LossWeights())
        assert abs(loss.item() - 2.0 * math.log(5 * b - 1)) < 1e-6

    def test_low_temperature_limit_with_separated_positives(self):
        # anchor and positives collinear, negatives antipodal: each positive's
        # log-ratio tends to log 2 because the other positive stays in the
        # denominator, so the two-term loss tends to 2 log 2
        u = np.array([1.0, 0.0, 0.0])
        rows = np.stack([u, u, u, -u, -u])
        batch = CsBatch(samples=np.zeros((5, 1, 2)), anchors=[0], positives=[[False, True, True, False, False]])
        loss = contrastive_loss_from_projections(constant(rows), batch, tau=0.01)
        assert abs(loss.item() - 2.0 * math.log(2.0)) < 1e-3

    def test_default_temperature(self):
        assert LossWeights().tau == 0.2

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(tau=0.0)

    @pytest.mark.parametrize(
        "rows, tau, error, message",
        [
            (5, 0.0, ConfigError, "temperature must be > 0, got 0.0"),
            (5, -0.2, ConfigError, "temperature must be > 0, got -0.2"),
            (4, 0.2, ShapeError, "4 projections for a batch of 5"),
        ],
        ids=["zero-temperature", "negative-temperature", "row-count"],
    )
    def test_projections_it_cannot_score_are_refused(self, rows, tau, error, message):
        batch = CsBatch(samples=np.zeros((5, 1, 2)), anchors=[0], positives=[[False, True, True, False, False]])
        projections = constant(np.random.default_rng(25).normal(size=(rows, 3)))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            contrastive_loss_from_projections(projections, batch, tau)

    def test_invariant_under_batch_reordering(self):
        rng = np.random.default_rng(24)
        rows = rng.normal(size=(10, 6))
        batch = build_cs_batch(rng.normal(size=(2, 2, 5)), AugmentConfig(), rng)
        base = contrastive_loss_from_projections(constant(rows), batch, tau=0.2).item()
        perm = rng.permutation(10)
        # old row perm[i] is new row i
        shuffled = CsBatch(
            samples=batch.samples[perm],
            anchors=np.argsort(perm)[batch.anchors],
            positives=batch.positives[:, perm],
        )
        again = contrastive_loss_from_projections(constant(rows[perm]), shuffled, tau=0.2).item()
        assert abs(base - again) < 1e-10

    def test_loss_strictly_decreases_as_positive_approaches_anchor(self):
        # the derivative w.r.t. a positive's similarity is (2p - 1)/tau with p
        # its denominator weight, so the decrease holds while p < 1/2; a
        # ten-element batch at tau = 0.5 keeps the moved positive in that regime
        rng = np.random.default_rng(25)
        rows = rng.normal(size=(10, 8))
        positives = np.zeros((2, 10), dtype=bool)
        positives[0, [1, 2]] = positives[1, [6, 7]] = True
        batch = CsBatch(samples=np.zeros((10, 1, 2)), anchors=[0, 5], positives=positives)
        anchor = rows[0]
        tau = 0.5

        def loss_at(lam):
            moved = rows.copy()
            moved[1] = (1 - lam) * rows[1] + lam * anchor
            return contrastive_loss_from_projections(constant(moved), batch, tau=tau).item()

        # regime precondition: the moved positive never dominates the denominator
        far = (1 - 0.5) * rows[1] + 0.5 * anchor
        sim = far @ anchor / (np.linalg.norm(far) * np.linalg.norm(anchor))
        others = np.delete(rows, 0, axis=0)
        unit = others / np.linalg.norm(others, axis=1, keepdims=True)
        z = np.exp(unit @ anchor / np.linalg.norm(anchor) / tau).sum()
        assert np.exp(sim / tau) / z < 0.5

        l0, l1, l2 = loss_at(0.0), loss_at(0.25), loss_at(0.5)
        assert l0 > l1 > l2

    def test_gradient_flows_back_to_encoder(self):
        enc = tiny_encoder(channels=2, steps=5)
        heads = init_pretext_heads(enc.config, np.random.default_rng(26))
        rng = np.random.default_rng(27)
        batch = build_cs_batch(rng.normal(size=(2, 2, 5)), AugmentConfig(), rng)
        loss = cs_loss(enc, batch, heads, LossWeights())
        loss.backward()
        assert enc.params.w_time.grad is not None
        assert np.abs(enc.params.w_time.grad).max() > 0


# The op-by-op composition the fused contrastive node replaced, kept as its reference.


def composed_contrastive_loss(projections, batch, tau):
    n = batch.size
    norms = sqrt(add(tensor_sum(mul(projections, projections), axis=-1, keepdims=True), constant(1e-24)))
    unit = div(projections, norms)
    sims = mul(matmul(unit, transpose(unit)), constant(1.0 / tau))
    anchors = batch.anchors
    select = np.zeros((len(anchors), n))
    self_mask = np.zeros((len(anchors), n))
    for row, a in enumerate(anchors):
        select[row, a] = 1.0
        self_mask[row, a] = -1e30
    pos_mask = batch.positives.astype(np.float64)
    anchor_rows = add(matmul(constant(select), sims), constant(self_mask))
    shift = constant(anchor_rows.data.max(axis=-1, keepdims=True))
    lse = add(log(tensor_sum(exp(add(anchor_rows, mul(constant(-1.0), shift))), axis=-1, keepdims=True)), shift)
    pos_sum = tensor_sum(mul(anchor_rows, constant(pos_mask)), axis=-1, keepdims=True)
    per_anchor = add(mul(lse, constant(pos_mask.sum(axis=-1, keepdims=True))), mul(pos_sum, constant(-1.0)))
    return mul(tensor_sum(per_anchor), constant(1.0 / len(anchors)))


def composed_cs_loss(encoder, batch, heads, weights, *, rng):
    flat = reshape(encoder.encode_batch(batch.samples, rng=rng), (batch.size, -1))
    hidden = gelu(add(matmul(flat, heads.cs_w1), heads.cs_b1))
    projections = add(matmul(hidden, heads.cs_w2), heads.cs_b2)
    return composed_contrastive_loss(projections, batch, weights.tau)


def cs_batch_of(kind, rng):
    b = 1 if kind == "single" else 3
    return build_cs_batch(
        rng.normal(size=(b, 2, 6)),
        AugmentConfig(),
        rng,
        include_negatives=kind != "no_neg",
        reverse_neg=kind == "reverse_neg",
    )


class TestFusedContrastiveNode:
    @pytest.mark.parametrize("kind", ["standard", "no_neg", "reverse_neg", "single"])
    def test_matches_the_composition_in_value_and_every_leaf_gradient(self, kind):
        config = EncoderConfig(channels=2, steps=6, width=8, depth=1, heads=2, dropout=0.2)
        enc = Encoder(init_cat_params(config, np.random.default_rng(40)), config)
        heads = init_pretext_heads(config, np.random.default_rng(41))
        batch = cs_batch_of(kind, np.random.default_rng(42))
        leaves = {**enc.params.trainable(), **heads.named()}
        results = []
        for loss_fn in (cs_loss, composed_cs_loss):
            for t in leaves.values():
                t.zero_grad()
            loss = loss_fn(enc, batch, heads, LossWeights(tau=0.2), rng=np.random.default_rng(43))
            value = loss.item()
            loss.backward()
            results.append((value, {k: t.grad for k, t in leaves.items()}))
        (value, grads), (want_value, want_grads) = results
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert grads.keys() == want_grads.keys()
        for k, want in want_grads.items():
            if want is None:
                assert grads[k] is None, k
                continue
            np.testing.assert_allclose(grads[k], want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=k)
        assert heads.cs_w1.grad is not None and enc.params.w_time.grad is not None

    def test_loss_and_projection_head_are_two_tape_nodes(self):
        enc = tiny_encoder(channels=2, steps=6)
        heads = init_pretext_heads(enc.config, np.random.default_rng(47))
        loss = cs_loss(enc, cs_batch_of("standard", np.random.default_rng(48)), heads, LossWeights())
        (projections,) = loss._parents
        flat, *head_weights = projections._parents
        assert head_weights == [heads.cs_w1, heads.cs_b1, heads.cs_w2, heads.cs_b2]
        assert flat.shape == (15, enc.flat_dim)

    @pytest.mark.parametrize("kind", ["standard", "no_neg", "reverse_neg", "single"])
    def test_gradient_passes_the_finite_difference_check(self, kind):
        rng = np.random.default_rng(44)
        batch = cs_batch_of(kind, rng)
        rows = rng.normal(size=(batch.size, 5))
        check_gradients(lambda p: contrastive_loss_from_projections(p, batch, tau=0.3), [rows])

    def test_zero_projection_row_warns_and_scores_similarity_zero(self):
        rng = np.random.default_rng(45)
        batch = cs_batch_of("standard", rng)
        rows = rng.normal(size=(batch.size, 4))
        rows[1] = 0.0
        with pytest.warns(RuntimeWarning, match="zero projection row"):
            loss = contrastive_loss_from_projections(constant(rows), batch, tau=0.5)
        # row 1 is a positive of anchor 0 at similarity 0, the reference's value too
        want = composed_contrastive_loss(constant(rows), batch, tau=0.5).item()
        assert math.isfinite(loss.item()) and abs(loss.item() - want) <= 1e-12 * abs(want)

    def test_zero_projection_row_gets_a_zero_gradient(self):
        rng = np.random.default_rng(45)
        batch = cs_batch_of("standard", rng)
        rows = rng.normal(size=(batch.size, 4))
        rows[1] = 0.0
        leaf = Tensor(rows, requires_grad=True)
        with pytest.warns(RuntimeWarning, match="zero projection row"):
            loss = contrastive_loss_from_projections(leaf, batch, tau=0.5)
        loss.backward()
        assert np.all(leaf.grad[1] == 0.0)
        assert np.isfinite(leaf.grad).all() and np.abs(leaf.grad).max() < 10.0

    def test_anchor_without_positives_is_rejected(self):
        samples = np.zeros((6, 1, 2))
        positives = np.zeros((2, 6), dtype=bool)
        positives[0, 1] = True
        with pytest.raises(ConfigError, match="anchor 3 has no positives"):
            CsBatch(samples=samples, anchors=[0, 3], positives=positives)
        with pytest.raises(ConfigError, match="no originals"):
            CsBatch(samples=samples, anchors=[], positives=np.zeros((0, 6), dtype=bool))

    @pytest.mark.parametrize("anchors", [[0, 0], [-1, 3], [0, 6]], ids=["repeated", "negative", "past-the-end"])
    def test_anchors_that_are_not_distinct_rows_are_rejected(self, anchors):
        with pytest.raises(ShapeError, match=re.escape(f"anchors must be distinct rows of 6, got {anchors}")):
            CsBatch(samples=np.zeros((6, 1, 2)), anchors=anchors, positives=np.ones((2, 6), dtype=bool))

    @pytest.mark.parametrize("shape", [(1, 6), (2, 5), (6,)], ids=["anchors", "rows", "flat"])
    def test_a_positive_mask_of_another_shape_is_rejected(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"shape (anchors, rows) (2, 6), got {shape}")):
            CsBatch(samples=np.zeros((6, 1, 2)), anchors=[0, 3], positives=np.ones(shape, dtype=bool))


class TestNvpLoss:
    def test_perfect_head_on_constant_series_gives_zero(self):
        enc = tiny_encoder(channels=2, steps=8)
        heads = init_pretext_heads(enc.config, np.random.default_rng(28))
        heads.nvp_w.data[:] = 0.0
        heads.nvp_b.data[:] = 3.25
        xs = np.full((2, 2, 8), 3.25)
        truncated, targets = nvp_instances(xs, np.random.default_rng(29))
        loss = nvp_loss(enc.encode_batch(truncated), targets, heads)
        assert loss.item() == 0.0

    def test_fifteen_percent_of_35_is_six(self):
        assert nvp_truncation_count(36) == 6

    def test_loss_is_nonnegative(self):
        enc = tiny_encoder(channels=2, steps=6)
        heads = init_pretext_heads(enc.config, np.random.default_rng(30))
        xs = np.random.default_rng(31).normal(size=(3, 2, 6))
        truncated, targets = nvp_instances(xs, np.random.default_rng(32))
        assert nvp_loss(enc.encode_batch(truncated), targets, heads).item() >= 0.0


class TestCombinedLoss:
    def test_default_weights(self):
        w = LossWeights()
        assert (w.alpha1, w.alpha2) == (2.0, 1.0)
        assert combined_loss(1.5, 0.25, w).item() == pytest.approx(3.25)

    def test_dropping_similarity_term(self):
        w = LossWeights(alpha1=2.0, alpha2=0.0)
        assert combined_loss(0.7, 123.0, w).item() == pytest.approx(1.4)

    def test_zero_inputs(self):
        assert combined_loss(0.0, 0.0, LossWeights()).item() == 0.0

    def test_linearity_in_each_argument(self):
        w = LossWeights(alpha1=1.7, alpha2=0.3)

        def loss(a, b):
            return combined_loss(a, b, w).item()

        for a, b, s in [(0.2, 1.1, 2.0), (3.0, 0.0, 0.5)]:
            assert loss(s * a, b) == pytest.approx(s * loss(a, b) - (s - 1) * loss(0.0, b))
            assert loss(a, s * b) == pytest.approx(s * loss(a, b) - (s - 1) * loss(a, 0.0))

    def test_tensor_inputs_stay_differentiable(self):
        w = LossWeights()
        a = Tensor(np.array(1.0), requires_grad=True)
        out = combined_loss(a, 2.0, w)
        out.backward()
        assert a.grad == pytest.approx(2.0)

    def test_both_weights_zero_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(alpha1=0.0, alpha2=0.0)

    @pytest.mark.parametrize(
        "alpha1, alpha2, message",
        [(-1.0, 1.0, "alpha1 must be >= 0, got -1.0"), (2.0, -0.5, "alpha2 must be >= 0, got -0.5")],
        ids=["-1.0-1.0", "2.0--0.5"],
    )
    def test_a_negative_weight_is_refused(self, alpha1, alpha2, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LossWeights(alpha1=alpha1, alpha2=alpha2)
