"""Unit tests for metrics, probing, pretraining, and the few-shot sweep."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from chants.data import MtsDataset, make_synthetic_fixture, subsample, train_test_split, znormalize
from chants.encoder import EncoderConfig, init_cat_params
from chants.errors import ConfigError
from chants.harness import (
    TrainConfig,
    compute_metrics,
    extract_features,
    fewshot_sweep,
    linear_probe,
    pretrain,
    supervised_baseline,
    train_linear_head,
)
from chants.pretext import LossWeights
from chants.tensor import Tensor


def tiny_cfg(channels=2, steps=8, width=8, depth=1, heads=2, **kw):
    defaults = dict(
        k_ntp=2,
        pretrain_lr=1e-3,
        pretrain_batch=4,
        pretrain_epochs=2,
        probe_epochs=5,
        probe_batch=4,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(
        encoder=EncoderConfig(channels=channels, steps=steps, width=width, depth=depth, heads=heads, dropout=0.0),
        weights=LossWeights(),
        **defaults,
    )


def labeled_dataset(rng, m=24, channels=2, steps=8, k=2):
    return MtsDataset(
        series=rng.normal(size=(m, channels, steps)),
        labels=rng.integers(0, k, size=m),
        class_count=k,
        name="toy",
    )


class TestComputeMetrics:
    def test_perfect_prediction(self):
        m = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert m.accuracy == 1.0 and m.macro_f1 == 1.0
        assert np.trace(m.confusion) == 4

    def test_half_right_binary(self):
        m = compute_metrics([0, 0, 1, 1], [0, 1, 0, 1], 2)
        assert m.accuracy == 0.5
        assert m.macro_f1 == pytest.approx(0.5)

    def test_collapsed_predictor_on_balanced_truth(self):
        pred = [0] * 10
        truth = [0] * 5 + [1] * 5
        m = compute_metrics(pred, truth, 2)
        assert m.accuracy == 0.5
        # class 0: P=0.5, R=1 -> F1=2/3; class 1 has no P+R -> 0
        assert m.macro_f1 == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(m.per_class_f1, [2.0 / 3.0, 0.0])

    def test_confusion_rows_are_supports(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 3, size=60)
        pred = rng.integers(0, 3, size=60)
        m = compute_metrics(pred, truth, 3)
        np.testing.assert_array_equal(m.confusion.sum(axis=1), np.bincount(truth, minlength=3))
        assert 0.0 <= m.accuracy <= 1.0 and 0.0 <= m.macro_f1 <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            compute_metrics([0, 1], [0], 2)


class TestLinearHead:
    def test_separable_features_reach_95_percent_on_train(self):
        rng = np.random.default_rng(1)
        n = 60
        labels = np.tile([0, 1], n // 2)
        features = rng.normal(scale=0.05, size=(n, 6))
        features[:, 0] += np.where(labels == 0, 2.0, -2.0)
        w, b = train_linear_head(features, labels, 2, lr=0.05, batch_size=8, epochs=40, patience=40, seed=0)
        pred = (features @ w + b).argmax(axis=1)
        assert (pred == labels).mean() >= 0.95


class TestLinearProbe:
    def test_encoder_parameters_bitwise_frozen(self):
        rng = np.random.default_rng(2)
        cfg = tiny_cfg()
        train = labeled_dataset(rng)
        test = labeled_dataset(rng, m=10)
        params = init_cat_params(cfg.encoder, np.random.default_rng(3))
        before = {k: t.data.tobytes() for k, t in params.named().items()}
        linear_probe(train, test, params, cfg)
        after = {k: t.data.tobytes() for k, t in params.named().items()}
        assert before == after
        assert all(t.grad is None for t in params.named().values())

    def test_class_missing_from_train_warns_and_never_predicted(self):
        rng = np.random.default_rng(4)
        train = labeled_dataset(rng, m=20, k=3)
        train.labels[train.labels == 2] = 0  # class 2 absent from training
        test = labeled_dataset(rng, m=12, k=3)
        test.labels[:4] = 2
        params = init_cat_params(tiny_cfg().encoder, np.random.default_rng(5))
        with pytest.warns(RuntimeWarning, match=r"\[2\]"):
            metrics = linear_probe(train, test, params, tiny_cfg())
        assert metrics.confusion[:, 2].sum() == 0

    def test_random_encoder_probe_sits_at_chance_on_the_fixture(self):
        # over 5 seeds, features of an untrained encoder carry no usable
        # class signal on the channel-order-only fixture
        ds = make_synthetic_fixture(m=240, channels=4, steps=32, seed=9)
        train, test = train_test_split(ds, 0.25, seed=0)
        train, stats = znormalize(train)
        from chants.data import apply_norm_stats

        test = apply_norm_stats(test, stats)
        cfg = tiny_cfg(channels=4, steps=32, width=16, depth=1, heads=2, probe_epochs=40)
        accs = []
        for seed in range(5):
            params = init_cat_params(cfg.encoder, np.random.default_rng([seed, 1]))
            run_cfg = dataclasses.replace(cfg, seed=seed)
            accs.append(linear_probe(train, test, params, run_cfg).accuracy)
        assert 0.35 <= float(np.mean(accs)) <= 0.65, accs


class TestPretrain:
    def test_loss_decreases_over_five_epochs_on_fixture(self):
        ds = make_synthetic_fixture(m=80, channels=4, steps=32, seed=3)
        ds, _ = znormalize(ds)
        cfg = TrainConfig(
            encoder=EncoderConfig(channels=4, steps=32, width=32, depth=2, heads=4, dropout=0.0),
            k_ntp=2,
            pretrain_lr=1e-3,
            pretrain_batch=10,
            pretrain_epochs=5,
            seed=0,
        )
        _, _, log = pretrain(ds, cfg)
        by_epoch = {}
        for rec in log:
            by_epoch.setdefault(rec["epoch"], []).append(rec["combined"])
        assert np.mean(by_epoch[4]) < np.mean(by_epoch[0])

    def test_no_cs_flag_logs_zero_similarity_component(self):
        rng = np.random.default_rng(6)
        ds = labeled_dataset(rng, m=8)
        _, _, log = pretrain(ds, tiny_cfg(no_cs=True, pretrain_epochs=1))
        assert all(rec["cs_loss"] == 0.0 for rec in log)
        assert all(rec["ntp_loss"] > 0.0 for rec in log)

    def test_no_ntp_flag_logs_zero_trend_component(self):
        rng = np.random.default_rng(7)
        ds = labeled_dataset(rng, m=8)
        _, _, log = pretrain(ds, tiny_cfg(no_ntp=True, pretrain_epochs=1))
        assert all(rec["ntp_loss"] == 0.0 for rec in log)

    def test_same_seed_runs_are_identical(self):
        rng = np.random.default_rng(8)
        ds = labeled_dataset(rng, m=12)
        cfg = tiny_cfg(pretrain_epochs=2)
        params_a, _, log_a = pretrain(ds, cfg)
        params_b, _, log_b = pretrain(ds, cfg)
        assert log_a == log_b
        for k, t in params_a.named().items():
            assert t.data.tobytes() == params_b.named()[k].data.tobytes()

    def test_ablation_variants_run(self):
        rng = np.random.default_rng(9)
        ds = labeled_dataset(rng, m=8)
        for flags in ({"no_neg_augment": True}, {"reverse_neg": True}, {"use_nvp": True}):
            _, _, log = pretrain(ds, tiny_cfg(pretrain_epochs=1, **flags))
            assert len(log) == 2

    def test_nonfinite_input_aborts(self):
        rng = np.random.default_rng(10)
        ds = labeled_dataset(rng, m=8)
        ds.series[0, 0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            pretrain(ds, tiny_cfg(pretrain_epochs=1))

    def test_checkpoints_written_and_pruned(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = labeled_dataset(rng, m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=4), out_dir=tmp_path)
        assert (tmp_path / "checkpoint.ckpt").exists()
        assert (tmp_path / "log.jsonl").exists()
        epoch_files = sorted(tmp_path.glob("checkpoint_epoch*.ckpt"))
        assert 1 <= len(epoch_files) <= 3  # last two plus best

    def test_peak_memory_stays_near_the_graph_at_backward(self, monkeypatch):
        # a step must not build its graph while the previous step's graph or
        # the gradients of interior nodes are still alive
        rng = np.random.default_rng(21)
        ds = labeled_dataset(rng, m=8, channels=4, steps=32)
        cfg = TrainConfig(
            encoder=EncoderConfig(channels=4, steps=32, width=16, depth=1, heads=2, dropout=0.1),
            k_ntp=4,
            pretrain_batch=4,
            pretrain_epochs=2,
            seed=0,
        )
        at_backward = []
        backward = Tensor.backward

        def traced_backward(tensor, grad=None):
            at_backward.append(tracemalloc.get_traced_memory()[0])
            return backward(tensor, grad)

        monkeypatch.setattr(Tensor, "backward", traced_backward)
        tracemalloc.start()
        try:
            pretrain(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(at_backward) == 4
        ratio = peak / max(at_backward)
        assert ratio < 1.5, f"peak is {ratio:.2f}x the largest traced memory at the start of backward"

    def test_dataset_dims_must_match_config(self):
        rng = np.random.default_rng(12)
        ds = labeled_dataset(rng, channels=3)
        with pytest.raises(ConfigError, match="does not match"):
            pretrain(ds, tiny_cfg(channels=2))


class TestSupervisedBaseline:
    def test_returns_valid_metrics_and_is_deterministic(self):
        rng = np.random.default_rng(13)
        train = labeled_dataset(rng, m=16)
        test = labeled_dataset(rng, m=8)
        cfg = tiny_cfg(probe_epochs=3)
        a = supervised_baseline(train, test, cfg)
        b = supervised_baseline(train, test, cfg)
        assert 0.0 <= a.accuracy <= 1.0 and 0.0 <= a.macro_f1 <= 1.0
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_learns_a_trivially_separable_dataset(self):
        rng = np.random.default_rng(14)
        m = 24
        labels = np.tile([0, 1], m // 2)
        series = rng.normal(scale=0.05, size=(m, 2, 8))
        series += np.where(labels == 0, 2.0, -2.0)[:, None, None]
        ds = MtsDataset(series=series, labels=labels, class_count=2, name="sep")
        cfg = tiny_cfg(probe_epochs=30, supervised_lr=3e-3)
        metrics = supervised_baseline(ds, ds, cfg)
        assert metrics.accuracy >= 0.9


class TestFewshotSweep:
    def test_rows_and_std_contract(self):
        rng = np.random.default_rng(15)
        train = labeled_dataset(rng, m=30)
        test = labeled_dataset(rng, m=10)
        cfg = tiny_cfg(probe_epochs=2)
        params = init_cat_params(cfg.encoder, np.random.default_rng(16))
        fractions = [0.5, 1.0]
        rows = fewshot_sweep(train, test, params, cfg, fractions, repeats=2)
        assert len(rows) == len(fractions) * 2
        assert {r["mode"] for r in rows} == {"probe", "supervised"}
        assert all(r["acc_std"] >= 0.0 and r["mf1_std"] >= 0.0 for r in rows)

    def test_accepts_the_standard_fraction_list(self):
        for f in (0.01, 0.05, 0.1, 0.2, 0.5, 0.7, 0.9):
            assert 0.0 < f <= 1.0  # validated upstream; full runs exercised above

    def test_rejects_bad_fractions(self):
        rng = np.random.default_rng(17)
        train = labeled_dataset(rng, m=10)
        test = labeled_dataset(rng, m=6)
        cfg = tiny_cfg()
        params = init_cat_params(cfg.encoder, np.random.default_rng(18))
        with pytest.raises(ConfigError):
            fewshot_sweep(train, test, params, cfg, [1.5])
        with pytest.raises(ConfigError):
            fewshot_sweep(train, test, params, cfg, [])

    def test_rejects_zero_repeats(self):
        rng = np.random.default_rng(17)
        train = labeled_dataset(rng, m=10)
        test = labeled_dataset(rng, m=6)
        cfg = tiny_cfg()
        params = init_cat_params(cfg.encoder, np.random.default_rng(18))
        with pytest.raises(ConfigError, match="repeats"):
            fewshot_sweep(train, test, params, cfg, [0.5], repeats=0)


def test_extract_features_builds_no_graph():
    rng = np.random.default_rng(19)
    cfg = tiny_cfg()
    params = init_cat_params(cfg.encoder, rng)
    from chants.encoder import Encoder

    feats = extract_features(Encoder(params, cfg.encoder), rng.normal(size=(5, 2, 8)))
    assert feats.shape == (5, 16)
    assert all(t.grad is None for t in params.named().values())
