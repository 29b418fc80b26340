"""Unit tests for metrics, probing, pretraining, the few-shot sweep, and
building a training config from plain values."""

import dataclasses
import hashlib
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import chants
import chants.tensor
from chants import harness
from chants.augment import AugmentConfig
from chants.checkpoint import load_checkpoint, save_checkpoint
from chants.data import MtsDataset, make_synthetic_fixture, subsample, train_test_split, znormalize
from chants.encoder import Encoder, EncoderConfig, _glorot, init_cat_params
from chants.errors import CheckpointError, ConfigError, ShapeError
from chants.harness import (
    Metrics,
    TrainConfig,
    _cs_grad_cache,
    _in_micro_batches,
    compute_metrics,
    extract_features,
    fewshot_sweep,
    fit,
    linear_probe,
    load_pretrained,
    pretrain,
    supervised_baseline,
    train_config_from_dict,
    train_linear_head,
)
from chants.pretext import (
    LossWeights,
    build_cs_batch,
    cs_loss,
    init_pretext_heads,
    make_ntp_instances,
    ntp_loss,
    nvp_instances,
    nvp_loss,
    reverse_neg_mode,
)
from chants.tensor import Tensor, constant, cross_entropy, mul

from test_tensor import composed_head


def tiny_cfg(channels=2, steps=8, width=8, depth=1, heads=2, **kw):
    defaults = dict(
        weights=LossWeights(),
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
        _, _, log = pretrain(ds, tiny_cfg(weights=LossWeights(alpha2=0.0), pretrain_epochs=1))
        assert all(rec["cs_loss"] == 0.0 for rec in log)
        assert all(rec["ntp_loss"] > 0.0 for rec in log)

    def test_no_ntp_flag_logs_zero_trend_component(self):
        rng = np.random.default_rng(7)
        ds = labeled_dataset(rng, m=8)
        _, _, log = pretrain(ds, tiny_cfg(weights=LossWeights(alpha1=0.0), pretrain_epochs=1))
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
        # 4 steps, each: 4 NTP micro-batches (16 truncations at k_ntp = 4),
        # the CS loss on its cached projections and 4 CS micro-batches (20 rows)
        assert len(at_backward) == 4 * 9
        ratio = peak / max(at_backward)
        assert ratio < 1.5, f"peak is {ratio:.2f}x the largest traced memory at the start of backward"

    @staticmethod
    def traced_peak(batch, **kw):
        """tracemalloc peak of one epoch of 8 samples at C=4, T=32, width 16, dropout 0.1."""
        rng = np.random.default_rng(23)
        ds = labeled_dataset(rng, m=8, channels=4, steps=32)
        cfg = TrainConfig(
            encoder=EncoderConfig(channels=4, steps=32, width=16, depth=1, heads=2, dropout=0.1),
            pretrain_batch=batch,
            pretrain_epochs=1,
            seed=0,
            **kw,
        )
        tracemalloc.start()
        try:
            pretrain(ds, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ntp_memory_does_not_grow_with_the_batch(self):
        # with CS off, a step's graph is one micro-batch of truncations, so
        # quadrupling B adds only the per-batch inputs and dropout masks
        ntp_only = dict(weights=LossWeights(alpha2=0.0), k_ntp=8)
        ratio = self.traced_peak(8, **ntp_only) / self.traced_peak(2, **ntp_only)
        assert ratio < 1.6, f"peak at B=8 is {ratio:.2f}x that at B=2"

    def test_ntp_memory_does_not_grow_with_k_ntp(self):
        # the truncations run MICRO_BATCH at a time, so tripling k_ntp adds
        # only the truncated inputs and their packed dropout masks
        ntp_only = dict(weights=LossWeights(alpha2=0.0))
        ratio = self.traced_peak(4, k_ntp=15, **ntp_only) / self.traced_peak(4, k_ntp=5, **ntp_only)
        assert ratio < 1.3, f"peak at k_ntp=15 is {ratio:.2f}x that at k_ntp=5"

    def test_nvp_memory_does_not_grow_with_the_batch(self):
        # value regression encodes its truncations MICRO_BATCH at a time too
        nvp_only = dict(weights=LossWeights(alpha2=0.0), use_nvp=True)
        ratio = self.traced_peak(8, **nvp_only) / self.traced_peak(2, **nvp_only)
        assert ratio < 1.6, f"peak at B=8 is {ratio:.2f}x that at B=2"

    def test_cs_memory_does_not_grow_with_the_batch(self):
        # with NTP off, a step's graph is one micro-batch of five samples, so
        # quadrupling B adds only the per-batch inputs, the cached projections
        # and the packed dropout masks
        cs_only = dict(weights=LossWeights(alpha1=0.0))
        ratio = self.traced_peak(8, **cs_only) / self.traced_peak(2, **cs_only)
        assert ratio < 1.6, f"peak at B=8 is {ratio:.2f}x that at B=2"

    def test_non_finite_cs_loss_aborts_before_any_backward(self, monkeypatch):
        rng = np.random.default_rng(28)
        ds = labeled_dataset(rng, m=8)
        ds.series[:, 1, 2] = np.nan
        calls = {"backward": 0, "adam": 0}
        backward, adam_step = Tensor.backward, harness.adam_step

        def counted_backward(tensor, grad=None):
            calls["backward"] += 1
            return backward(tensor, grad)

        def counted_adam_step(*args, **kwargs):
            calls["adam"] += 1
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(Tensor, "backward", counted_backward)
        monkeypatch.setattr(harness, "adam_step", counted_adam_step)
        with pytest.raises(FloatingPointError, match="non-finite CS loss nan"):
            pretrain(ds, tiny_cfg(pretrain_epochs=1, weights=LossWeights(alpha1=0.0)))
        assert calls == {"backward": 0, "adam": 0}

    def test_non_finite_ntp_part_aborts_before_its_backward(self, monkeypatch):
        rng = np.random.default_rng(24)
        ds = labeled_dataset(rng, m=8)
        ds.series[:, 0, 3] = np.nan
        calls = {"backward": 0, "adam": 0}
        backward, adam_step = Tensor.backward, harness.adam_step

        def counted_backward(tensor, grad=None):
            calls["backward"] += 1
            return backward(tensor, grad)

        def counted_adam_step(*args, **kwargs):
            calls["adam"] += 1
            return adam_step(*args, **kwargs)

        monkeypatch.setattr(Tensor, "backward", counted_backward)
        monkeypatch.setattr(harness, "adam_step", counted_adam_step)
        with pytest.raises(FloatingPointError, match="non-finite NTP loss nan on rows 0 to 4 of the batch"):
            pretrain(ds, tiny_cfg(pretrain_epochs=1))
        assert calls == {"backward": 0, "adam": 0}

    def test_non_finite_nvp_part_aborts_before_its_backward(self, monkeypatch):
        rng = np.random.default_rng(26)
        ds = labeled_dataset(rng, m=8)
        ds.series[:, 0, 0] = np.nan  # every truncated copy keeps step 0
        calls = {"backward": 0}
        backward = Tensor.backward

        def counted_backward(tensor, grad=None):
            calls["backward"] += 1
            return backward(tensor, grad)

        monkeypatch.setattr(Tensor, "backward", counted_backward)
        with pytest.raises(FloatingPointError, match="non-finite NVP loss nan on rows 0 to 4 of the batch"):
            pretrain(ds, tiny_cfg(pretrain_epochs=1, use_nvp=True))
        assert calls == {"backward": 0}

    def test_nvp_and_cs_draw_their_dropout_masks_from_the_dropout_stream(self, monkeypatch):
        # one step of 4 samples: the NVP masks are built first, on the
        # generator seeded [seed, 4] before it has drawn anything, and the CS
        # masks on that same generator
        sources = []
        masks = harness.MicroBatchMasks

        def recorded(rng, rows):
            sources.append((rng, rng.bit_generator.state))
            return masks(rng, rows)

        monkeypatch.setattr(harness, "MicroBatchMasks", recorded)
        cfg = tiny_cfg(pretrain_epochs=1, use_nvp=True, seed=3)
        pretrain(labeled_dataset(np.random.default_rng(33), m=4), cfg)
        assert len(sources) == 2
        (nvp, nvp_state), (cs, _) = sources
        assert nvp is cs
        assert nvp_state == np.random.default_rng([cfg.seed, 4]).bit_generator.state

    def test_reused_out_dir_keeps_only_this_runs_epoch_checkpoints(self, tmp_path):
        rng = np.random.default_rng(25)
        ds = labeled_dataset(rng, m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=4, seed=0), out_dir=tmp_path)
        assert len(list(tmp_path.glob("checkpoint_epoch*.ckpt"))) >= 2
        pretrain(ds, tiny_cfg(pretrain_epochs=1, seed=5), out_dir=tmp_path)
        paths = sorted(tmp_path.glob("checkpoint*.ckpt"))
        assert [p.name for p in paths] == ["checkpoint.ckpt", "checkpoint_epoch0000.ckpt"]
        for path in paths:
            manifest, _ = load_checkpoint(path)
            assert manifest["meta"]["train_config"]["seed"] == 5, path.name

    def test_save_every_writes_every_nth_and_the_last_epoch_keeping_the_best(self, tmp_path):
        # epochs 1 and 3 are the second and fourth, epoch 4 the last; of
        # those, the last two stay and epoch 1 stays as the lowest loss saved
        ds = labeled_dataset(np.random.default_rng(31), m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=5, save_every=2), out_dir=tmp_path)
        paths = sorted(tmp_path.glob("checkpoint_epoch*.ckpt"))
        assert [p.name for p in paths] == [f"checkpoint_epoch000{e}.ckpt" for e in (1, 3, 4)]
        metas = [load_checkpoint(p)[0]["meta"] for p in paths]
        assert min(metas, key=lambda meta: meta["train_loss"])["epoch"] == 1

    def test_aborted_run_into_a_reused_out_dir_leaves_no_earlier_checkpoint(self, tmp_path):
        rng = np.random.default_rng(27)
        ds = labeled_dataset(rng, m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=2, seed=0), out_dir=tmp_path)
        assert (tmp_path / "checkpoint.ckpt").exists()
        ds.series[3, 0, 5] = np.nan
        with pytest.raises(FloatingPointError):
            pretrain(ds, tiny_cfg(pretrain_epochs=2, seed=5), out_dir=tmp_path)
        seeds = [load_checkpoint(p)[0]["meta"]["train_config"]["seed"] for p in tmp_path.glob("*.ckpt")]
        assert 0 not in seeds
        assert (tmp_path / "log.jsonl").exists()

    @pytest.mark.parametrize("change", [{"pretrain_batch": 2.5}, {"k_ntp": 2.5}, {"seed": np.int64(3)}])
    def test_a_mistyped_config_is_refused_leaving_an_earlier_run_as_it_was(self, tmp_path, change):
        ds = labeled_dataset(np.random.default_rng(33), m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=2), out_dir=tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        (name,) = change
        with pytest.raises(ConfigError, match=f"config field '{name}' must be int"):
            pretrain(ds, tiny_cfg(pretrain_epochs=2, **change), out_dir=tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_dataset_dims_must_match_config(self):
        rng = np.random.default_rng(12)
        ds = labeled_dataset(rng, channels=3)
        with pytest.raises(ConfigError, match="does not match"):
            pretrain(ds, tiny_cfg(channels=2))

    def test_the_manifest_records_the_config_the_series_and_the_code_version(self, tmp_path):
        ds = labeled_dataset(np.random.default_rng(34), m=8)
        cfg = tiny_cfg(pretrain_epochs=1, seed=7, aug=AugmentConfig(segment_count_range=(2, 5)))
        pretrain(ds, cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert sorted(manifest) == ["code_version", "command", "config", "created", "seed", "series_sha256"]
        assert train_config_from_dict(manifest["config"]) == cfg
        assert manifest["series_sha256"] == hashlib.sha256(ds.series).hexdigest()
        assert manifest["code_version"] == chants.__version__
        assert (manifest["command"], manifest["seed"]) == ("pretrain", 7)

    def test_the_loop_starts_with_no_file_of_an_earlier_run_but_the_new_manifest(self, tmp_path, monkeypatch):
        ds = labeled_dataset(np.random.default_rng(35), m=8)
        pretrain(ds, tiny_cfg(pretrain_epochs=2), out_dir=tmp_path)
        assert (tmp_path / "log.jsonl").exists()
        at_start = []

        def no_steps(*args, **kwargs):
            at_start.append(sorted(path.name for path in tmp_path.iterdir()))
            return False

        monkeypatch.setattr(harness, "fit", no_steps)
        pretrain(ds, tiny_cfg(pretrain_epochs=2), out_dir=tmp_path)
        assert at_start == [["manifest.json"]]
        assert (tmp_path / "log.jsonl").read_text(encoding="utf-8") == ""


def with_train_config(manifest, **change):
    """``manifest`` with ``change`` merged into its ``meta.train_config``."""
    meta = manifest["meta"]
    return {**manifest, "meta": {**meta, "train_config": {**meta["train_config"], **change}}}


class TestLoadPretrained:
    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    def test_reads_back_the_params_config_and_stats_that_pretrain_wrote(self, tmp_path, normalize):
        ds, stats = labeled_dataset(np.random.default_rng(41), m=8), None
        if normalize:
            ds, stats = znormalize(ds)
        cfg = tiny_cfg(
            pretrain_epochs=3, weights=LossWeights(alpha1=0.5, alpha2=3.0, tau=0.1), aug=AugmentConfig(jitter_sigma=0.3)
        )
        params, _, _ = pretrain(ds, cfg, out_dir=tmp_path, norm=stats)
        expected = {name: t.data.tobytes() for name, t in params.named().items()}
        # the last epoch's checkpoint holds the final parameters too
        for name in ("checkpoint.ckpt", "checkpoint_epoch0002.ckpt"):
            loaded, loaded_cfg, loaded_stats = load_pretrained(tmp_path / name)
            assert {k: t.data.tobytes() for k, t in loaded.named().items()} == expected, name
            assert loaded_cfg == cfg
            if stats is None:
                assert loaded_stats is None
            else:
                assert loaded_stats.mean.tobytes() == stats.mean.tobytes()
                assert loaded_stats.std.tobytes() == stats.std.tobytes()

    @pytest.mark.parametrize(
        "fault, message",
        [
            (lambda m, a: ({**m, "meta": {}}, a), "no training config object (meta.train_config)"),
            (
                lambda m, a: (with_train_config(m, weights={"alpha1": True}), a),
                "bad training config: config section 'weights': config field 'alpha1' must be float, got True",
            ),
            (
                lambda m, a: (m, {k: v for k, v in a.items() if k != "extra.norm.std"}),
                "normalization stats must be norm.mean and norm.std of length 2",
            ),
            (
                lambda m, a: (m, {**a, "extra.norm.mean": np.zeros(3)}),
                "normalization stats must be norm.mean and norm.std of length 2",
            ),
            (
                lambda m, a: (m, {**a, "extra.norm.std": np.array([1.0, np.nan])}),
                "normalization stats norm.mean and norm.std must be finite",
            ),
        ],
        ids=["no-training-config", "mistyped-section-field", "one-stat", "stats-of-another-length", "non-finite-stats"],
    )
    def test_a_checkpoint_it_cannot_use_raises_naming_it(self, tmp_path, fault, message):
        ds, stats = znormalize(labeled_dataset(np.random.default_rng(43), m=8))
        pretrain(ds, tiny_cfg(pretrain_epochs=1), out_dir=tmp_path, norm=stats)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, *fault(*load_checkpoint(tmp_path / "checkpoint.ckpt")))
        with pytest.raises(CheckpointError) as info:
            load_pretrained(bad)
        assert str(info.value).startswith(f"{bad}: {message}")


def test_every_backward_of_a_trainer_runs_through_the_one_backward_helper(monkeypatch):
    # harness._backward checks each part is finite before its backward; a
    # trainer that calls Tensor.backward itself would skip that check
    callers = []
    backward = Tensor.backward

    def traced(tensor, grad=None):
        callers.append(sys._getframe(1).f_code)
        return backward(tensor, grad)

    monkeypatch.setattr(Tensor, "backward", traced)
    rng = np.random.default_rng(37)
    pretrain(labeled_dataset(rng, m=8), tiny_cfg(pretrain_epochs=1))
    pretraining = len(callers)
    supervised_baseline(labeled_dataset(rng, m=8), labeled_dataset(rng, m=4), tiny_cfg(probe_epochs=1))
    assert 0 < pretraining < len(callers)
    assert set(callers) == {harness._backward.__code__}


@pytest.mark.parametrize("use_nvp", [False, True])
def test_pretrain_calls_each_benchmark_hook_with_item_able_losses(monkeypatch, use_nvp):
    # bench/workloads.py times pretraining steps and records their losses by
    # wrapping these three harness globals the same way: a refactor that
    # stops calling them through the module, or calls them at another rate,
    # would leave the benchmark timing and checking nothing
    calls = {"init_adam_state": 0, "adam_step": 0}
    losses = []
    init_adam_state, combined_loss, adam_step = harness.init_adam_state, harness.combined_loss, harness.adam_step

    def counted_init_adam_state(*args, **kwargs):
        calls["init_adam_state"] += 1
        return init_adam_state(*args, **kwargs)

    def recorded_combined_loss(ntp, cs, weights):
        out = combined_loss(ntp, cs, weights)
        losses.append((ntp.item(), cs.item(), out.item()))
        return out

    def counted_adam_step(*args, **kwargs):
        calls["adam_step"] += 1
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(harness, "init_adam_state", counted_init_adam_state)
    monkeypatch.setattr(harness, "combined_loss", recorded_combined_loss)
    monkeypatch.setattr(harness, "adam_step", counted_adam_step)
    ds = labeled_dataset(np.random.default_rng(31), m=8)
    _, _, log = pretrain(ds, tiny_cfg(pretrain_epochs=1, use_nvp=use_nvp))
    assert len(log) == 2
    assert calls == {"init_adam_state": 1, "adam_step": len(log)}
    assert losses == [(r["ntp_loss"], r["cs_loss"], r["combined"]) for r in log]
    assert all(ntp > 0.0 and cs > 0.0 for ntp, cs, _ in losses)


def test_linear_probe_calls_each_benchmark_hook_and_its_head_reproduces_the_accuracy(monkeypatch):
    # bench/workloads.py checks a probe by wrapping these two harness globals
    # the same way and recomputing the test predictions from the last
    # features extracted and the head trained: a refactor that stops calling
    # them through the module, calls them at another rate, or returns a head
    # whose logits are not features @ w + b would leave the benchmark's
    # reference check comparing the wrong predictions
    extracted, heads = [], []
    extract, train_head = harness.extract_features, harness.train_linear_head

    def kept_features(*args, **kwargs):
        extracted.append(extract(*args, **kwargs))
        return extracted[-1]

    def kept_head(*args, **kwargs):
        heads.append(train_head(*args, **kwargs))
        return heads[-1]

    monkeypatch.setattr(harness, "extract_features", kept_features)
    monkeypatch.setattr(harness, "train_linear_head", kept_head)
    rng = np.random.default_rng(33)
    train, test = labeled_dataset(rng, m=20, k=3), labeled_dataset(rng, m=12, k=3)
    train.labels[:3] = [0, 1, 2]  # every class present, so no logit is masked
    cfg = tiny_cfg()
    metrics = linear_probe(train, test, init_cat_params(cfg.encoder, np.random.default_rng(34)), cfg)
    assert [len(f) for f in extracted] == [train.size, test.size]
    assert len(heads) == 1
    w, b = heads[0]
    pred = (extracted[-1] @ w + b).argmax(axis=1)
    assert metrics.accuracy == float(np.mean(pred == test.labels))
    assert metrics.confusion.tolist() == compute_metrics(pred, test.labels, 3).confusion.tolist()


@pytest.mark.parametrize("task", ["ntp", "nvp"])
def test_micro_batched_truncations_match_one_whole_batch_pass(task):
    # reference: the task's loss over every truncation in one graph, times
    # 1/B, one backward; a draw after it shows where each run leaves the
    # dropout rng. 3 samples at T = 16 give 3 * 7 = 21 NTP truncations
    # (k_ntp = 7; micro-batches of 5, 5, 5, 5 and 1, which cross samples) and
    # 3 * 3 = 9 NVP truncations (micro-batches of 5 and 4).
    cfg = EncoderConfig(channels=3, steps=16, width=8, depth=2, heads=2, dropout=0.2)
    rng = np.random.default_rng(26)
    params = init_cat_params(cfg, rng)
    heads = init_pretext_heads(cfg, rng)
    encoder = Encoder(params, cfg)
    leaves = {**params.trainable(), **heads.named()}
    xs = rng.normal(size=(3, 3, 16))
    if task == "ntp":
        loss, (truncated, targets) = ntp_loss, make_ntp_instances(xs, 7, rng)
    else:
        loss, (truncated, targets) = nvp_loss, nvp_instances(xs, rng)
    assert harness.MICRO_BATCH == 5 and len(truncated) % 5 != 0
    weight = 2.0

    def run(part):
        for t in leaves.values():
            t.zero_grad()
        rng_drop = np.random.default_rng(27)
        value = part(rng_drop)
        grads = {k: t.grad for k, t in leaves.items() if t.grad is not None}
        return value, grads, rng_drop.random(4)

    def whole_batch(rng_drop):
        mean = mul(loss(encoder, truncated, targets, heads, rng=rng_drop), constant(1 / len(xs)))
        mul(mean, constant(weight)).backward()
        return mean.item()

    def micro_batched(rng_drop):
        total = _in_micro_batches(
            encoder, heads, task.upper(), loss, truncated, targets, rng_drop, weight / len(xs)
        )
        return total / len(xs)

    want, want_grads, want_next = run(whole_batch)
    got, got_grads, got_next = run(micro_batched)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got_grads.keys() == want_grads.keys()
    assert f"heads.{task}.w" in got_grads and "embed.w_time" in got_grads
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name)
    np.testing.assert_array_equal(got_next, want_next)


@pytest.mark.parametrize("kind", ["standard", "no_neg_augment", "reverse_neg", "single"])
def test_cs_grad_cache_matches_one_whole_batch_pass(kind):
    # reference: cs_loss over the whole batch in one graph, one backward; a
    # draw after it shows where each run leaves the dropout rng
    cfg = EncoderConfig(channels=3, steps=16, width=8, depth=2, heads=2, dropout=0.2)
    rng = np.random.default_rng(29)
    params = init_cat_params(cfg, rng)
    heads = init_pretext_heads(cfg, rng)
    encoder = Encoder(params, cfg)
    leaves = {**params.trainable(), **heads.named()}
    xs = rng.normal(size=(1 if kind == "single" else 3, 3, 16))
    batch = build_cs_batch(xs, AugmentConfig(), rng, include_negatives=kind != "no_neg_augment")
    if kind == "reverse_neg":
        batch = reverse_neg_mode(batch)
    weights = LossWeights(alpha2=1.5, tau=0.2)

    def run(cs):
        for t in leaves.values():
            t.zero_grad()
        rng_drop = np.random.default_rng(30)
        value = cs(rng_drop)
        grads = {k: t.grad for k, t in leaves.items() if t.grad is not None}
        return value, grads, rng_drop.random(4)

    def whole_batch(rng_drop):
        loss = cs_loss(encoder, batch, heads, weights, rng=rng_drop)
        mul(loss, constant(weights.alpha2)).backward()
        return loss.item()

    want, want_grads, want_next = run(whole_batch)
    got, got_grads, got_next = run(
        lambda rng_drop: _cs_grad_cache(encoder, batch, heads, rng_drop, weights.alpha2, weights.tau)
    )
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert got_grads.keys() == want_grads.keys()
    assert "heads.cs.w1" in got_grads and "embed.w_time" in got_grads
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max(), err_msg=name)
    np.testing.assert_array_equal(got_next, want_next)


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

    def test_class_missing_from_train_warns_and_never_predicted(self):
        rng = np.random.default_rng(4)
        train = labeled_dataset(rng, m=20, k=3)
        train.labels[train.labels == 2] = 0  # class 2 absent from training
        test = labeled_dataset(rng, m=12, k=3)
        test.labels[:4] = 2
        with pytest.warns(RuntimeWarning, match=r"\[2\]"):
            metrics = supervised_baseline(train, test, tiny_cfg(probe_epochs=2))
        assert metrics.confusion[:, 2].sum() == 0

    def test_encodes_at_most_a_micro_batch_per_graph(self, monkeypatch):
        # each step of 8 samples encodes 5 with a graph, backpropagates
        # them, then encodes the other 3; only scoring encodes without one
        taped = []
        encode_batch = Encoder.encode_batch

        def recorded(encoder, xs, *, rng=None):
            if chants.tensor._GRAD_ENABLED:
                taped.append(len(xs))
            return encode_batch(encoder, xs, rng=rng)

        monkeypatch.setattr(Encoder, "encode_batch", recorded)
        rng = np.random.default_rng(35)
        cfg = tiny_cfg(probe_batch=8, probe_epochs=1)
        supervised_baseline(labeled_dataset(rng, m=16), labeled_dataset(rng, m=4), cfg)
        assert taped == [5, 3, 5, 3]

    @staticmethod
    def traced_peak(batch):
        """tracemalloc peak of one epoch of 48 samples at C=4, T=32, width 16, dropout 0.1."""
        rng = np.random.default_rng(36)
        ds = labeled_dataset(rng, m=48, channels=4, steps=32)
        cfg = TrainConfig(
            encoder=EncoderConfig(channels=4, steps=32, width=16, depth=1, heads=2, dropout=0.1),
            probe_batch=batch,
            probe_epochs=1,
            seed=0,
        )
        tracemalloc.start()
        try:
            supervised_baseline(ds, ds, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_the_batch(self):
        # a step's graph is one micro-batch of 5 samples, so tripling the
        # batch adds only its inputs and packed dropout masks: about 1.08x,
        # where a graph of the whole batch gives about 2.6x
        ratio = self.traced_peak(24) / self.traced_peak(8)
        assert ratio < 1.3, f"peak at probe_batch=24 is {ratio:.2f}x that at 8"

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


@pytest.mark.parametrize("patience, epochs_run, stopped", [(3, 4, True), (10, 6, False)])
def test_fit_stops_once_the_loss_has_not_improved_for_patience_epochs(patience, epochs_run, stopped):
    w = Tensor(np.ones(2), requires_grad=True)
    seen, log, grads_before = [], [], []

    def step_loss(batch):
        grads_before.append(w.grad)
        w.grad = np.zeros(2)
        return 0.0, {"batch": batch}

    result = fit(
        {"w": w}, lr=0.1, epochs=6, patience=patience, epoch_batches=lambda epoch: ["a", "b"],
        step_loss=step_loss, log=log, on_epoch=lambda epoch, mean, steps: seen.append((epoch, mean, steps)),
    )
    assert result is stopped
    assert seen == [(e, 0.0, 2 * (e + 1)) for e in range(epochs_run)]
    assert log[:3] == [
        {"epoch": 0, "step": 0, "batch": "a"},
        {"epoch": 0, "step": 1, "batch": "b"},
        {"epoch": 1, "step": 2, "batch": "a"},
    ]
    assert grads_before == [None] * 2 * epochs_run  # fit clears the gradients before each step
    assert w.data.tolist() == [1.0, 1.0]  # a zero gradient moves nothing


def test_fit_takes_the_gradients_step_loss_leaves_and_no_backward(monkeypatch):
    w = Tensor(np.zeros(3), requires_grad=True)
    backward_calls = []
    monkeypatch.setattr(Tensor, "backward", lambda *args: backward_calls.append(args))

    def step_loss(batch):
        w.grad = np.array([1.0, -1.0, 0.0])
        return 1.0, {}

    fit({"w": w}, lr=0.1, epochs=1, patience=1, epoch_batches=lambda epoch: ["a"], step_loss=step_loss)
    # Adam's first update is lr * sign(g), up to epsilon
    assert np.allclose(w.data, [-0.1, 0.1, 0.0], rtol=0.0, atol=1e-8)
    assert backward_calls == []


def test_head_and_supervised_training_abort_on_a_non_finite_loss(monkeypatch):
    rng = np.random.default_rng(22)
    features = rng.normal(size=(8, 4))
    features[3, 1] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite loss"):
        train_linear_head(features, np.tile([0, 1], 4), 2, lr=0.01, batch_size=4, epochs=2, patience=2, seed=0)
    calls = {"backward": 0, "adam": 0}
    backward, adam_step = Tensor.backward, harness.adam_step

    def counted_backward(tensor, grad=None):
        calls["backward"] += 1
        return backward(tensor, grad)

    def counted_adam_step(*args, **kwargs):
        calls["adam"] += 1
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", counted_backward)
    monkeypatch.setattr(harness, "adam_step", counted_adam_step)
    train = labeled_dataset(rng, m=8)
    train.series[:, 0, 2] = np.nan  # in every sample, so the first micro-batch holds one
    with pytest.raises(FloatingPointError, match="non-finite supervised loss nan on rows 0 to 3 of the batch"):
        supervised_baseline(train, labeled_dataset(rng, m=4), tiny_cfg(probe_epochs=1))
    assert calls == {"backward": 0, "adam": 0}


def reference_linear_head(features, labels, k, *, lr, batch_size, epochs, seed):
    """The head as trained before the fused node: matmul, add and the composed
    cross entropy on the tape, then the Adam formula on fresh arrays."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    n, dim = features.shape
    w = _glorot(np.random.default_rng([seed, 10]), dim, k)
    b = Tensor(np.zeros(k), requires_grad=True)
    moments = {"w": [np.zeros_like(w.data), np.zeros_like(w.data)], "b": [np.zeros(k), np.zeros(k)]}
    t = 0
    for epoch in range(epochs):
        order = np.random.default_rng([seed, 11, epoch]).permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            w.zero_grad(), b.zero_grad()
            composed_head(constant(features[idx]), w, b, labels[idx]).backward()
            t += 1
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for name, leaf in (("w", w), ("b", b)):
                m, v = moments[name]
                m = b1 * m + (1.0 - b1) * leaf.grad
                v = b2 * v + (1.0 - b2) * (leaf.grad * leaf.grad)
                moments[name] = [m, v]
                leaf.data = leaf.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return w.data, b.data


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linear_head_is_bitwise_the_composed_head_with_the_adam_formula(seed):
    rng = np.random.default_rng([23, seed])
    features = rng.normal(size=(30, 12))
    labels = rng.integers(0, 3, size=30)
    kw = dict(lr=0.01, batch_size=4, epochs=6, seed=seed)  # 8 steps an epoch, the last of 2 rows
    w, b = train_linear_head(features, labels, 3, patience=7, **kw)
    want_w, want_b = reference_linear_head(features, labels, 3, **kw)
    assert w.tobytes() == want_w.tobytes()
    assert b.tobytes() == want_b.tobytes()


def test_a_head_step_records_no_tape_node_and_is_one_adam_step_over_one_array(monkeypatch):
    counts = {"backward": 0, "nodes": 0}
    adam_shapes = []
    make, backward, adam_step = chants.tensor._make, Tensor.backward, harness.adam_step

    def counted_make(*args):
        out = make(*args)
        counts["nodes"] += out._backward is not None
        return out

    def counted_backward(tensor, grad=None):
        counts["backward"] += 1
        return backward(tensor, grad)

    def recorded_adam_step(params, grads, state):
        adam_shapes.append(([p.shape for p in params.values()], [g.shape for g in grads.values()]))
        return adam_step(params, grads, state)

    monkeypatch.setattr(chants.tensor, "_make", counted_make)
    monkeypatch.setattr(Tensor, "backward", counted_backward)
    monkeypatch.setattr(harness, "adam_step", recorded_adam_step)
    features = np.random.default_rng(24).normal(size=(6, 5))
    w, b = train_linear_head(features, [0, 1, 1, 0, 2, 1], 3, lr=0.01, batch_size=4, epochs=2, patience=2, seed=0)
    assert counts == {"backward": 0, "nodes": 0}
    assert adam_shapes == [([(6, 3)], [(6, 3)])] * 4  # 2 steps an epoch, the last of 2 rows
    assert (w.shape, b.shape) == ((5, 3), (3,))


HEAD = dict(lr=0.01, batch_size=4, epochs=2, patience=2, seed=0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: train_linear_head(np.zeros((0, 3)), np.zeros(0, dtype=int), 2, **HEAD), ConfigError),
        (lambda: train_linear_head(np.zeros((4, 3)), np.zeros(3, dtype=int), 2, **HEAD), ShapeError),
        (lambda: train_linear_head(np.zeros((4, 3)), np.zeros(4, dtype=int), 2, **{**HEAD, "batch_size": 0}), ConfigError),
        (lambda: train_linear_head(np.zeros(4), np.zeros(4, dtype=int), 2, **HEAD), ShapeError),
        (lambda: train_linear_head(np.zeros((4, 3)), np.array([0, 1, 2, 0]), 2, **HEAD), IndexError),
        (lambda: train_linear_head(np.zeros((4, 3)), np.array([0, 1, -1, 0]), 2, **HEAD), IndexError),
        (lambda: cross_entropy(np.zeros((0, 3)), np.zeros((3, 2)), np.zeros(2), []), ShapeError),
        (
            lambda: fit(
                {"w": Tensor(np.ones(2), requires_grad=True)}, lr=0.1, epochs=2, patience=2,
                epoch_batches=lambda epoch: iter(()), step_loss=None,
            ),
            ConfigError,
        ),
        (
            lambda: fit(
                {"w": Tensor(np.ones(2), requires_grad=True)}, lr=0.1, epochs=2, patience=2,
                epoch_batches=lambda epoch: ["a"], step_loss=lambda batch: (float("nan"), {}),
            ),
            FloatingPointError,
        ),
    ],
    ids=[
        "no-rows", "label-count", "batch-size-0", "1-d-features", "label-at-k", "negative-label",
        "cross-entropy-no-rows", "fit-empty-epoch", "fit-non-finite-loss",
    ],
)
def test_bad_head_training_input_fails_loudly_before_any_step(call, error, monkeypatch):
    steps = []
    adam_step = harness.adam_step
    monkeypatch.setattr(harness, "adam_step", lambda *args: steps.append(1) or adam_step(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" on the way
        with pytest.raises(error):
            call()
    assert steps == []


class TestTrainConfigFromDict:
    def non_default(self):
        return tiny_cfg(
            weights=LossWeights(alpha1=0.5, alpha2=3.0, tau=0.1),
            aug=AugmentConfig(jitter_sigma=0.3, interval_count_range=(2, 3), segment_count_range=(5, 9)),
            early_stop_patience=4,
            reverse_neg=True,
            use_nvp=True,
        )

    def test_round_trips_asdict_and_its_json_snapshot(self):
        cfg = self.non_default()
        assert train_config_from_dict(dataclasses.asdict(cfg)) == cfg
        snapshot = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert snapshot["aug"]["segment_count_range"] == [5, 9]
        assert train_config_from_dict(snapshot) == cfg

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"bogus": 1}, "'bogus'"),
            ({"encoder": {"channels": 2, "steps": 8, "bogus": 1}}, "'encoder.bogus'"),
            ({"k_ntp": 2.5}, "'k_ntp'"),
            ({"use_nvp": "maybe"}, "'use_nvp'"),
            ({"aug": {"segment_count_range": [1, 2, 3]}}, "'aug.segment_count_range'"),
            ({"weights": 1.0}, "'weights'"),
            ({"encoder": {"channels": 2}}, "steps"),
            ({"pretrain_lr": float("nan")}, "pretrain_lr must be finite"),
            ({"probe_lr": "inf"}, "probe_lr must be finite"),
            ({"supervised_lr": -float("inf")}, "supervised_lr must be finite"),
            ({"weights": {"alpha1": "nan"}}, "alpha1 must be finite"),
            ({"weights": {"alpha2": float("inf")}}, "alpha2 must be finite"),
            ({"weights": {"tau": float("nan")}}, "tau must be finite"),
            ({"aug": {"jitter_sigma": " inf"}}, "jitter_sigma must be finite"),
            ({"encoder": {"channels": 2, "steps": 8, "dropout": float("nan")}}, "dropout must be finite"),
            ({"seed": -1}, "seed must be >= 0"),
            # the switches and seed of configs written before the loss weights switched tasks off
            ({"no_ntp": False}, "^unknown config key 'no_ntp'$"),
            ({"no_cs": True}, "^unknown config key 'no_cs'$"),
            ({"aug": {"rng_seed": 7}}, "^unknown config key 'aug.rng_seed'$"),
            (
                {"encoder": {"channels": 2, "steps": 8, "heads": 2.0}},
                "config section 'encoder': config field 'heads' must be int, got 2.0",
            ),
            ({"weights": {"alpha1": True}}, "config section 'weights': config field 'alpha1' must be float, got True"),
            ({"aug": {"jitter_sigma": float("nan")}}, "config section 'aug': jitter_sigma must be finite"),
        ],
    )
    def test_rejects_unknown_keys_and_mistyped_values(self, change, message):
        snapshot = {**dataclasses.asdict(tiny_cfg()), **change}
        with pytest.raises(ConfigError, match=message):
            train_config_from_dict(snapshot)


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

    def test_accepts_the_standard_fraction_list(self, monkeypatch):
        fractions = [0.01, 0.05, 0.1, 0.2, 0.5, 0.7, 0.9]
        rng = np.random.default_rng(28)
        train = labeled_dataset(rng, m=30)
        test = labeled_dataset(rng, m=10)
        cfg = tiny_cfg()
        params = init_cat_params(cfg.encoder, np.random.default_rng(29))
        seen = []

        def stub(mode):
            def train_and_score(train, *args):
                # the probe gets the subsample's feature rows, the supervised run the subsample
                seen.append((mode, train.shape[0] if mode == "probe" else train.size))
                return Metrics(accuracy=0.5, macro_f1=0.25, per_class_f1=np.zeros(2), confusion=np.zeros((2, 2)))

            return train_and_score

        monkeypatch.setattr(harness, "_probe_features", stub("probe"))
        monkeypatch.setattr(harness, "supervised_baseline", stub("supervised"))
        rows = fewshot_sweep(train, test, params, cfg, fractions, repeats=1)
        modes = ("probe", "supervised")
        assert [(r["fraction"], r["mode"]) for r in rows] == [(f, m) for f in fractions for m in modes]
        assert all(r["acc_mean"] == 0.5 and r["mf1_mean"] == 0.25 and r["acc_std"] == 0.0 for r in rows)
        assert seen == [(m, subsample(train, f, seed=cfg.seed).size) for f in fractions for m in modes]

    def test_features_are_extracted_once_and_rows_match_one_probe_per_cell(self, monkeypatch):
        rng = np.random.default_rng(30)
        train = labeled_dataset(rng, m=30, k=3)
        test = labeled_dataset(rng, m=10, k=3)
        cfg = tiny_cfg(probe_epochs=3)
        params = init_cat_params(cfg.encoder, np.random.default_rng(31))
        fractions, repeats = [0.2, 0.5, 1.0], 2
        head_inputs = []  # the training features of every probe head, in order
        train_head = harness.train_linear_head

        def recorded_train_head(features, labels, *args, **kwargs):
            head_inputs.append((features.tobytes(), labels.tobytes()))
            return train_head(features, labels, *args, **kwargs)

        monkeypatch.setattr(harness, "train_linear_head", recorded_train_head)

        want = []  # the reference: linear_probe on each cell's subsample, extracting it anew
        for fraction in fractions:
            for mode in ("probe", "supervised"):
                scores = []
                for k in range(repeats):
                    run_cfg = dataclasses.replace(cfg, seed=cfg.seed + k)
                    small = subsample(train, fraction, seed=run_cfg.seed)
                    if mode == "probe":
                        metrics = linear_probe(small, test, params, run_cfg)
                    else:
                        metrics = supervised_baseline(small, test, run_cfg)
                    scores.append((metrics.accuracy, metrics.macro_f1))
                acc, mf1 = np.array(scores).T
                want.append(
                    {
                        "fraction": fraction,
                        "mode": mode,
                        "acc_mean": float(np.mean(acc)),
                        "acc_std": float(np.std(acc)),
                        "mf1_mean": float(np.mean(mf1)),
                        "mf1_std": float(np.std(mf1)),
                    }
                )
        want_head_inputs, head_inputs[:] = head_inputs[:], []

        extracted = []
        extract = harness.extract_features

        def counted_extract(encoder, series, *args, **kwargs):
            extracted.append(series.shape[0])
            return extract(encoder, series, *args, **kwargs)

        monkeypatch.setattr(harness, "extract_features", counted_extract)
        assert fewshot_sweep(train, test, params, cfg, fractions, repeats=repeats) == want
        # each probe head trains on bitwise the features extracting its subsample alone gives
        assert head_inputs == want_head_inputs
        # train and test once for the probes, then each supervised run's test split
        assert extracted == [30, 10] + [10] * (len(fractions) * repeats)

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
    feats = extract_features(Encoder(params, cfg.encoder), rng.normal(size=(5, 2, 8)))
    assert feats.shape == (5, 16)
    assert all(t.grad is None for t in params.named().values())


@pytest.mark.parametrize("count, chunk", [(5, 1), (5, 2), (5, 5), (5, 128), (0, 3), (0, 128)])
def test_extract_features_fills_every_row_chunk_by_chunk(count, chunk):
    rng = np.random.default_rng(20)
    cfg = tiny_cfg()
    encoder = Encoder(init_cat_params(cfg.encoder, rng), cfg.encoder)
    series = rng.normal(size=(count, 2, 8))
    feats = extract_features(encoder, series, chunk=chunk)
    assert feats.dtype == np.float64 and feats.shape == (count, encoder.flat_dim)
    for i, row in enumerate(feats):
        np.testing.assert_array_equal(row, extract_features(encoder, series[i : i + 1])[0])


def record_encoder_calls(monkeypatch) -> list[int]:
    """The number of series of every later ``Encoder.encode_batch`` call, in order."""
    sizes = []
    encode_batch = Encoder.encode_batch

    def recorded(self, xs, *args, **kwargs):
        sizes.append(len(xs))
        return encode_batch(self, xs, *args, **kwargs)

    monkeypatch.setattr(Encoder, "encode_batch", recorded)
    return sizes


@pytest.mark.parametrize("chunk", [64, 128, None])
def test_extract_features_encodes_at_most_micro_batch_series_per_call(monkeypatch, chunk):
    rng = np.random.default_rng(22)
    cfg = tiny_cfg(depth=2)
    encoder = Encoder(init_cat_params(cfg.encoder, rng), cfg.encoder)
    series = rng.normal(size=(23, 2, 8))
    one_by_one = np.concatenate([extract_features(encoder, series[i : i + 1], chunk=1) for i in range(23)])
    sizes = record_encoder_calls(monkeypatch)
    feats = extract_features(encoder, series) if chunk is None else extract_features(encoder, series, chunk=chunk)
    assert sizes == [5, 5, 5, 5, 3] and harness.MICRO_BATCH == 5
    assert feats.tobytes() == one_by_one.tobytes()


def test_linear_probe_encodes_at_most_micro_batch_series_per_call(monkeypatch):
    rng = np.random.default_rng(23)
    cfg = tiny_cfg()
    params = init_cat_params(cfg.encoder, rng)
    train, test = labeled_dataset(rng, m=24), labeled_dataset(rng, m=13)
    sizes = record_encoder_calls(monkeypatch)
    linear_probe(train, test, params, cfg)
    assert sizes == [5, 5, 5, 5, 4] + [5, 5, 3]


@pytest.mark.parametrize("chunk", [0, -1, 2.5, True, "4"])
def test_extract_features_rejects_a_chunk_that_is_not_an_integer_of_at_least_one(chunk):
    cfg = tiny_cfg()
    encoder = Encoder(init_cat_params(cfg.encoder, np.random.default_rng(21)), cfg.encoder)
    for count in (0, 3):
        with pytest.raises(ConfigError, match="chunk"):
            extract_features(encoder, np.zeros((count, 2, 8)), chunk=chunk)
