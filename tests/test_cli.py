"""Tests of the command-line entry point, driven through ``main(argv)``.

Every subcommand runs on ``.ts`` files written by ``serialize_ts`` from the
synthetic fixture, with a tiny config (width 8, depth 1, one epoch).
"""

import codecs
import contextlib
import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import chants.cli
from chants import harness
from chants.checkpoint import load_checkpoint, load_encoder, save_checkpoint, save_encoder
from chants.cli import main, read_config_file
from chants.data import make_synthetic_fixture, parse_csv, parse_ts, serialize_ts, znormalize
from chants.errors import CheckpointError, ConfigError
from chants.harness import train_config_from_dict

CHANNELS, STEPS = 3, 12

TINY_CONFIG = """\
# tiny encoder, one epoch
encoder.width = 8
encoder.depth = 1
encoder.heads = 2
encoder.dropout = 0.0
k_ntp = 2
pretrain_lr = 1e-3
pretrain_batch = 8
pretrain_epochs = 1
probe_batch = 8
probe_epochs = 2
"""


def write_fixture(path, m=24, channels=CHANNELS, steps=STEPS, seed=5):
    serialize_ts(make_synthetic_fixture(m=m, channels=channels, steps=steps, seed=seed), path)
    return path


def write_config(path, text=TINY_CONFIG):
    path.write_text(text, encoding="utf-8")
    return path


def tiny_config_with(line):
    """``TINY_CONFIG`` with the key of ``line`` set by ``line``, which replaces any line of that key."""
    key = line.partition("=")[0].strip()
    kept = [old for old in TINY_CONFIG.splitlines() if old.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


def with_first_shape(manifest, shape):
    """``manifest`` with the shape of its first array replaced by ``shape``."""
    first = sorted(manifest["arrays"])[0]
    return {**manifest, "arrays": {**manifest["arrays"], first: shape}}


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """(data file, run directory) of one tiny ``pretrain`` run."""
    root = tmp_path_factory.mktemp("cli")
    data = write_fixture(root / "train.ts")
    run = root / "run"
    assert main(["pretrain", str(write_config(root / "tiny.cfg")), str(data), str(run)]) == 0
    return data, run


class TestSubcommands:
    def test_pretrain_writes_checkpoint_log_and_manifest(self, pretrained):
        _, run = pretrained
        assert (run / "checkpoint.ckpt").exists()
        log = (run / "log.jsonl").read_text().splitlines()
        assert len(log) == 3  # 24 samples in batches of 8, one epoch
        assert {"epoch", "step", "ntp_loss", "cs_loss", "combined"} <= set(json.loads(log[0]))
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "pretrain"
        assert manifest["config"]["encoder"]["width"] == 8

    def test_probe_writes_metrics(self, pretrained, tmp_path, capsys):
        data, run = pretrained
        out = tmp_path / "probe"
        assert main(["probe", str(run / "checkpoint.ckpt"), str(data), str(out), "--seed", "1"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert len(metrics["confusion"]) == 2
        assert (out / "metrics.csv").exists()
        assert "ACC" in capsys.readouterr().out

    def test_fewshot_writes_one_row_per_fraction_and_mode(self, pretrained, tmp_path):
        data, run = pretrained
        out = tmp_path / "fewshot"
        argv = ["fewshot", str(run / "checkpoint.ckpt"), str(data), str(out)]
        argv += ["--fractions", "0.5", "1.0", "--repeats", "1"]
        assert main(argv) == 0
        with open(out / "fewshot.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["fraction"], r["mode"]) for r in rows] == [
            ("0.5", "probe"), ("0.5", "supervised"), ("1.0", "probe"), ("1.0", "supervised"),
        ]

    def test_augment_preview_keeps_the_original_column(self, pretrained, tmp_path):
        data, _ = pretrained
        out_csv = tmp_path / "preview.csv"
        assert main(["augment-preview", str(data), "sync", "3", str(out_csv), "--index", "1"]) == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == CHANNELS * STEPS
        series = make_synthetic_fixture(m=24, channels=CHANNELS, steps=STEPS, seed=5).series[1]
        assert [float(r["original"]) for r in rows] == [float(v) for v in series.ravel()]
        # a synchronous permutation moves whole columns and keeps every value
        assert sorted(float(r["augmented"]) for r in rows) == sorted(float(r["original"]) for r in rows)

    def test_flops_prints_both_estimates(self, capsys):
        assert main(["flops", "128", "9", "512"]) == 0
        out = capsys.readouterr().out
        assert str(2 * 128 * 9 * 512) in out
        assert str((128 * 128 + 9 * 9) * 512) in out


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, pretrained, tmp_path, capsys):
        data, _ = pretrained
        cfg = write_config(tmp_path / "bad.cfg", TINY_CONFIG + "encoder.bogus = 1\n")
        assert main(["pretrain", str(cfg), str(data), str(tmp_path / "out")]) == 2
        assert "encoder.bogus" in capsys.readouterr().err

    def test_unparsable_value_exits_2(self, pretrained, tmp_path, capsys):
        data, _ = pretrained
        cfg = write_config(tmp_path / "bad.cfg", tiny_config_with("k_ntp = many"))
        assert main(["pretrain", str(cfg), str(data), str(tmp_path / "out")]) == 2
        assert "k_ntp" in capsys.readouterr().err

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "tiny.cfg")
        assert main(["pretrain", str(cfg), str(tmp_path / "missing.ts"), str(tmp_path / "out")]) == 3
        assert "missing.ts" in capsys.readouterr().err

    def test_bad_magic_checkpoint_exits_4(self, pretrained, tmp_path, capsys):
        data, _ = pretrained
        ckpt = tmp_path / "bogus.ckpt"
        ckpt.write_bytes(b"not a checkpoint at all")
        assert main(["probe", str(ckpt), str(data), str(tmp_path / "out")]) == 4
        assert "bad magic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: with_first_shape(m, [-2, -1]),
            lambda m: with_first_shape(m, [-1, 2]),
            lambda m: with_first_shape(m, "xy"),
            lambda m: with_first_shape(m, [2.0, 3]),
            lambda m: {**m, "arrays": [1]},
            lambda m: [m],
            lambda m: {**m, "config": {**m["config"], "width": 8.0}},
            lambda m: {**m, "config": {**m["config"], "depth": -1}},
        ],
        ids=[
            "negative-shape",
            "negative-leading-dim",
            "string-shape",
            "float-dim",
            "arrays-list",
            "manifest-list",
            "float-width",
            "negative-depth",
        ],
    )
    def test_corrupt_manifest_exits_4(self, pretrained, tmp_path, capsys, edit):
        data, run = pretrained
        raw = (run / "checkpoint.ckpt").read_bytes()
        size = int.from_bytes(raw[8:16], "little")
        blob = json.dumps(edit(json.loads(raw[16 : 16 + size]))).encode()
        ckpt = tmp_path / "corrupt.ckpt"
        ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + size :])
        with pytest.raises(CheckpointError):
            load_encoder(ckpt)
        assert main(["probe", str(ckpt), str(data), str(tmp_path / "out")]) == 4
        assert "corrupt.ckpt" in capsys.readouterr().err

    def test_checkpoint_shape_differing_from_the_data_exits_4(self, pretrained, tmp_path, capsys):
        _, run = pretrained
        other = write_fixture(tmp_path / "wide.ts", channels=CHANNELS + 1)
        assert main(["probe", str(run / "checkpoint.ckpt"), str(other), str(tmp_path / "out")]) == 4
        assert "(channels, steps)" in capsys.readouterr().err


class TestConfigFile:
    def test_one_key_of_every_field_type(self, tmp_path):
        path = write_config(tmp_path / "all.cfg", """\
encoder.channels = 3
encoder.steps = 12
encoder.variant = tat
encoder.dropout = 0.25
k_ntp = 7
pretrain_lr = 2.5e-4
use_nvp = true
reverse_neg = False
aug.segment_count_range = 2, 6
aug.interval_count_range = 3 4
""")
        cfg = train_config_from_dict(read_config_file(path))
        assert (cfg.encoder.variant, cfg.encoder.dropout, cfg.encoder.width) == ("tat", 0.25, 512)
        assert cfg.k_ntp == 7 and type(cfg.k_ntp) is int
        assert cfg.pretrain_lr == 2.5e-4
        assert cfg.use_nvp is True and cfg.reverse_neg is False
        assert (cfg.aug.segment_count_range, cfg.aug.interval_count_range) == ((2, 6), (3, 4))

    def test_a_key_set_twice_exits_2_naming_both_lines(self, pretrained, tmp_path, capsys):
        data, _ = pretrained
        out = tmp_path / "out"
        path = write_config(tmp_path / "twice.cfg", "k_ntp = 3\n# a comment\nencoder.width = 8\nk_ntp = 4\n")
        with pytest.raises(ConfigError, match="'k_ntp' is set on line 1 and again on line 4"):
            read_config_file(path)
        assert main(["pretrain", str(path), str(data), str(out)]) == 2
        assert "'k_ntp' is set on line 1 and again on line 4" in capsys.readouterr().err
        assert not out.exists()

    def test_config_dims_must_match_the_data(self, pretrained, tmp_path, capsys):
        data, _ = pretrained
        cfg = write_config(tmp_path / "dims.cfg", TINY_CONFIG + "encoder.channels = 5\n")
        assert main(["pretrain", str(cfg), str(data), str(tmp_path / "out")]) == 2
        assert "(channels, steps)" in capsys.readouterr().err

    @pytest.mark.parametrize("first", ["# a comment", "pretrain_epochs = 1"])
    def test_a_utf8_byte_order_mark_is_skipped(self, tmp_path, first):
        text = f"{first}\nencoder.channels = 3\nencoder.steps = 12\nencoder.width = 8\n"
        plain = write_config(tmp_path / "plain.cfg", text)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert train_config_from_dict(read_config_file(bom)) == train_config_from_dict(read_config_file(plain))


def test_a_run_from_files_with_a_byte_order_mark_matches_the_plain_run(pretrained, tmp_path):
    data, run = pretrained
    config = tmp_path / "tiny.cfg"
    config.write_bytes(codecs.BOM_UTF8 + TINY_CONFIG.encode("utf-8"))
    bom_data = tmp_path / data.name
    bom_data.write_bytes(codecs.BOM_UTF8 + data.read_bytes())
    out = tmp_path / "run"
    assert main(["pretrain", str(config), str(bom_data), str(out)]) == 0
    for name in ("checkpoint.ckpt", "log.jsonl"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name
    # the manifest hashes the series the run trained on: the normalized ones
    trained_on, _ = znormalize(parse_ts(data))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["series_sha256"] == hashlib.sha256(trained_on.series).hexdigest()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_run_that_diverges_exits_2_with_one_error_line_leaving_its_manifest_and_log(pretrained, tmp_path, capsys):
    data, _ = pretrained
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "diverges.cfg", tiny_config_with("pretrain_lr = 1e300"))
    assert main(["pretrain", str(cfg), str(data), str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: non-finite NTP loss nan on rows 0 to 4 of the batch"]
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]["pretrain_lr"] == 1e300
    assert len((out / "log.jsonl").read_text(encoding="utf-8").splitlines()) == 1  # the first step's update
    assert not list(out.glob("*.ckpt"))


@pytest.mark.parametrize("layout, text", [("wide", "a\nb\na\nb\n"), ("blocked", "a\na\nb\nb\n")], ids=["wide", "blocked"])
@pytest.mark.parametrize("command", ["pretrain", "augment-preview"])
def test_a_csv_whose_samples_hold_no_values_exits_3_with_nothing_written(tmp_path, capsys, command, layout, text):
    data = tmp_path / "labels.csv"
    data.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "pretrain": ["pretrain", str(write_config(tmp_path / "tiny.cfg")), str(data), str(out)],
        "augment-preview": ["augment-preview", str(data), "interval", "0", str(out / "preview.csv")],
    }[command]
    assert main([*argv, "--csv-channels", "2", "--csv-layout", layout, "--csv-labeled"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {data}: line 1: the sample holds no values, only its label"]
    assert not out.exists()


class TestSelfContainedCheckpoint:
    def test_every_checkpoint_carries_the_stats_and_probe_applies_them(self, pretrained, tmp_path, monkeypatch):
        data, run = pretrained
        _, stats = znormalize(parse_ts(data))
        for path in run.glob("*.ckpt"):
            _, arrays = load_checkpoint(path)
            assert arrays["extra.norm.mean"].tobytes() == stats.mean.tobytes()
            assert arrays["extra.norm.std"].tobytes() == stats.std.tobytes()
        applied = spy_on_norm_stats(monkeypatch)
        assert main(["probe", str(run / "checkpoint.ckpt"), str(data), str(tmp_path / "out")]) == 0
        assert [s.mean.tobytes() for s in applied] == [stats.mean.tobytes()] * 2  # train and test split

    def test_unnormalized_run_into_a_reused_dir_leaves_no_stats_behind(self, tmp_path, monkeypatch):
        data = write_fixture(tmp_path / "train.ts")
        cfg, run = write_config(tmp_path / "tiny.cfg"), tmp_path / "run"
        assert main(["pretrain", str(cfg), str(data), str(run)]) == 0
        assert main(["pretrain", str(cfg), str(data), str(run), "--no-normalize"]) == 0
        _, arrays = load_checkpoint(run / "checkpoint.ckpt")
        assert not [name for name in arrays if name.startswith("extra.norm.")]
        applied = spy_on_norm_stats(monkeypatch)
        assert main(["probe", str(run / "checkpoint.ckpt"), str(data), str(tmp_path / "out")]) == 0
        assert applied == []

    def test_stats_of_the_wrong_length_exit_4(self, pretrained, tmp_path, capsys):
        data, run = pretrained
        params, config, manifest, extra = load_encoder(run / "checkpoint.ckpt")
        extra["norm.mean"] = np.zeros(CHANNELS + 1)
        bad = tmp_path / "bad.ckpt"
        save_encoder(bad, params, config, seed=0, step=0, extra=extra, meta=manifest["meta"])
        assert main(["probe", str(bad), str(data), str(tmp_path / "out")]) == 4
        assert "norm.mean" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [("norm.mean", np.nan), ("norm.std", np.inf), ("norm.std", -np.inf)])
    def test_non_finite_stats_exit_4_with_nothing_written(self, pretrained, tmp_path, capsys, name, value):
        data, run = pretrained
        params, config, manifest, extra = load_encoder(run / "checkpoint.ckpt")
        extra[name] = extra[name].copy()
        extra[name][1] = value
        bad = tmp_path / "bad.ckpt"
        save_encoder(bad, params, config, seed=0, step=0, extra=extra, meta=manifest["meta"])
        out = tmp_path / "out"
        assert main(["probe", str(bad), str(data), str(out)]) == 4
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_a_training_config_exits_4(self, pretrained, tmp_path, capsys):
        data, run = pretrained
        params, config, _, _ = load_encoder(run / "checkpoint.ckpt")
        bare = tmp_path / "bare.ckpt"
        save_encoder(bare, params, config, seed=0, step=0)
        assert main(["probe", str(bare), str(data), str(tmp_path / "out")]) == 4
        assert str(bare) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["no_ntp", "no_cs", "aug.rng_seed"])
    def test_checkpoint_with_a_legacy_key_exits_4_with_nothing_written(self, pretrained, tmp_path, capsys, key):
        data, run = pretrained
        params, config, manifest, extra = load_encoder(run / "checkpoint.ckpt")
        snapshot = manifest["meta"]["train_config"]
        section, _, field = key.rpartition(".")
        (snapshot[section] if section else snapshot)[field] = False
        old = tmp_path / "old.ckpt"
        save_encoder(old, params, config, seed=0, step=0, extra=extra, meta={"train_config": snapshot})
        out = tmp_path / "out"
        assert main(["probe", str(old), str(data), str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: {old}: bad training config: unknown config key '{key}'"
        ]
        assert not out.exists()


def spy_on_norm_stats(monkeypatch):
    """Record every NormStats the CLI applies to a split."""
    applied = []
    original = chants.cli.apply_norm_stats

    def apply_norm_stats(ds, stats):
        applied.append(stats)
        return original(ds, stats)

    monkeypatch.setattr(chants.cli, "apply_norm_stats", apply_norm_stats)
    return applied


def test_fewshot_rejects_zero_repeats_before_loading_anything(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = [
        "fewshot", str(tmp_path / "missing.ckpt"), str(tmp_path / "missing.ts"), str(out_dir),
        "--fractions", "0.5", "--repeats", "0",
    ]
    assert main(argv) == 2
    assert "--repeats" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan"])
def test_probe_rejects_a_fraction_outside_zero_one_before_loading_anything(tmp_path, capsys, fraction):
    out_dir = tmp_path / "out"
    argv = [
        "probe", str(tmp_path / "missing.ckpt"), str(tmp_path / "missing.ts"), str(out_dir),
        "--fraction", fraction,
    ]
    assert main(argv) == 2
    assert "outside (0, 1]" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("fraction", ["0", "1.5", "nan"])
def test_fewshot_rejects_a_fraction_outside_zero_one_before_loading_anything(tmp_path, capsys, fraction):
    out_dir = tmp_path / "out"
    argv = [
        "fewshot", str(tmp_path / "missing.ckpt"), str(tmp_path / "missing.ts"), str(out_dir),
        "--fractions", "0.5", fraction,
    ]
    assert main(argv) == 2
    assert "outside (0, 1]" in capsys.readouterr().err
    assert not out_dir.exists()


def write_unlabeled(path):
    ds = make_synthetic_fixture(m=12, channels=CHANNELS, steps=STEPS, seed=6)
    serialize_ts(dataclasses.replace(ds, labels=None, class_count=0, label_names=None), path)
    return path


@pytest.mark.parametrize(
    "command, unlabeled_test, flags",
    [
        ("probe", False, []),
        ("probe", True, []),
        ("probe", False, ["--fraction", "0.5"]),
        ("fewshot", False, ["--fractions", "0.5", "--repeats", "1"]),
        ("fewshot", True, ["--fractions", "0.5", "--repeats", "1"]),
    ],
)
def test_an_unlabeled_split_exits_3_with_nothing_written(pretrained, tmp_path, capsys, command, unlabeled_test, flags):
    data, run = pretrained
    unlabeled = str(write_unlabeled(tmp_path / "unlabeled.ts"))
    out_dir = tmp_path / "out"
    argv = [command, str(run / "checkpoint.ckpt")]
    argv += [str(data), str(out_dir), "--test", unlabeled] if unlabeled_test else [unlabeled, str(out_dir)]
    assert main(argv + flags) == 3
    assert "labeled" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["pretrain", "probe", "fewshot", "augment-preview"])
def test_a_negative_seed_exits_2_with_nothing_written(pretrained, tmp_path, capsys, command):
    data, run = pretrained
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "neg.cfg", TINY_CONFIG + "seed = -1\n")
    argv = {
        "pretrain": ["pretrain", str(cfg), str(data), str(out)],
        "probe": ["probe", str(run / "checkpoint.ckpt"), str(data), str(out), "--seed", "-1"],
        "fewshot": ["fewshot", str(run / "checkpoint.ckpt"), str(data), str(out), "--fractions", "0.5", "--seed", "-2"],
        "augment-preview": ["augment-preview", str(data), "sync", "-1", str(out)],
    }[command]
    assert main(argv) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "pretrain_lr = nan", "weights.tau = nan", "weights.alpha1 = nan",
        "aug.jitter_sigma = inf", "probe_lr = inf", "supervised_lr = -inf",
    ],
)
def test_a_non_finite_config_float_exits_2_before_any_file_is_written(pretrained, tmp_path, capsys, line):
    data, _ = pretrained
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "bad.cfg", tiny_config_with(line))
    assert main(["pretrain", str(cfg), str(data), str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("encoder.width = 0", "width must be >= 1"),
        ("encoder.heads = 0", "heads must be >= 1"),
        ("encoder.heads = -1", "heads must be >= 1"),
        ("encoder.channels = 0", "channels must be >= 1, got 0"),
        ("encoder.steps = 1", "steps must be >= 2, got 1"),
        ("encoder.dropout = 1.0", "dropout must lie in [0, 1), got 1.0"),
        ("probe_lr = 0", "probe_lr must be > 0"),
        ("save_every = 0", "save_every must be >= 1"),
    ],
)
def test_a_config_value_out_of_range_exits_2_with_nothing_written(pretrained, tmp_path, capsys, line, message):
    data, _ = pretrained
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "bad.cfg", tiny_config_with(line))
    assert main(["pretrain", str(cfg), str(data), str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "steps, lines, message",
    [
        (STEPS, ["encoder.variant = tat"], "tat has a row per step"),
        (STEPS, ["encoder.variant = tat", "use_nvp = true"], "tat has a row per step"),
        (2, [], "at least 3 steps"),
        (2, ["use_nvp = true"], "at least 3 steps"),
    ],
)
def test_truncation_pretraining_it_cannot_run_exits_2_with_nothing_written(tmp_path, capsys, steps, lines, message):
    # next-trend and next-value prediction label each channel of a copy cut
    # at a step in [1, T-1]: tat has one row per step, and T = 2 leaves one cut
    data = write_fixture(tmp_path / "train.ts", steps=steps)
    config = TINY_CONFIG
    for line in lines:
        config += line + "\n"
    out = tmp_path / "out"
    assert main(["pretrain", str(write_config(tmp_path / "run.cfg", config)), str(data), str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    # contextual similarity alone still pretrains both
    out = tmp_path / "cs_only"
    argv = ["pretrain", str(write_config(tmp_path / "cs.cfg", config + "weights.alpha1 = 0\n")), str(data), str(out)]
    assert main(argv) == 0
    assert (out / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_stale_encoder_block_in_the_training_config_has_no_effect(pretrained, tmp_path, command):
    # a checkpoint holds one encoder config, the one its parameters were
    # saved under; the copy older checkpoints kept in meta.train_config,
    # here one the parameters do not fit, is not read
    data, run = pretrained
    params, config, manifest, extra = load_encoder(run / "checkpoint.ckpt")
    snapshot = manifest["meta"]["train_config"]
    assert "encoder" not in snapshot
    stale = dataclasses.asdict(dataclasses.replace(config, width=16, heads=1, variant="channel_self"))
    outputs = []
    for name, meta_config in (("current", snapshot), ("stale", {**snapshot, "encoder": stale})):
        path = tmp_path / f"{name}.ckpt"
        save_encoder(path, params, config, seed=0, step=0, extra=extra, meta={"train_config": meta_config})
        out = tmp_path / name
        argv = [command, str(path), str(data), str(out)]
        if command == "fewshot":
            argv += ["--fractions", "0.5", "--repeats", "1"]
        assert main(argv) == 0
        outputs.append((out / ("metrics.json" if command == "probe" else "fewshot.csv")).read_bytes())
    assert outputs[1] == outputs[0]


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_holdout_that_leaves_no_training_rows_exits_3_before_any_extraction(
    pretrained, tmp_path, capsys, monkeypatch, command
):
    # each of the two classes holds one sample, which the 30% holdout gives
    # to the test split
    _, run = pretrained
    data = write_fixture(tmp_path / "two.ts", m=2)
    extracted = []
    monkeypatch.setattr(harness, "extract_features", lambda *args, **kwargs: extracted.append(args))
    out = tmp_path / "out"
    argv = [command, str(run / "checkpoint.ckpt"), str(data), str(out)]
    if command == "fewshot":
        argv += ["--fractions", "0.5", "--repeats", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"error: {data}: the 30% holdout leaves no training rows" in err and "--test" in err
    assert extracted == []
    assert not out.exists()


def write_with_one_value(path, value, sample=5, channel=1, step=7):
    """The CLI fixture as a ``.ts`` file with one series value replaced by ``value``."""
    ds = make_synthetic_fixture(m=24, channels=CHANNELS, steps=STEPS, seed=5)
    ds.series[sample, channel, step] = value
    serialize_ts(ds, path)
    return path


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("command", ["pretrain", "probe", "fewshot"])
def test_a_non_finite_series_value_exits_3_naming_its_sample_with_nothing_written(
    pretrained, tmp_path, capsys, command, value
):
    _, run = pretrained
    bad = str(write_with_one_value(tmp_path / "bad.ts", value))
    out = tmp_path / "out"
    argv = {
        "pretrain": ["pretrain", str(write_config(tmp_path / "tiny.cfg")), bad, str(out)],
        "probe": ["probe", str(run / "checkpoint.ckpt"), bad, str(out)],
        "fewshot": ["fewshot", str(run / "checkpoint.ckpt"), bad, str(out), "--fractions", "0.5", "--repeats", "1"],
    }[command]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"sample 5 has the non-finite value {value}" in err
    assert "channel 1, step 7" in err
    assert not out.exists()


def out_dir_argv(command, config, out):
    """Arguments of ``command`` whose data and checkpoint paths do not exist."""
    missing = str(out.parent / "missing")
    return {
        "pretrain": ["pretrain", str(config), missing + ".ts", str(out)],
        "probe": ["probe", missing + ".ckpt", missing + ".ts", str(out)],
        "fewshot": ["fewshot", missing + ".ckpt", missing + ".ts", str(out), "--fractions", "0.5"],
    }[command]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["pretrain", "probe", "fewshot"])
def test_an_out_dir_that_cannot_be_a_directory_exits_2_before_anything_is_loaded(tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if below else taken
    # the data and checkpoint do not exist: loading either would exit 3 or 4
    assert main(out_dir_argv(command, write_config(tmp_path / "tiny.cfg"), out)) == 2
    err = capsys.readouterr().err
    assert f"error: output directory {out}: {taken} is not a directory" in err
    assert "Traceback" not in err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "tiny.cfg"]


@pytest.mark.parametrize(
    "line, message",
    [
        (None, "no such config file: {path}"),
        ("k_ntp 3", "{path}: line {last}: expected 'key = value'"),
        ("model.width = 8", "unknown config key 'model.width'"),
        # the switches and seed of configs written before the loss weights switched tasks off
        ("no_cs = true", "unknown config key 'no_cs'"),
        ("weights.alpha1 = 3\nno_ntp = true", "unknown config key 'no_ntp'"),
        ("aug.rng_seed = 0", "unknown config key 'aug.rng_seed'"),
    ],
    ids=["missing", "no-equals-sign", "unknown-section", "no_cs", "no_ntp", "aug.rng_seed"],
)
def test_a_config_file_it_refuses_exits_2_with_nothing_written(pretrained, tmp_path, capsys, line, message):
    data, _ = pretrained
    path = tmp_path / "run.cfg"
    if line is not None:
        write_config(path, TINY_CONFIG + line + "\n")
    out = tmp_path / "out"
    assert main(["pretrain", str(path), str(data), str(out)]) == 2
    last = len(TINY_CONFIG.splitlines()) + 1
    assert capsys.readouterr().err.splitlines() == ["error: " + message.format(path=path, last=last)]
    assert not out.exists()


def test_a_config_path_that_is_a_directory_exits_2_before_anything_is_loaded(tmp_path, capsys):
    config = tmp_path / "config"
    config.mkdir()
    out = tmp_path / "out"
    assert main(out_dir_argv("pretrain", config, out)) == 2
    err = capsys.readouterr().err
    assert f"error: config path is not a file: {config}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_data_path_that_is_a_directory_exits_3(tmp_path, capsys):
    data = tmp_path / "data.ts"
    data.mkdir()
    out = tmp_path / "out"
    assert main(["pretrain", str(write_config(tmp_path / "tiny.cfg")), str(data), str(out)]) == 3
    err = capsys.readouterr().err
    assert f"error: dataset path is not a file: {data}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_an_augment_preview_output_that_is_a_directory_exits_2_before_loading(tmp_path, capsys):
    out = tmp_path / "preview"
    out.mkdir()
    assert main(["augment-preview", str(tmp_path / "missing.ts"), "sync", "0", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output file is a directory: {out}" in err
    assert list(out.iterdir()) == []


def test_an_augment_preview_output_below_a_file_exits_2_before_loading(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "preview.csv"
    # the data file does not exist: loading it would exit 3
    assert main(["augment-preview", str(tmp_path / "missing.ts"), "sync", "0", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: output directory {taken}: {taken} is not a directory" in err
    assert "Traceback" not in err
    assert taken.read_text() == "kept\n"


def test_augment_preview_creates_a_missing_output_directory(tmp_path, capsys):
    data = write_fixture(tmp_path / "train.ts")
    out = tmp_path / "new" / "dir" / "preview.csv"
    assert main(["augment-preview", str(data), "sync", "0", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["channel", "t", "original", "augmented"]
    assert len(rows) == 1 + CHANNELS * STEPS


def with_a_byte_not_utf8(path, line):
    """``path`` with the byte 0xff put at the end of its ``line``-th line (1-based)."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    return path


def write_wide_csv(path, names=("0", "1"), keep=None):
    """The CLI fixture as a labeled wide-layout CSV file: sample i is of class
    ``names[i % len(names)]``, and only classes in ``keep`` are written when given."""
    ds = make_synthetic_fixture(m=24, channels=CHANNELS, steps=STEPS, seed=5)
    labeled = [(s, names[i % len(names)]) for i, s in enumerate(ds.series)]
    rows = [",".join([*map(repr, s.ravel().tolist()), y]) for s, y in labeled if keep is None or y in keep]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind, code", [("config", 2), ("ts", 3), ("csv", 3)])
def test_a_file_that_is_not_utf8_exits_naming_it_with_nothing_written(tmp_path, capsys, kind, code):
    config = write_config(tmp_path / "tiny.cfg")
    data = write_wide_csv(tmp_path / "train.csv") if kind == "csv" else write_fixture(tmp_path / "train.ts")
    bad = with_a_byte_not_utf8(config if kind == "config" else data, line=3 if kind == "config" else 12)
    out = tmp_path / "out"
    flags = ["--csv-channels", str(CHANNELS), "--csv-labeled"] if kind == "csv" else []
    assert main(["pretrain", str(config), str(data), str(out), *flags]) == code
    err = capsys.readouterr().err
    assert f"error: {bad}: not UTF-8 text: invalid start byte 0xff" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_test_split_of_another_shape_exits_4_naming_it_before_normalization(
    pretrained, tmp_path, capsys, monkeypatch, command
):
    data, run = pretrained
    applied = spy_on_norm_stats(monkeypatch)
    other = write_fixture(tmp_path / "wide.ts", channels=CHANNELS + 1)
    out = tmp_path / "out"
    argv = [command, str(run / "checkpoint.ckpt"), str(data), str(out), "--test", str(other)]
    if command == "fewshot":
        argv += ["--fractions", "0.5", "--repeats", "1"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"but dataset {other} has ({CHANNELS + 1}, {STEPS})" in err
    assert applied == []
    assert not out.exists()


@pytest.mark.parametrize("below_a_file", [False, True], ids=["directory", "below-a-file"])
@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_checkpoint_path_that_is_a_directory_exits_4_with_nothing_written(
    pretrained, tmp_path, capsys, command, below_a_file
):
    data, run = pretrained
    path, reason = (data / "checkpoint.ckpt", "Not a directory") if below_a_file else (run, "Is a directory")
    out = tmp_path / "out"
    argv = [command, str(path), str(data), str(out)]
    if command == "fewshot":
        argv += ["--fractions", "0.5", "--repeats", "1"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"error: cannot read checkpoint {path}: {reason}" in err
    assert "Traceback" not in err
    assert not out.exists()


def written_output(command, run, data, test, out, *flags):
    """What ``command`` writes for the checkpoint of ``run`` trained on ``data`` and scored on ``test``."""
    argv = [command, str(run / "checkpoint.ckpt"), str(data), str(out), "--test", str(test), *flags]
    if command == "fewshot":
        argv += ["--fractions", "0.5", "1.0", "--repeats", "1"]
    assert main(argv) == 0
    return (out / ("metrics.json" if command == "probe" else "fewshot.csv")).read_text()


def write_up_down(path, header):
    """60 fixture samples, class 0 named ``up`` and class 1 ``down``, under ``@classLabel true *header``."""
    ds = make_synthetic_fixture(m=60, channels=CHANNELS, steps=STEPS, seed=5)
    labels = [header.index(("up", "down")[k]) for k in ds.labels]
    serialize_ts(dataclasses.replace(ds, labels=labels, label_names=list(header)), path)
    return path


@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_test_labels_are_matched_to_the_training_labels_by_name(pretrained, tmp_path, command):
    _, run = pretrained
    train = write_up_down(tmp_path / "train.ts", ["up", "down"])
    swapped = write_up_down(tmp_path / "test.ts", ["down", "up"])
    same_file = written_output(command, run, train, train, tmp_path / "same")
    assert written_output(command, run, train, swapped, tmp_path / "swapped") == same_file


@pytest.mark.parametrize("keep", [("c",), ("c", "z")], ids=["subset", "unseen-class"])
@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_csv_test_split_of_some_classes_keeps_their_training_indices(pretrained, tmp_path, command, keep):
    _, run = pretrained
    flags = ["--csv-channels", str(CHANNELS), "--csv-labeled"]
    train = write_wide_csv(tmp_path / "train.csv", names=("a", "b", "c"))
    test = write_wide_csv(tmp_path / "test.csv", names=("z", "b", "c"), keep=keep)
    # the same samples as a .ts file whose header lists the training classes
    # in their order, then z, so that its labels are right by index alone
    ds = parse_csv(test, CHANNELS, labeled=True)
    names = ["a", "b", "c", *(["z"] if "z" in keep else [])]
    labels = [names.index(ds.label_names[k]) for k in ds.labels]
    indexed = tmp_path / "indexed.ts"
    serialize_ts(dataclasses.replace(ds, labels=labels, class_count=len(names), label_names=names), indexed)
    # a class that only the test split holds is scored wrong, with a warning
    unseen = "z" in keep
    with pytest.warns(RuntimeWarning, match="appear in the test split") if unseen else contextlib.nullcontext():
        by_name = written_output(command, run, train, test, tmp_path / "by-name", *flags)
        by_index = written_output(command, run, train, indexed, tmp_path / "by-index", *flags)
    assert by_name == by_index
    if command == "probe":
        # 8 samples each of c (class 2) and, when kept, z (class 3)
        assert np.array(json.loads(by_name)["confusion"]).sum(axis=1).tolist() == [0, 0, 8, 8][: len(names)]


@pytest.mark.parametrize(
    "meta",
    ["x", {"train_config": [1, 2]}, {"train_config": "abc"}],
    ids=["meta-string", "config-list", "config-string"],
)
@pytest.mark.parametrize("command", ["probe", "fewshot"])
def test_a_malformed_meta_block_exits_4_naming_the_checkpoint_with_nothing_written(
    pretrained, tmp_path, capsys, command, meta
):
    data, run = pretrained
    params, config, _, extra = load_encoder(run / "checkpoint.ckpt")
    bad = tmp_path / "meta.ckpt"
    save_encoder(bad, params, config, seed=0, step=0, extra=extra, meta=meta)
    out = tmp_path / "out"
    argv = [command, str(bad), str(data), str(out)]
    if command == "fewshot":
        argv += ["--fractions", "0.5", "--repeats", "1"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"error: {bad}: no training config object (meta.train_config)" in err
    assert "Traceback" not in err
    assert not out.exists()


def with_manifest_blob(raw, blob):
    """The checkpoint bytes ``raw`` with the manifest replaced by the bytes ``blob``."""
    size = int.from_bytes(raw[8:16], "little")
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + size :]


def with_k_ntp(manifest, value):
    meta = manifest["meta"]
    return {**manifest, "meta": {**meta, "train_config": {**meta["train_config"], "k_ntp": value}}}


W_CHAN = "params.embed.w_chan"
# each fault rewrites the checkpoint's bytes, or its (manifest, arrays) entries
BYTE_FAULTS = {
    "undecodable-manifest": (lambda raw: with_manifest_blob(raw, b"{not json"), "corrupt manifest"),
    "truncated-array": (lambda raw: raw[:-8], "truncated array"),
    "trailing-bytes": (lambda raw: raw + bytes(8), "8 trailing bytes"),
}
ENTRY_FAULTS = {
    "wrong-kind": (lambda m, a: ({**m, "kind": "heads"}, a), "not an encoder checkpoint"),
    "missing-parameter": (
        lambda m, a: (m, {k: v for k, v in a.items() if k != W_CHAN}),
        "missing parameter 'embed.w_chan'",
    ),
    "wrong-shape": (lambda m, a: (m, {**a, W_CHAN: a[W_CHAN].ravel()}), "parameter 'embed.w_chan' has shape"),
    "unknown-array": (lambda m, a: (m, {**a, "params.bogus": np.zeros(1)}), "unrecognized arrays ['params.bogus']"),
    "mistyped-training-config": (
        lambda m, a: (with_k_ntp(m, 2.5), a),
        "bad training config: config field 'k_ntp' must be int, got 2.5",
    ),
}


@pytest.mark.parametrize("fault", [*BYTE_FAULTS, *ENTRY_FAULTS])
def test_a_faulty_checkpoint_exits_4_naming_it_with_nothing_written(pretrained, tmp_path, capsys, fault):
    data, run = pretrained
    good, bad = run / "checkpoint.ckpt", tmp_path / "faulty.ckpt"
    if fault in BYTE_FAULTS:
        change, message = BYTE_FAULTS[fault]
        bad.write_bytes(change(good.read_bytes()))
    else:
        change, message = ENTRY_FAULTS[fault]
        save_checkpoint(bad, *change(*load_checkpoint(good)))
    out = tmp_path / "out"
    assert main(["probe", str(bad), str(data), str(out)]) == 4
    err = capsys.readouterr().err
    assert f"error: {bad}: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()
