"""Unit tests for dataset parsing, normalization, batching, and the fixture."""

import codecs
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chants.data import (
    MtsDataset,
    batches,
    check_fraction,
    load_dataset,
    make_synthetic_fixture,
    parse_csv,
    parse_ts,
    serialize_ts,
    subsample,
    subsample_rows,
    train_test_split,
    znormalize,
)
from chants.errors import ConfigError, DataError

TS_FIXTURE = """\
@problemName toy
@univariate false
@dimensions 2
@seriesLength 3
@classLabel true a b
@data
1.0,2.0,3.0:4.0,5.0,6.0:a
0.5,1.5,2.5:3.5,4.5,5.5:b
"""


def random_dataset(rng, m=6, channels=3, steps=5, labeled=True):
    labels = rng.integers(0, 2, size=m) if labeled else None
    return MtsDataset(
        series=rng.normal(size=(m, channels, steps)),
        labels=labels,
        class_count=2 if labeled else 0,
        name="rand",
        label_names=["x", "y"] if labeled else None,
    )


class TestParseTs:
    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "toy.ts"
        path.write_text(TS_FIXTURE)
        ds = parse_ts(path)
        assert ds.size == 2 and ds.channels == 2 and ds.steps == 3
        assert ds.name == "toy"
        np.testing.assert_array_equal(ds.series[0, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.series[1, 1], [3.5, 4.5, 5.5])
        np.testing.assert_array_equal(ds.labels, [0, 1])
        assert ds.label_names == ["a", "b"]

    def test_series_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.ts"
        bad = TS_FIXTURE.replace("0.5,1.5,2.5", "0.5,1.5")
        path.write_text(bad.replace("@seriesLength 3", "@seriesLength 3"))
        with pytest.raises(DataError, match="line 8"):
            parse_ts(path)

    def test_unknown_class_label_rejected(self, tmp_path):
        path = tmp_path / "bad.ts"
        path.write_text(TS_FIXTURE.replace(":b\n", ":zzz\n"))
        with pytest.raises(DataError, match="zzz"):
            parse_ts(path)

    def test_ragged_channels_rejected(self, tmp_path):
        path = tmp_path / "bad.ts"
        path.write_text(TS_FIXTURE.replace("4.0,5.0,6.0", "4.0,5.0"))
        with pytest.raises(DataError, match="ragged"):
            parse_ts(path)

    def test_class_names_are_kept_only_under_class_label_true(self, tmp_path):
        path = tmp_path / "unlabeled.ts"
        path.write_text("@classLabel false a b\n@data\n1,2,3:4,5,6\n")
        ds = parse_ts(path)
        assert (ds.labels, ds.class_count, ds.label_names) == (None, 0, None)

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
    def test_class_names_that_do_not_number_the_classes_are_refused(self, names):
        ds = random_dataset(np.random.default_rng(4))
        with pytest.raises(DataError, match=f"^{len(names)} class names for 2 classes$"):
            MtsDataset(ds.series, ds.labels, 2, "n", label_names=names)

    def test_missing_data_section(self, tmp_path):
        path = tmp_path / "bad.ts"
        path.write_text("@problemName nope\n@classLabel false\n")
        with pytest.raises(DataError, match="@data"):
            parse_ts(path)

    def test_round_trip_is_value_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        for i, labeled in enumerate([True, False, True]):
            ds = random_dataset(rng, m=4 + i, channels=2 + i, labeled=labeled)
            path = tmp_path / f"rt{i}.ts"
            serialize_ts(ds, path)
            back = parse_ts(path)
            np.testing.assert_array_equal(back.series, ds.series)
            if labeled:
                np.testing.assert_array_equal(back.labels, ds.labels)
            else:
                assert back.labels is None

    def test_record_count_preserved(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, m=17)
        path = tmp_path / "m.ts"
        serialize_ts(ds, path)
        assert parse_ts(path).size == 17

    @pytest.mark.parametrize("names", [["a b", "c"], ["x:y", "c"], ["", "c"], ["a\tb", "c"], ["a", "a"]])
    def test_class_names_that_cannot_round_trip_are_refused_before_writing(self, tmp_path, names):
        ds = random_dataset(np.random.default_rng(3))
        path = tmp_path / "names.ts"
        path.write_text("kept")
        with pytest.raises(DataError, match=re.escape(f"class label {names[0]!r} cannot be written")):
            serialize_ts(MtsDataset(ds.series, ds.labels, 2, "n", label_names=names), path)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("name", ["", " ", "a\nb", "a\rb", "ab\n", " ab", "ab\t"])
    def test_dataset_names_that_cannot_round_trip_are_refused_before_writing(self, tmp_path, name):
        ds = random_dataset(np.random.default_rng(3))
        path = tmp_path / "named.ts"
        path.write_text("kept")
        with pytest.raises(DataError, match=re.escape(f"dataset name {name!r} cannot be written")):
            serialize_ts(MtsDataset(ds.series, ds.labels, 2, name), path)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("name", ["x y", "a\tb", "#x", "x:y", "@data"])
    def test_accepted_dataset_names_read_back_unchanged(self, tmp_path, name):
        ds = random_dataset(np.random.default_rng(3))
        path = tmp_path / "file.ts"
        serialize_ts(MtsDataset(ds.series, ds.labels, 2, name), path)
        back = parse_ts(path)
        assert back.name == name
        np.testing.assert_array_equal(back.series, ds.series)


TS_HEADER = "@dimensions 2\n@seriesLength 3\n@classLabel true a b\n@data\n"


@pytest.mark.parametrize(
    "name, text, load, message",
    [
        ("bad.ts", "@seriesLength three\n", parse_ts, "{path}: line 1: bad seriesLength 'three'"),
        ("bad.ts", "# dims\n@dimensions two\n", parse_ts, "{path}: line 2: bad dimensions 'two'"),
        ("bad.ts", "\n@classLabel maybe a\n", parse_ts, "{path}: line 2: malformed classLabel line"),
        ("bad.ts", "@classLabel true\n", parse_ts, "{path}: line 1: classLabel true needs label names"),
        ("bad.ts", "@classLabel true a b a\n", parse_ts, "{path}: line 1: class label 'a' is listed twice"),
        ("bad.ts", "@problemName p\n1,2,3\n", parse_ts, "{path}: line 2: expected @-header or @data before records"),
        ("bad.ts", TS_HEADER + "1,2,3:4,5,6:a\n1,2,3\n", parse_ts, "{path}: line 6: record is missing its class label"),
        ("bad.ts", TS_HEADER + "1,2,3:4,5,6:c\n", parse_ts, "{path}: line 5: unknown class label 'c'"),
        ("bad.ts", TS_HEADER + "1,x,3:4,5,6:a\n", parse_ts, "{path}: line 5: non-numeric value"),
        ("bad.ts", TS_HEADER + "1,2,3:4,5:a\n", parse_ts, "{path}: line 5: ragged channel lengths [2, 3]"),
        ("bad.ts", TS_HEADER + "1,2:4,5:b\n", parse_ts, "{path}: line 5: 2 values but header declares seriesLength 3"),
        (
            "bad.ts",
            "@classLabel false\n@data\n1,2:3,4\n\n1,2\n",
            parse_ts,
            "{path}: line 5: record shape (1, 2) differs from first record (2, 2)",
        ),
        ("bad.ts", "@classLabel false\n@data\n\n", parse_ts, "{path}: no records after @data"),
        (
            "bad.ts",
            "@dimensions 3\n@classLabel false\n@data\n1,2:3,4\n",
            parse_ts,
            "{path}: header declares 3 dimensions but records have 2",
        ),
        (
            "bad.ts",
            "@univariate true\n@classLabel false\n@data\n1,2:3,4\n",
            parse_ts,
            "{path}: header declares univariate but records have 2 channels",
        ),
        ("d.csv", "1,2\n", load_dataset, "CSV input needs an explicit channel count"),
        ("d.txt", "1,2\n", load_dataset, "unrecognized dataset extension '.txt' (expected .ts or .csv)"),
        (
            "d.csv",
            "1,2\n",
            lambda path: parse_csv(path, 2, layout="tall"),
            "unknown CSV layout 'tall' (expected 'wide' or 'blocked')",
        ),
        ("d.csv", "1,2\n", lambda path: parse_csv(path, 0), "channels must be >= 1, got 0"),
    ],
    ids=[
        "ts-series-length", "ts-dimensions", "ts-class-label-line", "ts-no-label-names", "ts-repeated-label-name",
        "ts-record-before-data", "ts-missing-label", "ts-unknown-label", "ts-non-numeric", "ts-ragged",
        "ts-length-mismatch", "ts-record-shape", "ts-no-records", "ts-dimensions-mismatch",
        "ts-univariate-mismatch", "csv-without-channels", "unknown-extension", "csv-layout",
        "csv-channels",
    ],
)
def test_each_data_file_error_names_its_cause(tmp_path, name, text, load, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value) == message.format(path=path)


class TestParseCsv:
    def test_wide_layout_with_labels(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1,2,3,4,5,6,a\n7,8,9,10,11,12,b\n")
        ds = parse_csv(path, channels=2, layout="wide", labeled=True)
        assert ds.series.shape == (2, 2, 3)
        np.testing.assert_array_equal(ds.series[1, 0], [7.0, 8.0, 9.0])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_blocked_layout(self, tmp_path):
        path = tmp_path / "blocked.csv"
        path.write_text("1,2,3\n4,5,6\n7,8,9\n10,11,12\n")
        ds = parse_csv(path, channels=2, layout="blocked")
        assert ds.series.shape == (2, 2, 3)
        np.testing.assert_array_equal(ds.series[1, 1], [10.0, 11.0, 12.0])

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,oops,4\n")
        with pytest.raises(DataError, match="non-numeric"):
            parse_csv(path, channels=2)

    def test_indivisible_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4,5\n")
        with pytest.raises(DataError, match="divisible"):
            parse_csv(path, channels=2)

    @pytest.mark.parametrize("text", ["", "\n \n\n"], ids=["empty", "blank"])
    @pytest.mark.parametrize("layout", ["wide", "blocked"])
    def test_a_file_without_rows_is_rejected(self, tmp_path, text, layout):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="holds no rows"):
            parse_csv(path, channels=2, layout=layout)

    @pytest.mark.parametrize(
        "text, layout, labeled, message",
        [
            ("\n\n1,2,3,4\n1,2,oops,4\n", "wide", False, "line 4: non-numeric cell"),
            ("\n\n1,2,3,a\n", "wide", True, "line 3: 3 values not divisible by 2 channels"),
            ("\n1,2,3\n\n4,5\n", "blocked", False, "line 4: 2 cells, but line 2 has 3"),
            ("\n1,2,3,4\n\n\n5,6\n7,8\n", "wide", False, "line 5: 2 cells, but line 2 has 4"),
            ("\n\n1,2,a\n3,4,b\n", "blocked", True, "line 4: label 'b', but line 3 has 'a'"),
            ("1,2\n3,4\n\n5,6\n", "blocked", False, "line 4: the last sample holds 1 of 2 rows"),
        ],
        ids=["bad-cell", "indivisible", "ragged-block", "ragged-samples", "label-disagreement", "short-block"],
    )
    def test_errors_name_the_file_line_after_blank_lines(self, tmp_path, text, layout, labeled, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            parse_csv(path, channels=2, layout=layout, labeled=labeled)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, layout", [("\na\nb\n", "wide"), ("\na\na\n\nb\nb\n", "blocked")], ids=["wide", "blocked"]
    )
    def test_a_sample_that_holds_only_its_label_is_rejected_naming_its_first_line(self, tmp_path, text, layout):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            parse_csv(path, channels=2, layout=layout, labeled=True)
        assert str(info.value) == f"{path}: line 2: the sample holds no values, only its label"

    def test_load_dataset_dispatch(self, tmp_path):
        ts = tmp_path / "d.ts"
        ts.write_text(TS_FIXTURE)
        assert load_dataset(ts).size == 2
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "missing.ts")


@pytest.mark.parametrize(
    "name, text, load",
    [
        ("d.ts", TS_FIXTURE, parse_ts),
        ("d.csv", "1,2,3,4,5,6,a\n7,8,9,10,11,12,b\n", lambda path: parse_csv(path, 2, labeled=True)),
        ("d.csv", "1,2,3\n4,5,6\n", lambda path: parse_csv(path, 2, layout="blocked")),
    ],
    ids=["ts", "csv-wide", "csv-blocked"],
)
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, name, text, load):
    (tmp_path / "plain").mkdir()
    (tmp_path / "bom").mkdir()
    plain, bom = tmp_path / "plain" / name, tmp_path / "bom" / name
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
    want, got = load(plain), load(bom)
    assert got.series.tobytes() == want.series.tobytes()
    assert (got.series.shape, got.name, got.label_names, got.class_count) == (
        want.series.shape, want.name, want.label_names, want.class_count
    )
    assert (got.labels is None and want.labels is None) or got.labels.tobytes() == want.labels.tobytes()


class TestNormalization:
    def test_constant_channel_becomes_zero(self):
        series = np.zeros((4, 2, 5))
        series[:, 0, :] = 7.5
        series[:, 1, :] = np.random.default_rng(3).normal(size=(4, 5))
        ds = MtsDataset(series=series, labels=None, class_count=0, name="c")
        out, stats = znormalize(ds)
        np.testing.assert_array_equal(out.series[:, 0, :], 0.0)

    def test_train_stats_after_normalization(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, m=20, channels=3, steps=16, labeled=False)
        out, _ = znormalize(ds)
        mean = out.series.mean(axis=(0, 2))
        std = out.series.std(axis=(0, 2))
        assert np.abs(mean).max() < 1e-9
        np.testing.assert_allclose(std, 1.0, atol=1e-6)

    def test_test_split_uses_train_stats(self):
        rng = np.random.default_rng(5)
        train = random_dataset(rng, m=30, labeled=False)
        test = random_dataset(rng, m=10, labeled=False)
        _, stats = znormalize(train)
        from chants.data import apply_norm_stats

        normed = apply_norm_stats(test, stats)
        # the test split keeps a nonzero mean under train stats: asymmetric by design
        assert np.abs(normed.series.mean(axis=(0, 2))).max() > 1e-6


class TestSubsample:
    def test_full_fraction_is_identity(self):
        ds = random_dataset(np.random.default_rng(8))
        out = subsample(ds, 1.0, seed=0)
        np.testing.assert_array_equal(out.series, ds.series)
        np.testing.assert_array_equal(out.labels, ds.labels)
        gap = MtsDataset(np.zeros((5, 1, 2)), [2, 0, 2, 2, 0], 3, "gap")  # class 1 has no rows
        for seed in (0, 1, 7):
            np.testing.assert_array_equal(subsample_rows(gap, 1.0, seed), np.arange(5))

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_a_fraction_outside_zero_one_is_a_config_error(self, fraction):
        with pytest.raises(ConfigError, match=r"outside \(0, 1\]"):
            check_fraction(fraction)
        with pytest.raises(ConfigError, match=r"outside \(0, 1\]"):
            subsample_rows(random_dataset(np.random.default_rng(8)), fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_a_dataset_without_rows_subsamples_to_none(self, fraction):
        empty = MtsDataset(np.zeros((0, 1, 2)), np.zeros(0, dtype=np.int64), 2, "empty")
        assert subsample_rows(empty, fraction, seed=0).tolist() == []
        assert subsample(empty, fraction, seed=0).size == 0

    def test_balanced_two_class_tenth(self):
        series = np.zeros((100, 1, 4))
        labels = np.repeat([0, 1], 50)
        ds = MtsDataset(series=series, labels=labels, class_count=2, name="b")
        out = subsample(ds, 0.1, seed=1)
        assert out.size == 10
        assert (out.labels == 0).sum() == 5 and (out.labels == 1).sum() == 5

    def test_every_class_keeps_at_least_one_sample(self):
        series = np.zeros((60, 1, 4))
        labels = np.array([0] * 50 + [1] * 7 + [2] * 3)
        ds = MtsDataset(series=series, labels=labels, class_count=3, name="s")
        out = subsample(ds, 0.01, seed=2)
        assert set(out.labels) == {0, 1, 2}

    def test_unlabeled_rejected(self):
        ds = random_dataset(np.random.default_rng(9), labeled=False)
        with pytest.raises(DataError):
            subsample(ds, 0.5, seed=0)

    def test_deterministic_per_seed(self):
        ds = random_dataset(np.random.default_rng(10), m=40)
        a = subsample(ds, 0.3, seed=5)
        b = subsample(ds, 0.3, seed=5)
        np.testing.assert_array_equal(a.series, b.series)

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        fraction=st.floats(min_value=0.01, max_value=1.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_stratification_rule_exact(self, counts, fraction, seed):
        labels = np.concatenate([np.full(n, k) for k, n in enumerate(counts)])
        series = np.zeros((labels.size, 1, 3))
        ds = MtsDataset(series=series, labels=labels, class_count=len(counts), name="h")
        out = subsample(ds, fraction, seed=seed)
        for k, n in enumerate(counts):
            expected = n if fraction == 1.0 else max(1, int(fraction * n))
            assert (out.labels == k).sum() == expected


class TestTrainTestSplit:
    @pytest.mark.parametrize("m, fraction", [(10, 0.3), (23, 0.5), (7, 0.01), (40, 0.9)])
    @pytest.mark.parametrize("seed", [0, 3, 123456])
    def test_unlabeled_split_holds_out_the_first_rows_of_one_permutation(self, m, fraction, seed):
        ds = random_dataset(np.random.default_rng(m), m=m, labeled=False)
        train, test = train_test_split(ds, fraction, seed)
        cut = max(1, int(round(fraction * m)))
        held = np.sort(np.random.default_rng([seed, 0x7E57]).permutation(m)[:cut])
        np.testing.assert_array_equal(test.series, ds.series[held])
        np.testing.assert_array_equal(train.series, ds.series[np.setdiff1d(np.arange(m), held)])
        assert train.labels is None and test.labels is None

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("fraction", [0.2, 0.3, 0.75])
    def test_labeled_split_keeps_the_per_class_counts(self, seed, fraction):
        counts = [13, 1, 0, 6]
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(4), counts))
        ds = MtsDataset(np.arange(labels.size, dtype=float).reshape(-1, 1, 1), labels, 4, "counts")
        train, test = train_test_split(ds, fraction, seed)
        for k, n in enumerate(counts):
            held = min(n, max(1, int(round(fraction * n))))
            assert ((test.labels == k).sum(), (train.labels == k).sum()) == (held, n - held)
        rows = np.concatenate([train.series, test.series]).ravel()
        assert sorted(rows.tolist()) == list(range(labels.size))
        for split in (train, test):
            np.testing.assert_array_equal(split.labels, labels[split.series.ravel().astype(int)])


class TestBatches:
    def test_seven_samples_batch_four(self):
        ds = random_dataset(np.random.default_rng(11), m=7)
        sizes = [len(rows) for rows in batches(ds, 4, seed=0)]
        assert sizes == [4, 3]

    def test_same_seed_same_order(self):
        ds = random_dataset(np.random.default_rng(12), m=16)
        a = [rows.tolist() for rows in batches(ds, 5, seed=3, epoch=2)]
        b = [rows.tolist() for rows in batches(ds, 5, seed=3, epoch=2)]
        assert a == b
        c = [rows.tolist() for rows in batches(ds, 5, seed=3, epoch=3)]
        assert a != c

    @pytest.mark.parametrize("seed", [0, 3, 21, 123456])
    def test_each_epoch_shuffles_on_a_stream_of_its_own(self, seed):
        ds = random_dataset(np.random.default_rng(15), m=40)

        def order(epoch):
            return np.concatenate(list(batches(ds, 8, seed=seed, epoch=epoch)))

        # epoch 0 keeps the order of the [seed, 0] stream
        np.testing.assert_array_equal(order(0), np.random.default_rng([seed, 0]).permutation(40))
        # [seed, e] seeds pretrain's init, augmentation, truncation and dropout
        # streams (e = 1-4), the linear head's init (10) and the supervised
        # baseline's streams (20, 21)
        for epoch in (1, 2, 3, 4, 10, 20, 21):
            assert not np.array_equal(order(epoch), np.random.default_rng([seed, epoch]).permutation(40))

    def test_epoch_covers_every_index_once(self):
        ds = random_dataset(np.random.default_rng(13), m=23)
        seen = np.concatenate(list(batches(ds, 4, seed=1)))
        assert sorted(seen.tolist()) == list(range(23))

    def test_yields_integer_row_indices_in_runs_of_the_batch_size(self):
        ds = random_dataset(np.random.default_rng(14), m=9)
        order = np.random.default_rng([7, 0, 0]).permutation(9)
        got = list(batches(ds, 2, seed=7))
        assert [rows.dtype.kind for rows in got] == ["i"] * 5
        for k, rows in enumerate(got):
            np.testing.assert_array_equal(rows, order[2 * k : 2 * k + 2])


class TestSyntheticFixture:
    def test_shape_and_balance(self):
        ds = make_synthetic_fixture(m=40, channels=4, steps=32, seed=0)
        assert ds.series.shape == (40, 4, 32)
        assert (ds.labels == 0).sum() == 20

    def test_deterministic(self):
        a = make_synthetic_fixture(m=10, seed=5)
        b = make_synthetic_fixture(m=10, seed=5)
        np.testing.assert_array_equal(a.series, b.series)

    def test_classes_share_first_order_statistics(self):
        ds = make_synthetic_fixture(m=600, seed=1)
        mean0 = ds.series[ds.labels == 0].mean()
        mean1 = ds.series[ds.labels == 1].mean()
        assert abs(mean0 - mean1) < 0.1

    def test_classes_share_amplitude_spectrum(self):
        # the tempo is independent of the label, so the per-class mean
        # |rfft| along time agrees bin by bin within 20% of its peak
        ds = make_synthetic_fixture(m=600, seed=1)
        spectrum = np.abs(np.fft.rfft(ds.series, axis=-1))
        mean0 = spectrum[ds.labels == 0].mean(axis=0)
        mean1 = spectrum[ds.labels == 1].mean(axis=0)
        peak = max(mean0.max(), mean1.max())
        assert np.abs(mean0 - mean1).max() < 0.2 * peak

    def test_single_channel_rejected(self):
        with pytest.raises(DataError, match="channels"):
            make_synthetic_fixture(m=4, channels=1)

    def test_split_keeps_stratification(self):
        ds = make_synthetic_fixture(m=100, seed=2)
        train, test = train_test_split(ds, 0.3, seed=0)
        assert train.size == 70 and test.size == 30
        assert (test.labels == 0).sum() == 15
