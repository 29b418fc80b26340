"""Unit tests for dataset parsing, normalization, batching, and the fixture."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chants.data import (
    MtsDataset,
    batches,
    load_dataset,
    make_synthetic_fixture,
    parse_csv,
    parse_ts,
    serialize_ts,
    subsample,
    train_test_split,
    znormalize,
)
from chants.errors import DataError

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

    def test_load_dataset_dispatch(self, tmp_path):
        ts = tmp_path / "d.ts"
        ts.write_text(TS_FIXTURE)
        assert load_dataset(ts).size == 2
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "missing.ts")


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


class TestBatches:
    def test_seven_samples_batch_four(self):
        ds = random_dataset(np.random.default_rng(11), m=7)
        sizes = [b.x.shape[0] for b in batches(ds, 4, seed=0)]
        assert sizes == [4, 3]

    def test_same_seed_same_order(self):
        ds = random_dataset(np.random.default_rng(12), m=16)
        a = [b.indices.tolist() for b in batches(ds, 5, seed=3, epoch=2)]
        b = [b.indices.tolist() for b in batches(ds, 5, seed=3, epoch=2)]
        assert a == b
        c = [b.indices.tolist() for b in batches(ds, 5, seed=3, epoch=3)]
        assert a != c

    def test_epoch_covers_every_index_once(self):
        ds = random_dataset(np.random.default_rng(13), m=23)
        seen = np.concatenate([b.indices for b in batches(ds, 4, seed=1)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_labels_travel_with_rows(self):
        ds = random_dataset(np.random.default_rng(14), m=9)
        for batch in batches(ds, 2, seed=7):
            np.testing.assert_array_equal(batch.labels, ds.labels[batch.indices])


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

    def test_zero_lag_rejected(self):
        with pytest.raises(DataError, match="lag"):
            make_synthetic_fixture(m=4, lag=0)

    def test_single_channel_rejected(self):
        with pytest.raises(DataError, match="channels"):
            make_synthetic_fixture(m=4, channels=1)

    def test_split_keeps_stratification(self):
        ds = make_synthetic_fixture(m=100, seed=2)
        train, test = train_test_split(ds, 0.3, seed=0)
        assert train.size == 70 and test.size == 30
        assert (test.labels == 0).sum() == 15
