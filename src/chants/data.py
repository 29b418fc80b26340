"""Dataset ingestion, normalization, batching, and the synthetic fixture.

Two on-disk formats are supported: the sequence format used by the public
multivariate classification archives (an ``@``-header followed by ``@data``
records whose channels are colon-separated runs of comma-separated values,
with an optional trailing class label) and plain CSV in either a wide layout
(one row per sample, channels concatenated) or a blocked layout (one row per
channel). All series in a dataset share the same (C, T).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "MtsDataset",
    "NormStats",
    "apply_norm_stats",
    "batches",
    "check_fraction",
    "class_indices",
    "load_dataset",
    "make_synthetic_fixture",
    "parse_csv",
    "parse_ts",
    "serialize_ts",
    "subsample",
    "subsample_rows",
    "train_test_split",
    "znormalize",
]


def class_indices(values, what: str, error: type[Exception]) -> np.ndarray:
    """``values`` as an int64 array. A value that the cast would change (0.5,
    NaN) raises ``error`` naming the first one, and so does a text or object
    array, naming its first value."""
    arr = np.asarray(values)
    numeric = arr.dtype.kind in "biuf"
    with np.errstate(invalid="ignore"):
        ints = arr.astype(np.int64) if numeric else np.zeros(arr.shape, np.int64)
    bad = np.flatnonzero(ints != arr) if numeric else np.arange(arr.size)
    if len(bad):
        raise error(f"{what} must be integers, got {arr.ravel().tolist()[bad[0]]!r}")
    return ints


@dataclass
class MtsDataset:
    """An (M, C, T) stack of equal-length series with optional class labels.

    ``class_count`` is an integer >= 0 (not a bool nor a float), 0 when
    unlabeled; labels are integers in [0, ``class_count``), and a label that
    is text or not a whole number is refused, never truncated.
    ``label_names``, when given, names each of the ``class_count`` classes.
    """

    series: np.ndarray
    labels: np.ndarray | None
    class_count: int
    name: str
    label_names: list[str] | None = None

    def __post_init__(self):
        self.series = np.asarray(self.series, dtype=np.float64)
        if self.series.ndim != 3:
            raise DataError(f"series must be (M, C, T), got shape {self.series.shape}")
        integral = isinstance(self.class_count, (int, np.integer)) and not isinstance(self.class_count, bool)
        if not integral or (self.labels is not None and self.class_count < 0):
            raise DataError(f"class_count must be an integer >= 0, got {self.class_count!r}")
        if self.labels is not None:
            self.labels = class_indices(self.labels, "labels", DataError)
            if self.labels.shape != (self.series.shape[0],):
                raise DataError(f"labels of shape {self.labels.shape} for {self.series.shape[0]} series")
            if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
                raise DataError(f"labels must lie in [0, {self.class_count})")
        elif self.class_count != 0:
            raise DataError(f"an unlabeled dataset has 0 classes, got {self.class_count}")
        if self.label_names is not None and len(self.label_names) != self.class_count:
            raise DataError(f"{len(self.label_names)} class names for {self.class_count} classes")

    @property
    def size(self) -> int:
        return self.series.shape[0]

    @property
    def channels(self) -> int:
        return self.series.shape[1]

    @property
    def steps(self) -> int:
        return self.series.shape[2]


# ---------------------------------------------------------------------------
# sequence-format parsing
# ---------------------------------------------------------------------------


def _numbered_lines(fh, path: Path) -> Iterator[tuple[int, str]]:
    """``fh``'s lines numbered from 1; a byte that is not UTF-8 raises ``DataError`` naming ``path``."""
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} 0x{exc.object[exc.start]:02x}") from exc


def parse_ts(path) -> MtsDataset:
    """Parse the ``@``-header sequence format; errors carry 1-based line numbers.

    A UTF-8 byte-order mark is skipped, and class names are kept only under
    ``@classLabel true``.
    """
    path = Path(path)
    name = path.stem
    series_length: int | None = None
    dimensions: int | None = None
    univariate: bool | None = None
    has_labels = False
    label_names: list[str] = []
    in_data = False
    records: list[np.ndarray] = []
    labels: list[int] = []

    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in _numbered_lines(fh, path):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not in_data and line.startswith("@"):
                key, _, rest = line[1:].partition(" ")
                key = key.lower()
                rest = rest.strip()
                if key == "data":
                    in_data = True
                elif key == "problemname":
                    name = rest or name
                elif key == "univariate":
                    univariate = rest.lower() == "true"
                elif key == "serieslength":
                    try:
                        series_length = int(rest)
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}: bad seriesLength {rest!r}")
                elif key == "dimensions":
                    try:
                        dimensions = int(rest)
                    except ValueError:
                        raise DataError(f"{path}: line {lineno}: bad dimensions {rest!r}")
                elif key == "classlabel":
                    parts = rest.split()
                    if not parts or parts[0].lower() not in ("true", "false"):
                        raise DataError(f"{path}: line {lineno}: malformed classLabel line")
                    has_labels = parts[0].lower() == "true"
                    label_names = parts[1:]
                    if has_labels and not label_names:
                        raise DataError(f"{path}: line {lineno}: classLabel true needs label names")
                    repeated = [n for k, n in enumerate(label_names) if n in label_names[:k]]
                    if has_labels and repeated:
                        raise DataError(f"{path}: line {lineno}: class label {repeated[0]!r} is listed twice")
                # other @keys (equalLength, timeStamps, ...) carry no information we need
                continue
            if not in_data:
                raise DataError(f"{path}: line {lineno}: expected @-header or @data before records")
            fields = line.split(":")
            if has_labels:
                if len(fields) < 2:
                    raise DataError(f"{path}: line {lineno}: record is missing its class label")
                label_str = fields[-1].strip()
                if label_str not in label_names:
                    raise DataError(f"{path}: line {lineno}: unknown class label {label_str!r}")
                labels.append(label_names.index(label_str))
                fields = fields[:-1]
            try:
                chans = [np.array([float(v) for v in field.split(",")]) for field in fields]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric value")
            lengths = {len(c) for c in chans}
            if len(lengths) != 1:
                raise DataError(f"{path}: line {lineno}: ragged channel lengths {sorted(lengths)}")
            (length,) = lengths
            if series_length is not None and length != series_length:
                raise DataError(
                    f"{path}: line {lineno}: {length} values but header declares seriesLength {series_length}"
                )
            if records and records[0].shape != (len(chans), length):
                raise DataError(
                    f"{path}: line {lineno}: record shape ({len(chans)}, {length}) "
                    f"differs from first record {records[0].shape}"
                )
            records.append(np.stack(chans))

    if not in_data:
        raise DataError(f"{path}: no @data section")
    if not records:
        raise DataError(f"{path}: no records after @data")
    channels = records[0].shape[0]
    if dimensions is not None and channels != dimensions:
        raise DataError(f"{path}: header declares {dimensions} dimensions but records have {channels}")
    if univariate is True and channels != 1:
        raise DataError(f"{path}: header declares univariate but records have {channels} channels")
    return MtsDataset(
        series=np.stack(records),
        labels=np.array(labels, dtype=np.int64) if has_labels else None,
        class_count=len(label_names) if has_labels else 0,
        name=name,
        label_names=label_names if has_labels else None,
    )


def serialize_ts(ds: MtsDataset, path) -> None:
    """Write a dataset back out in the sequence format, value-exactly.

    A dataset name or class name that :func:`parse_ts` could not read back
    raises ``DataError`` before ``path`` is opened: a dataset name that is
    empty, starts or ends with whitespace or holds a line break, and a class
    name that is empty, holds whitespace or ``:``, or is given twice.
    """
    if not ds.name or ds.name != ds.name.strip() or "\n" in ds.name or "\r" in ds.name:
        raise DataError(f"{path}: dataset name {ds.name!r} cannot be written: it must be a non-empty, unpadded line")
    names = ds.label_names
    if ds.labels is not None and names is None:
        names = [str(k) for k in range(ds.class_count)]
    for k, name in enumerate(names if ds.labels is not None else []):
        if name.split() != [name] or ":" in name or name in names[:k]:
            raise DataError(
                f"{path}: class label {name!r} cannot be written: names must be distinct, "
                "non-empty and free of whitespace and ':'"
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"@problemName {ds.name}\n")
        fh.write(f"@univariate {'true' if ds.channels == 1 else 'false'}\n")
        fh.write(f"@dimensions {ds.channels}\n")
        fh.write("@equalLength true\n")
        fh.write(f"@seriesLength {ds.steps}\n")
        if ds.labels is not None:
            fh.write("@classLabel true " + " ".join(names) + "\n")
        else:
            fh.write("@classLabel false\n")
        fh.write("@data\n")
        for i in range(ds.size):
            chans = [",".join(repr(float(v)) for v in row) for row in ds.series[i]]
            line = ":".join(chans)
            if ds.labels is not None:
                line += f":{names[ds.labels[i]]}"
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def parse_csv(path, channels: int, *, layout: str = "wide", labeled: bool = False) -> MtsDataset:
    """Reshape flat CSV into (M, C, T).

    ``wide``: one row per sample holding C*T values channel-by-channel, plus a
    trailing label when ``labeled``. ``blocked``: C consecutive rows of T
    values per sample; when labeled, every row of a block carries the same
    trailing label. A UTF-8 byte-order mark and blank lines are skipped,
    every row holds as many cells as the first, and a sample that holds no
    values (its rows hold only a label) raises ``DataError``. Errors carry
    the 1-based line of the file, blank lines counted, as in
    :func:`parse_ts`.
    """
    if layout not in ("wide", "blocked"):
        raise DataError(f"unknown CSV layout {layout!r} (expected 'wide' or 'blocked')")
    if channels < 1:
        raise DataError(f"channels must be >= 1, got {channels}")
    path = Path(path)
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in _numbered_lines(fh, path):
            if raw.strip():
                rows.append((lineno, [cell.strip() for cell in raw.split(",")]))
    if not rows:
        raise DataError(f"{path}: holds no rows")
    block = 1 if layout == "wide" else channels
    width = len(rows[0][1])
    series: list[np.ndarray] = []
    raw_labels: list[str | None] = []
    for start in range(0, len(rows), block):
        sample = rows[start : start + block]
        head, label = sample[0][0], (sample[0][1][-1] if labeled else None)
        if len(sample) < block:
            raise DataError(f"{path}: line {head}: the last sample holds {len(sample)} of {channels} rows")
        values: list[float] = []
        for lineno, cells in sample:
            if len(cells) != width:
                raise DataError(f"{path}: line {lineno}: {len(cells)} cells, but line {rows[0][0]} has {width}")
            if labeled:
                if cells[-1] != label:
                    raise DataError(f"{path}: line {lineno}: label {cells[-1]!r}, but line {head} has {label!r}")
                cells = cells[:-1]
            try:
                values.extend(float(v) for v in cells)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric cell") from None
        if not values:
            raise DataError(f"{path}: line {head}: the sample holds no values, only its label")
        if len(values) % channels:
            raise DataError(f"{path}: line {head}: {len(values)} values not divisible by {channels} channels")
        series.append(np.array(values).reshape(channels, -1))
        raw_labels.append(label)
    label_names = sorted(set(raw_labels)) if labeled else []
    return MtsDataset(
        series=np.stack(series),
        labels=np.array([label_names.index(v) for v in raw_labels], dtype=np.int64) if labeled else None,
        class_count=len(label_names),
        name=path.stem,
        label_names=label_names or None,
    )


def load_dataset(path, *, channels: int | None = None, layout: str = "wide", labeled: bool = False) -> MtsDataset:
    """Dispatch on file extension: ``.ts`` or ``.csv``.

    A NaN or infinite series value raises ``DataError`` naming the first
    sample, channel and step (0-based) that holds one.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such dataset file: {path}")
    if not path.is_file():
        raise DataError(f"dataset path is not a file: {path}")
    if path.suffix == ".ts":
        ds = parse_ts(path)
    elif path.suffix == ".csv":
        if channels is None:
            raise DataError("CSV input needs an explicit channel count")
        ds = parse_csv(path, channels, layout=layout, labeled=labeled)
    else:
        raise DataError(f"unrecognized dataset extension {path.suffix!r} (expected .ts or .csv)")
    bad = np.argwhere(~np.isfinite(ds.series))
    if len(bad):
        sample, channel, step = bad[0]
        raise DataError(
            f"{path}: sample {sample} has the non-finite value {ds.series[sample, channel, step]} "
            f"at channel {channel}, step {step}"
        )
    return ds


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

_STD_FLOOR = 1e-8


@dataclass
class NormStats:
    """Per-channel mean/std computed on a training split."""

    mean: np.ndarray
    std: np.ndarray


def znormalize(ds: MtsDataset) -> tuple[MtsDataset, NormStats]:
    """Per-channel z-normalization; near-constant channels are centered only.

    Compute stats on the training split and reuse them (via
    :func:`apply_norm_stats`) on every other split.
    """
    mean = ds.series.mean(axis=(0, 2))
    std = ds.series.std(axis=(0, 2))
    stats = NormStats(mean=mean, std=std)
    return apply_norm_stats(ds, stats), stats


def apply_norm_stats(ds: MtsDataset, stats: NormStats) -> MtsDataset:
    scale = np.where(stats.std < _STD_FLOOR, 1.0, stats.std)
    series = (ds.series - stats.mean[None, :, None]) / scale[None, :, None]
    return replace(ds, series=series)


# ---------------------------------------------------------------------------
# subsampling and batching
# ---------------------------------------------------------------------------


def check_fraction(fraction: float) -> None:
    """Raise ``ConfigError`` unless ``fraction`` is a label fraction, in (0, 1].

    The one range rule for a label fraction: :func:`subsample_rows` and the
    CLI's checks before anything is loaded both call it.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction {fraction} outside (0, 1]")


def subsample_rows(ds: MtsDataset, fraction: float, seed: int) -> np.ndarray:
    """Sorted row indices of the stratified subsample of ``ds``.

    max(1, floor(fraction * count)) rows per class, drawn without
    replacement; at fraction 1 every class takes all its rows, so the
    result is ``arange(ds.size)``. A ``fraction`` outside (0, 1] raises
    ``ConfigError`` (:func:`check_fraction`), an unlabeled ``ds``
    ``DataError``.
    """
    check_fraction(fraction)
    if ds.labels is None:
        raise DataError("subsample needs a labeled dataset")
    rng = np.random.default_rng([seed, 0x5B5A])
    keep = [np.zeros(0, dtype=np.int64)]  # a dataset without rows subsamples to none
    for cls in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size == 0:
            continue
        take = max(1, int(fraction * idx.size))
        keep.append(rng.choice(idx, size=take, replace=False))
    return np.sort(np.concatenate(keep))


def subsample(ds: MtsDataset, fraction: float, seed: int) -> MtsDataset:
    """Stratified subsample: the rows :func:`subsample_rows` picks."""
    chosen = subsample_rows(ds, fraction, seed)
    return replace(ds, series=ds.series[chosen], labels=ds.labels[chosen])


def train_test_split(ds: MtsDataset, test_fraction: float, seed: int) -> tuple[MtsDataset, MtsDataset]:
    """Deterministic shuffled split, stratified when labels are present.

    One ``default_rng([seed, 0x7E57])`` stream permutes each group (each
    class in turn, or all rows when unlabeled), whose first
    max(1, round(test_fraction * size)) rows go to the test split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng([seed, 0x7E57])
    if ds.labels is None:
        groups = [np.arange(ds.size)]
    else:
        groups = [np.flatnonzero(ds.labels == cls) for cls in range(ds.class_count)]
    test_parts = []
    for idx in groups:
        idx = rng.permutation(idx)
        test_parts.append(idx[: max(1, int(round(test_fraction * idx.size)))])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.setdiff1d(np.arange(ds.size), test_idx)
    def pick(idx):
        return replace(ds, series=ds.series[idx], labels=None if ds.labels is None else ds.labels[idx])

    return pick(train_idx), pick(test_idx)


def batches(ds: MtsDataset, batch_size: int, seed: int, epoch: int = 0) -> Iterator[np.ndarray]:
    """The row indices of each minibatch of ``ds``, in a shuffled order that
    is fixed per (seed, epoch); the final short batch is emitted.

    Epoch e shuffles with ``default_rng([seed, 0, e])``, a stream that no
    other draw shares (``pretrain`` seeds four with ``[seed, 1]`` to
    ``[seed, 4]``); seed sequences pad short entropy with zeros, so epoch
    0's order is the one ``[seed, 0]`` gives.
    """
    if batch_size < 1:
        raise DataError(f"batch size must be >= 1, got {batch_size}")
    order = np.random.default_rng([seed, 0, epoch]).permutation(ds.size)
    for start in range(0, ds.size, batch_size):
        yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# synthetic fixture
# ---------------------------------------------------------------------------


# the fixture's tempos (cycles per ``steps``), its Gaussian noise sigma and
# the shift in steps between neighbouring channels
_SLOW_FREQS = (1.0, 2.0)
_FAST_FREQS = (4.0, 6.0)
_NOISE = 0.15
_LAG = 2


def make_synthetic_fixture(m: int = 400, channels: int = 4, steps: int = 32, seed: int = 0) -> MtsDataset:
    """Two balanced classes distinguished only by the order of the channels.

    Every sample is a random-phase sinusoid mixture copied onto each channel
    with a shift of ``_LAG`` steps per channel, plus Gaussian noise of sigma
    ``_NOISE``; the label decides only the *direction* of that shift
    (channel ``j + 1`` leads channel ``j`` for class 0 and trails it for
    class 1). The tempo is drawn per sample, with equal odds and independent
    of the label, from ``_SLOW_FREQS`` (long monotone runs) or
    ``_FAST_FREQS`` (frequent reversals), so both trend regimes appear in
    each class. Each channel on its own is therefore identically
    distributed in both classes: neither the raw values nor the amplitude
    spectra separate them, and only the sign of the lagged cross-correlation
    between neighbouring channels does.

    Raises ``DataError`` when ``channels < 2``, which leaves the two classes
    identically distributed.
    """
    if channels < 2:
        raise DataError(f"the fixture needs channels >= 2 to carry a class signal, got {channels}")
    rng = np.random.default_rng([seed, 0xF1C5])
    margin = _LAG * (channels - 1)
    length = steps + 2 * margin
    grid = np.arange(length, dtype=np.float64) - margin
    series = np.empty((m, channels, steps))
    labels = np.empty(m, dtype=np.int64)
    for i in range(m):
        cls = i % 2
        freqs = _SLOW_FREQS if rng.random() < 0.5 else _FAST_FREQS
        base = np.zeros(length)
        for f in freqs:
            amp = rng.uniform(0.6, 1.4)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            f_jit = f * rng.uniform(0.9, 1.1)
            base += amp * np.sin(2.0 * np.pi * f_jit * grid / steps + phase)
        direction = 1 if cls == 0 else -1
        for j in range(channels):
            start = margin + direction * _LAG * j
            series[i, j] = base[start : start + steps]
        series[i] += rng.normal(0.0, _NOISE, size=(channels, steps))
        labels[i] = cls
    return MtsDataset(
        series=series,
        labels=labels,
        class_count=2,
        name="synthetic-lagged-pair",
        label_names=["0", "1"],
    )
