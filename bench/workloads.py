"""The three benchmark workloads and their output checks.

Each workload is built from a seed (its set-up), checks the program against
outputs recorded in ``reference.json`` on fixed inputs (which also warms the
process up), then runs timed units (pretraining steps, extraction passes or
probes) until its time is spent. Only the package's public functions are
called, and only from here.

Why these three, at these shapes:

- ``pretrain-har``: ``harness.pretrain`` at the HAR shape (C=9, T=128),
  D=64, depth 2, 8 heads, dropout 0.2, B=10, ``k_ntp``=10. Backward and
  elementwise tape work dominate and the graph holds about 1.2 GB at
  backward, which is what fused kernels and bounded-memory pretraining act
  on. The paper width (D=512, about 21 s and 7.3 GB per step) is too slow
  and too large to repeat many times on an 8 GB machine and waits for
  bounded-memory pretraining.
- ``extract-wide``: ``harness.extract_features`` without a graph at C=9,
  T=128, D=128, depth 2, chunk 64, 128 series per pass. Forward-only and
  matmul-heavy, with no tape, backward, pretext task or optimizer: a change
  to backward or memory should leave it alone, a fused forward kernel shows.
- ``probe-small``: ``checkpoint.load_encoder`` as the CLI does, then
  ``harness.linear_probe`` at C=4, T=32, D=64 on 300 training and 100 test
  series. One probe is about 7,500 head steps on tiny arrays, so per-op
  Python overhead and ``adam_step`` dominate: a change that adds per-node
  cost to help big arrays shows up here as a slowdown.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from chants import checkpoint, harness
from chants.data import MtsDataset
from chants.encoder import Encoder, EncoderConfig, init_cat_params
from chants.pretext import init_pretext_heads

from inputs import lagged_sinusoids

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 0

# Losses of the reference steps: a wrong local derivative moves them by far
# more than this after two Adam updates, float64 sums taken in another order
# by far less (Adam's epsilon damps sign flips of near-zero gradients).
LOSS_RTOL = 1e-8
# Reference features: a few columns per series plus each series' norm.
FEATURE_RTOL = 1e-9
FEATURE_ATOL = 1e-9


class _Stop(Exception):
    """Raised from the step hook once the timed window is spent."""


@contextlib.contextmanager
def patched(module, attr: str, make):
    """Replace ``module.attr`` by ``make(original)`` inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _report_failure() -> None:
    """Print the traceback of an exception the program raised inside a unit."""
    traceback.print_exc(file=sys.stderr)


class PretrainHar:
    name = "pretrain-har"
    sample = "originals"
    encoder = EncoderConfig(channels=9, steps=128, width=64, depth=2, heads=8, dropout=0.2)
    batch = 10
    samples_per_unit = batch
    originals = 40
    # three steps: the loss at step 2 is the first that depends on gradient
    # magnitudes (Adam's first update is lr * sign(g))
    reference_originals = 30

    def __init__(self, seed: int, workdir: Path):
        series, labels = lagged_sinusoids(self.originals, self.encoder.channels, self.encoder.steps, seed)
        self.ds = MtsDataset(series, labels, 2, "bench")
        self.cfg = harness.TrainConfig(
            encoder=self.encoder,
            k_ntp=10,
            pretrain_batch=self.batch,
            pretrain_epochs=10**6,  # the timed window, not the epoch count, ends the run
            early_stop_patience=10**6,
            seed=seed,
        )
        # pretrain() draws its parameters first thing; do the same draw here
        # so set-up time covers parameter init
        rng = np.random.default_rng([seed, 1])
        init_cat_params(self.encoder, rng)
        init_pretext_heads(self.encoder, rng)
        self.first_step_s = 0.0

    def _steps(self, ds, cfg, deadline: float, tracer=None):
        """Run ``harness.pretrain``; return (step seconds, (ntp, cs, combined) losses, failed)."""
        seconds: list[float] = []
        losses: list[tuple[float, float, float]] = []
        clock = [0.0]

        def start(original):
            def init_adam_state(*args, **kwargs):
                out = original(*args, **kwargs)
                clock[0] = perf_counter()
                return out

            return init_adam_state

        def keep_loss(original):
            def combined_loss(ntp, cs, weights):
                out = original(ntp, cs, weights)
                losses.append((ntp.item(), cs.item(), out.item()))
                return out

            return combined_loss

        def step_end(original):
            # adam_step runs once per step, so its return marks each step's end
            def adam_step(*args, **kwargs):
                out = original(*args, **kwargs)
                now = perf_counter()
                seconds.append(now - clock[0])
                clock[0] = now
                if tracer is not None:
                    tracer.unit += 1
                if now >= deadline:
                    raise _Stop
                return out

            return adam_step

        failed = False
        with patched(harness, "init_adam_state", start), patched(
            harness, "combined_loss", keep_loss
        ), patched(harness, "adam_step", step_end):
            try:
                harness.pretrain(ds, cfg)
            except _Stop:
                pass
            except Exception:
                _report_failure()
                failed = True
        return seconds, losses, failed

    def reference_output(self) -> dict:
        ds = MtsDataset(self.ds.series[: self.reference_originals], self.ds.labels[: self.reference_originals], 2, "ref")
        cfg = harness.TrainConfig(encoder=self.encoder, k_ntp=10, pretrain_batch=self.batch, pretrain_epochs=1, seed=self.cfg.seed)
        seconds, losses, failed = self._steps(ds, cfg, math.inf)
        self.first_step_s = seconds[0] if seconds else 0.0
        return {"losses": None if failed else losses}

    @staticmethod
    def matches(output: dict, reference: dict) -> bool:
        got, want = output["losses"], reference["losses"]
        return got is not None and len(got) == len(want) and np.allclose(got, want, rtol=LOSS_RTOL, atol=0.0)

    def run(self, seconds: float, tracer=None):
        """Timed steps; a step fails if it raises or its loss is not finite."""
        times, losses, failed = self._steps(self.ds, self.cfg, perf_counter() + seconds, tracer)
        bad = sum(not all(map(math.isfinite, step)) for step in losses[: len(times)])
        return times, len(times) + failed, bad + failed, {}


class ExtractWide:
    name = "extract-wide"
    sample = "series"
    encoder = EncoderConfig(channels=9, steps=128, width=128, depth=2, heads=8, dropout=0.2)
    chunk = 64
    samples_per_unit = 128
    reference_series = 8

    def __init__(self, seed: int, workdir: Path):
        self.series, _ = lagged_sinusoids(self.samples_per_unit, self.encoder.channels, self.encoder.steps, seed)
        params = init_cat_params(self.encoder, np.random.default_rng([seed, 1]))
        self.model = Encoder(params, self.encoder)

    def reference_output(self) -> dict:
        features = harness.extract_features(self.model, self.series[: self.reference_series], chunk=self.chunk)
        fingerprint = np.concatenate([features[:, ::64].ravel(), np.linalg.norm(features, axis=1)])
        return {"fingerprint": fingerprint.tolist()}

    @staticmethod
    def matches(output: dict, reference: dict) -> bool:
        got, want = np.asarray(output["fingerprint"]), np.asarray(reference["fingerprint"])
        return got.shape == want.shape and np.allclose(got, want, rtol=FEATURE_RTOL, atol=FEATURE_ATOL)

    def run(self, seconds: float, tracer=None):
        """Timed passes; a pass fails if it raises, or its features are not
        finite or differ from the first pass's beyond the feature tolerance."""
        times: list[float] = []
        attempted = failed = 0
        first = None
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            attempted += 1
            start = perf_counter()
            try:
                features = harness.extract_features(self.model, self.series, chunk=self.chunk)
            except Exception:
                _report_failure()
                failed += 1
                break
            times.append(perf_counter() - start)
            if tracer is not None:
                tracer.unit += 1
            if first is None:
                first = features
            if not np.isfinite(features).all() or not np.allclose(features, first, rtol=FEATURE_RTOL, atol=FEATURE_ATOL):
                failed += 1
        return times, attempted, failed, {}


class ProbeSmall:
    name = "probe-small"
    sample = "series"
    encoder = EncoderConfig(channels=4, steps=32, width=64, depth=2, heads=8, dropout=0.2)
    train_size = 300
    test_size = 100
    samples_per_unit = train_size + test_size
    # enough noise that the probe scores about 0.85, not 1.0: predictions
    # near the boundary then show a change of precision or numerics
    noise = 1.0

    def __init__(self, seed: int, workdir: Path):
        series, labels = lagged_sinusoids(
            self.samples_per_unit, self.encoder.channels, self.encoder.steps, seed, noise=self.noise
        )
        n = self.train_size
        self.train = MtsDataset(series[:n], labels[:n], 2, "bench-train")
        self.test = MtsDataset(series[n:], labels[n:], 2, "bench-test")
        path = workdir / f"probe-{seed}.ckpt"
        params = init_cat_params(self.encoder, np.random.default_rng([seed, 1]))
        checkpoint.save_encoder(path, params, self.encoder, seed=seed, step=0)
        start = perf_counter()
        self.params, self.config, _, _ = checkpoint.load_encoder(path)
        self.load_s = perf_counter() - start
        self.seed = seed

    def probe(self, probe_seed: int):
        """One ``linear_probe``; returns its metrics and the test predictions,
        recomputed from the head it trained and the test features it used."""
        seen = {}

        def keep_features(original):
            def extract_features(*args, **kwargs):
                seen["features"] = original(*args, **kwargs)
                return seen["features"]

            return extract_features

        def keep_head(original):
            def train_linear_head(*args, **kwargs):
                seen["head"] = original(*args, **kwargs)
                return seen["head"]

            return train_linear_head

        cfg = harness.TrainConfig(encoder=self.config, seed=probe_seed)
        with patched(harness, "extract_features", keep_features), patched(harness, "train_linear_head", keep_head):
            metrics = harness.linear_probe(self.train, self.test, self.params, cfg)
        w, b = seen["head"]
        return metrics, (seen["features"] @ w + b).argmax(axis=1)

    def reference_output(self) -> dict:
        metrics, pred = self.probe(self.seed)
        return {"predictions": "".join(map(str, pred)), "accuracy": metrics.accuracy}

    @staticmethod
    def matches(output: dict, reference: dict) -> bool:
        return output["predictions"] == reference["predictions"]

    def run(self, seconds: float, tracer=None):
        """Timed probes over seeds seed, seed+1, ...; a probe fails if it raises
        or its reported accuracy disagrees with its own predictions."""
        times: list[float] = []
        accuracies: list[float] = []
        attempted = failed = 0
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            attempted += 1
            start = perf_counter()
            try:
                metrics, pred = self.probe(self.seed + attempted - 1)
            except Exception:
                _report_failure()
                failed += 1
                break
            times.append(perf_counter() - start)
            if tracer is not None:
                tracer.unit += 1
            accuracies.append(metrics.accuracy)
            if metrics.accuracy != float(np.mean(pred == self.test.labels)):
                failed += 1
        return times, attempted, failed, {"probe_accuracy": float(np.median(accuracies)) if accuracies else math.nan}


WORKLOADS = {w.name: w for w in (PretrainHar, ExtractWide, ProbeSmall)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def record_reference(workdir: Path) -> dict:
    """Outputs of every workload on the reference inputs, as ``reference.json`` holds them."""
    return {name: cls(REFERENCE_SEED, workdir).reference_output() for name, cls in WORKLOADS.items()}
