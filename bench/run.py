"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pretrain-har --seed 1 --seconds 25 --trace 0

Run it from the root of the repository. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures half the window untraced and
half traced, and prints the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload, each in its own process.

BLAS is pinned to one thread. The program is imported from ``src/`` next to
this directory, never from an installed copy; without it the run exits
with code 2.
"""

from __future__ import annotations

import os
from time import perf_counter

_STARTED = perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pretrain-har", "extract-wide", "probe-small")
SETUP_REPEATS = 5
ELEMENTWISE_OPS = ("add", "mul", "div", "gelu", "dropout", "softmax", "exp", "log", "sqrt")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json from this tree")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "chants").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def _setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: interpreter start to built inputs."""
    out = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def _lower_quartile(times: list[float]) -> float:
    """Unit time the fastest quarter of units reach.

    Every unit does the same work, so the spread between units is
    interference from other processes, which only adds time; the lower
    quartile measured steadier across runs than the median on a shared
    2-core machine.
    """
    return statistics.quantiles(times, n=4)[0] if len(times) > 1 else times[0]


def _run_all(args) -> int:
    """Every workload, one after another, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "chants" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'chants'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_build"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix="bench-") as tmp:
        return _main(args, Path(tmp))


def _main(args, workdir: Path) -> int:
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, workdir)
        print(perf_counter() - _STARTED)
        return 0
    if args.record_reference:
        workloads.REFERENCE_PATH.write_text(json.dumps(workloads.record_reference(workdir), indent=1) + "\n")
        print(f"wrote {workloads.REFERENCE_PATH}")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = cls(args.seed, workdir)
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(_environment(), sort_keys=True))

    # reference inputs first: checks the program and warms the process up
    reference = cls(workloads.REFERENCE_SEED, workdir)
    try:
        reference_ok = cls.matches(reference.reference_output(), workloads.load_reference()[cls.name])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        reference_ok = False
    print(f"reference_check {'pass' if reference_ok else 'FAIL'}")
    attempted, failed = 1, int(not reference_ok)

    if args.trace:
        plain, n, bad, _ = work.run(args.seconds / 2)
        attempted, failed = attempted + n, failed + bad
        tracer = Tracer()
        with tracer.install():
            traced, n, bad, _ = work.run(args.seconds / 2, tracer)
        attempted, failed = attempted + n, failed + bad
        if not plain or not traced:
            print("bench: no unit completed", file=sys.stderr)
            return 1
        layers = tracer.metrics(traced)
        layers["harness.first_step_s"] = getattr(reference, "first_step_s", 0.0)
        layers["checkpoint.load_encoder_s"] = getattr(work, "load_s", 0.0)
        untraced_s, traced_s = _lower_quartile(plain), _lower_quartile(traced)
        layers["trace.untraced_unit_s"] = untraced_s
        layers["trace.traced_unit_s"] = traced_s
        layers["trace.overhead"] = traced_s / untraced_s - 1.0
        metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(layers.items())}
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"units untraced={len(plain)} traced={len(traced)}")
        mean_unit = sum(traced) / len(traced)
        elementwise = sum(layers[f"tensor.fwd_s.{op}"] for op in ELEMENTWISE_OPS)
        print(
            f"share of a traced unit: backward + elementwise forward "
            f"{(layers['tensor.backward_s'] + elementwise) / mean_unit:.3f}, "
            f"augment {layers['augment.build_cs_batch_s'] / mean_unit:.4f}, "
            f"optim {layers['optim.adam_step_s'] / mean_unit:.4f}"
        )
    else:
        times, n, bad, extra = work.run(args.seconds)
        attempted, failed = attempted + n, failed + bad
        if not times:
            print("bench: no unit completed", file=sys.stderr)
            return 1
        setups = _setup_seconds(args)
        values = {
            "samples_per_s": cls.samples_per_unit / _lower_quartile(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        _print_end_to_end(cls, metrics, times, setups, extra, attempted, failed)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _print_end_to_end(cls, metrics, times, setups, extra, attempted, failed) -> None:
    """The figures under their design names, with the samples behind them."""
    rate = metrics["samples_per_s"]["value"]
    units = {"pretrain-har": "steps", "extract-wide": "passes", "probe-small": "probes"}[cls.name]
    basis = (
        f"lower quartile of {len(times)} {units} of {cls.samples_per_unit} {cls.sample}; "
        f"median {statistics.median(times):.4g} s, fastest {min(times):.4g} s"
    )
    if cls.name == "pretrain-har":
        print(f"pretrain_samples_per_s {rate:.6g} originals/s ({basis})")
    elif cls.name == "extract-wide":
        print(f"extract_samples_per_s {rate:.6g} series/s ({basis})")
    else:
        print(f"probe_s {_lower_quartile(times):.6g} s ({basis})")
        print(f"probe_accuracy {extra['probe_accuracy']:.6g} fraction (median over {len(times)} probe seeds)")
    print("unit_s " + " ".join(f"{t:.4g}" for t in times))
    print(f"setup_s {metrics['setup_s']['value']:.6g} s (median of {len(setups)} fresh processes)")
    print(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB")
    print(f"error_rate {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")


if __name__ == "__main__":
    sys.exit(main())
