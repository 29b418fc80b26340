"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --out bench/results/NAME.json

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json. Runs go one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "env": None, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary["env"] = summary["env"] or json.loads(next(l for l in lines if l.startswith("env "))[4:])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
            print(f"{workload} seed={seed} " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}
            flag = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
            print(f"  {workload} {name}: median {median:.6g} spread {spread:.4f} bound {bound} {flag}", flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
