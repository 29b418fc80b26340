"""The benchmark's reference outputs, checked in Tier-1.

Each workload of ``bench/workloads.py``, built at ``REFERENCE_SEED``, must
reproduce what ``bench/reference.json`` records for it, judged by the
workload's own ``matches``; a change that would fail the benchmark's
correctness check fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reproduces_its_reference_output(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, tmp_path)
    assert workload.matches(workload.reference_output(), workloads.load_reference()[name])
