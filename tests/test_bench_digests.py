"""The benchmark's own checks pass and its digests match their pins.

Each workload's first `DIGEST_JOBS` jobs run in-process for seeds 0 and
1 through `bench/worker.py`'s `load`, `run_job` and `Ledger`, as a
benchmark run does before it times anything.  A change that breaks a
workload's result checks, or changes an answer the digest covers, fails
here rather than only when the benchmark is run.  Seed 38 is held out
and seed 5 is for measuring, so neither is used here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (bench/ is not a package)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_digest_jobs_pass_their_checks_and_match_the_pin(workload, seed):
    module = worker.load(workload)
    ledger = worker.Ledger(module)
    for index, job in enumerate(module.make_jobs(seed)[: module.DIGEST_JOBS]):
        _, outcome = worker.run_job(module, index, job)
        ledger.check(index, job, outcome)
    value, matches = ledger.digest_verdict(workload, seed)
    assert ledger.failed == 0
    assert value is not None and matches is True
