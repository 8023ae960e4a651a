"""Recompute bench/pinned.json, the digests each seed must reproduce.

    python3 bench/pin.py --seeds 0-39 [--workload NAME ...]

A digest covers the semantic results of a workload's first DIGEST_JOBS
jobs.  Re-pin only after a deliberate change to a workload's inputs or
summaries: a program change that alters a pinned digest is a wrong
result, not a reason to re-pin.
"""

from __future__ import annotations

import argparse
import json

from worker import PINNED, WORKLOADS, Ledger, digest, load, run_job


def pin(workload: str, seed: int) -> str:
    module = load(workload)
    ledger = Ledger(module)
    for index, job in enumerate(module.make_jobs(seed)[: module.DIGEST_JOBS]):
        _, outcome = run_job(module, index, job)
        ledger.check(index, job, outcome)
    if ledger.failed:
        raise SystemExit(f"{workload} seed {seed}: {ledger.failed} jobs failed")
    return digest(ledger.summaries)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-39")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    for workload in args.workload or sorted(WORKLOADS):
        fresh = {str(seed): pin(workload, seed) for seed in seeds}
        # merge under the file's current content: other workloads may be
        # pinned by parallel invocations
        pins = json.loads(PINNED.read_text())
        pins.setdefault(workload, {}).update(fresh)
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: pinned seeds {first}-{last or first}")


if __name__ == "__main__":
    main()
