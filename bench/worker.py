"""One benchmark process: set up a workload, run its jobs, print JSON.

Started by `run.py` in a fresh interpreter per run, so set-up time and
peak memory belong to one workload.  The load is a closed loop with one
client: one process, no threads, and each job starts when the previous
one has returned.  Only the library calls of a job are timed; its
correctness check runs outside the timed region.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "finite-mix": "finite_mix",
    "transfer-repeat": "transfer_repeat",
    "qclone-chains": "qclone_chains",
}
MIN_JOBS = 100  # at least ten latencies beyond p90
# The CPU speed of a shared machine drifts by tens of percent over
# minutes, more than the changes the benchmark must resolve.  So every
# run also times a fixed pure-Python reference loop, after each job and
# after set-up, and reports times at the reference speed: each measured
# time is multiplied by REFERENCE_S over the local median of the
# reference loop's times (SPEED_WINDOW neighbouring samples).
REFERENCE_S = 0.002
SPEED_WINDOW = 21
PINNED = Path(__file__).resolve().parent / "pinned.json"
TRACE_DIR = Path(__file__).resolve().parent / "out"


def monotonic_ns() -> int:
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass(frozen=True, order=True)
class _Item:
    key: tuple
    value: Fraction


def reference_seconds() -> float:
    """Time one pass of a fixed loop in the style of the library's code:
    frozen dataclasses compared and sorted, tuple-keyed dicts, exact
    arithmetic.  It imports nothing from clonelab."""
    start = time.perf_counter()
    items = [_Item((i % 7, i % 11), Fraction(i % 13, 1 + i % 5)) for i in range(300)]
    items.sort()
    seen: dict = {}
    total = Fraction(0)
    for item in items:
        seen[item.key] = seen.get(item.key, 0) + 1
        total += item.value
    return time.perf_counter() - start


def slowdowns(references: list[float]) -> list[float]:
    """Per-sample speed factor: local median reference time over REFERENCE_S."""
    half = SPEED_WINDOW // 2
    return [
        statistics.median(references[max(0, i - half): i + half + 1]) / REFERENCE_S
        for i in range(len(references))
    ]


def load(workload: str):
    """Import clonelab from this checkout's sources and the workload module."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import clonelab

    source = Path(clonelab.__file__).resolve().parent
    if source != ROOT / "src" / "clonelab":
        raise SystemExit(f"clonelab was imported from {source}, not from this checkout")
    return importlib.import_module(WORKLOADS[workload])


def digest(summaries: list) -> str:
    blob = json.dumps(summaries, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


class Ledger:
    """Per-job outcomes: failures, the digest prefix, and repeat consistency."""

    def __init__(self, module):
        self.module = module
        self.attempted = 0
        self.failed = 0
        self.summaries: list = []
        self.first_summary: dict = {}

    def check(self, index: int, job, outcome) -> None:
        """Check one result outside the timed region; count it failed if wrong."""
        self.attempted += 1
        summary = None
        if outcome is not None:
            try:
                summary = self.module.check(job, outcome)
            except Exception:  # any wrong or malformed result fails the job
                print(f"job {index}: check failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        if summary is None:
            self.failed += 1
        key = self.module.repeat_key(job) if hasattr(self.module, "repeat_key") else index
        first = self.first_summary.setdefault(key, summary)
        if summary is not None and first != summary:
            print(f"job {index}: repeated input gave a different result", file=sys.stderr)
            self.failed += 1
        if index < self.module.DIGEST_JOBS and len(self.summaries) == index:
            self.summaries.append(summary)

    def digest_verdict(self, workload: str, seed: int) -> tuple[str | None, bool | None]:
        """Digest of the first DIGEST_JOBS jobs and whether it matches the pin."""
        if len(self.summaries) < self.module.DIGEST_JOBS:
            return None, None
        value = digest(self.summaries)
        pinned = json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))
        if pinned is None:
            return value, None
        if pinned != value:
            print(f"digest {value} differs from the pinned {pinned}", file=sys.stderr)
            self.failed += 1
        return value, pinned == value


def run_job(module, index: int, job):
    """Run one job; return (seconds, outcome), outcome None if it raised."""
    start = time.perf_counter()
    try:
        outcome = module.run(job)
    except Exception:  # CapExceeded and anything unexpected fail the job
        seconds = time.perf_counter() - start
        print(f"job {index}: raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return seconds, None
    return time.perf_counter() - start, outcome


def measure(module, jobs, seconds: float, ledger: Ledger) -> dict:
    """Untraced closed loop for `seconds`, at least MIN_JOBS jobs, ending
    on a whole round so each run holds the workload's fixed job mix."""
    floor = max(MIN_JOBS, module.DIGEST_JOBS)
    measured, references = [], []
    deadline = time.perf_counter() + seconds
    for index, job in enumerate(jobs):
        if index >= floor and index % module.ROUND == 0 and time.perf_counter() >= deadline:
            break
        elapsed, outcome = run_job(module, index, job)
        measured.append(elapsed)
        ledger.check(index, job, outcome)
        references.append(reference_seconds())
    factors = slowdowns(references)
    latencies = [t / f for t, f in zip(measured, factors)]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    raw_p90 = statistics.quantiles(measured, n=10, method="inclusive")[8]
    return {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
        "slowdown": statistics.median(factors),
        "raw_jobs_per_s": len(measured) / sum(measured),
        "raw_job_p50_ms": statistics.median(measured) * 1e3,
        "raw_job_p90_ms": raw_p90 * 1e3,
    }


def trace(module, jobs, ledger: Ledger, out_path: Path) -> dict:
    """Run the digest jobs twice each, untraced and traced, in alternating
    order; the fixed job set makes the counts repeat exactly for a seed."""
    from tracing import LAYERS, Tracer

    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    for index, job in enumerate(jobs[: module.DIGEST_JOBS]):
        order = (False, True) if index % 2 == 0 else (True, False)
        outcomes = {}
        for traced in order:
            if traced:
                with tracer.job(index):
                    elapsed, outcomes[traced] = run_job(module, index, job)
            else:
                elapsed, outcomes[traced] = run_job(module, index, job)
            wall[traced] += elapsed
        ledger.check(index, job, outcomes[True])
        ledger.check(index, job, outcomes[False])
    tracer.write(out_path)
    self_s, calls = tracer.layer_totals()
    c = tracer.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls"] = calls[layer]
    metrics.update({
        "clones.entries": c["clones.entries"],
        "clones.collisions": c["clones.collisions"],
        "clones.new_table_ratio": ratio(c["clones.new_tables"], c["clones.compositions"]),
        "equations.assignments_checked": c["equations.assignments_checked"],
        "equations.found_ratio": ratio(c["equations.found"], c["equations.searches"]),
        "structures.tuples_classified": c["structures.tuples_classified"],
        "canonical.noncanonical_ratio": ratio(c["canonical.noncanonical"], c["canonical.verdicts"]),
        "lifting.columns": c["lifting.columns"],
        "lifting.equalizer_failures": c["lifting.equalizer_failures"],
        "qclone.evaluations": c["qclone.evaluations"],
        "qclone.compositions": c["qclone.compositions"],
        "trace.untraced_wall_s": wall[False],
        "trace.traced_wall_s": wall[True],
        "trace.overhead_s": wall[True] - wall[False],
    })
    return metrics


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = load(args.workload)
    jobs = module.make_jobs(args.seed)
    ready_ns = monotonic_ns()
    setup_slowdown = statistics.median(reference_seconds() for _ in range(9)) / REFERENCE_S
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns, "slowdown": setup_slowdown}))
        return 0

    ledger = Ledger(module)
    if args.trace:
        out_path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        metrics = trace(module, jobs, ledger, out_path)
    else:
        metrics = measure(module, jobs, args.seconds, ledger)
    value, matches = ledger.digest_verdict(args.workload, args.seed)
    print(json.dumps({
        "ready_ns": ready_ns,
        "slowdown": setup_slowdown,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "digest": value,
        "digest_matches_pin": matches,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
