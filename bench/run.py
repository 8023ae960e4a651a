"""clonelab benchmark: closed-loop workloads over the library's public API.

    python3 bench/run.py --workload finite-mix --seed 1 --seconds 20 --trace 0

Each run starts a fresh interpreter for the workload (bench/worker.py),
so set-up time and peak memory belong to that workload alone.  Set-up is
timed from process start until the workload's inputs are built; it is
sampled several times and the median is reported.  With `--trace 1` the
run reports per-layer metrics from a traced pass instead of the
end-to-end metrics.  Human-readable lines come first; the last line of
standard output is the JSON result.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())  # names and units
SETUP_SAMPLES = 5  # set-up-only processes plus the measuring one
DEADLINE_S = 170


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run the worker; return its JSON result and its set-up seconds,
    scaled to the reference speed like every timing (see worker.py)."""
    start_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, (result["ready_ns"] - start_ns) / 1e9 / result["slowdown"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "clonelab" / "__init__.py").is_file():
        print(f"error: no clonelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--setup-only"], deadline)[1])
    result, setup = spawn(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    raw = result["metrics"]
    if not args.trace:
        setups.append(setup)
        raw["setup_s"] = statistics.median(setups)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in raw]
    if missing:
        raise SystemExit(f"worker did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  latency samples {raw['samples']}, {raw['beyond_p90']} beyond p90")
        print(f"  host slowdown {raw['slowdown']:.4g} (set-up {result['slowdown']:.4g}); unscaled:"
              f" jobs_per_s {raw['raw_jobs_per_s']:.6g}, job_p50_ms {raw['raw_job_p50_ms']:.6g},"
              f" job_p90_ms {raw['raw_job_p90_ms']:.6g}")
    print(f"  fail_ratio {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    pin = {True: "matches the pin", False: "DIFFERS from the pin", None: "no pin for this seed"}
    print(f"  digest {result['digest']} ({pin[result['digest_matches_pin']]})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
