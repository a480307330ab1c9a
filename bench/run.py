"""stlobs benchmark.

    python3 bench/run.py --workload csv-wide --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, runs the `stlobs` CLI from this
checkout's `src/` as a child process, checks every output, and prints each
metric with its unit. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. `--trace 0` reports the
end-to-end metrics of an untraced run; `--trace 1` makes a separate traced
run in this process and reports the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from drive import (
    Cli,
    check_setup,
    clock,
    file_pass,
    live_pass,
    percentile,
)
from inputs import WORKLOADS, generate
from verify import import_stlobs, oracle_disagreements

# Set-up probes taken before each pass and after the last one, so that their
# median spans the run rather than one moment of it. Probes and passes
# alternate between the two CPUs (`Cli.swap`).
SETUP_PROBES = 6

END_TO_END_UNITS = {"setup_s": "s", "op_p90_us": "us", "peak_rss_mb": "MB"}
OPS_NAMES = {
    "csv-wide": "rows_per_s",
    "jsonl-latch": "rows_per_s",
    "live-stdin": "round_trips_per_s",
}


def measure(workload: str, seed: int, seconds: float, root: Path, work: Path) -> dict:
    """Untraced run: end-to-end metrics of the workload."""
    cli = Cli(root, work)
    live = workload == "live-stdin"
    try:
        inp = generate(workload, seed, work)
        cli.warm()
        probes, passes = [], []
        start = clock()
        while True:
            for _ in range(SETUP_PROBES):
                probes.append(check_setup(cli, inp, live))
                cli.swap()
            if passes and clock() - start >= seconds:
                break
            passes.append(live_pass(cli, inp) if live else file_pass(cli, inp))
            cli.swap()
    finally:
        cli.close()

    wrong = oracle_disagreements(import_stlobs(root), inp)
    failed = sum(not ok for _, ok in probes) + sum(len(p.bad | wrong) for p in passes)
    attempted = len(probes) + sum(p.attempted for p in passes)
    op_us = [us for p in passes for us in p.op_us]
    metrics = {
        "setup_s": statistics.median(t for t, _ in probes),
        "op_p90_us": percentile(op_us, 0.9),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    # Figures whose run-to-run spread on a shared host is too wide to bound;
    # printed for reading, not part of the result line.
    report = {
        "passes": len(passes),
        "failed_share": failed / attempted,
        OPS_NAMES[workload]: statistics.median(p.ops_per_s for p in passes),
        "op_p50_us": percentile(op_us, 0.5),
        "op_samples": len(op_us),
        **{f"input.{k}": v for k, v in inp.stats().items()},
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "report": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "stlobs" / "cli.py").is_file():
        print(f"no stlobs sources under {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            from layers import traced

            result = traced(args.workload, args.seed, root, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in result["report"].items():
        print(f"  {name:34s} {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
