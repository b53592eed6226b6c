"""Does the benchmark agree with itself?  Two sets of runs of the same code.

    python3 benchmarks/e2e/agree.py [--runs 3] [--seed 7] [--seconds N] [--quick]

Each set runs every workload ``--runs`` times, untraced, one process per run,
run ``i`` with seed ``--seed + i`` (the same seeds in both sets); the second set
walks the workloads in the opposite order.  For every end-to-end metric on
every workload the two sets' medians must lie within the metric's own bound of
each other.  A metric whose spread inside a set (quartile distance over
median) exceeds its bound is ``unresolved``, never ``unchanged``: the benchmark
cannot tell a change of that size from its own noise.  Exits non-zero unless
every row reads ``agree``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import spec, stats  # noqa: E402  (needs the path above)


def verdict(first: List[float], second: List[float], better: str, bound: float) -> str:
    """``agree``, ``DISAGREE`` or ``unresolved`` for one metric on one workload."""
    if max(stats.relative_spread(first), stats.relative_spread(second)) > bound:
        return "unresolved"
    a, b = stats.median(first), stats.median(second)
    worse, reference = (max(a, b), min(a, b)) if better == "lower" else (min(a, b), max(a, b))
    return "agree" if abs(worse - reference) <= bound * abs(reference) else "DISAGREE"


def _run_once(workload: str, seed: int, args) -> Dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"agree.py: {workload} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"agree.py: {workload} failed {result['failed']} operations")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _run_set(order: List[str], args) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for number in range(args.runs):
        for workload in order:
            for metric, value in _run_once(workload, args.seed + number, args).items():
                values.setdefault((workload, metric), []).append(value)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3, help="runs per workload per set (>= 2)")
    parser.add_argument("--seed", type=int, default=7, help="seed of each set's first run")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("a set needs at least two runs to have a spread")

    order = list(spec.WORKLOADS)
    first = _run_set(order, args)
    second = _run_set(order[::-1], args)

    bad = 0
    print(f"{'workload':<20}{'metric':<16}{'set 1':>12}{'set 2':>12}{'spread':>9}{'bound':>7}  verdict")
    for workload in order:
        for entry in spec.END_TO_END:
            metric, bound = entry["name"], float(entry["bound"])
            a, b = first[(workload, metric)], second[(workload, metric)]
            outcome = verdict(a, b, entry["better"], bound)
            bad += outcome != "agree"
            spread = max(stats.relative_spread(a), stats.relative_spread(b))
            print(
                f"{workload:<20}{metric:<16}{stats.median(a):>12.4f}{stats.median(b):>12.4f}"
                f"{spread:>9.3f}{bound:>7.2f}  {outcome}"
            )
    print("every row agrees" if not bad else f"{bad} rows do not agree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
