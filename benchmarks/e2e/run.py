"""The repository's end-to-end benchmark of record (see README.md beside this file).

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 benchmarks/e2e/run.py --workload cold_recommend --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit, checks every output, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1``
reports the per-layer metrics instead of the end-to-end ones.

Everything, each workload in its own process, untraced then traced::

    python3 benchmarks/e2e/run.py --all [--seed N] [--out DIR] [--quick]
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space (artifact stores, default ``--out``); inside the checkout, git-ignored.
WORK = HERE / ".work"

#: One client, one process, no threads: BLAS pools would contend for the 2 vCPUs.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 7
QUICK_SECONDS = 2


def _import_harness():
    """Import the harness, numpy and ``repro`` with it, under a started host-speed sampler.

    Returns ``(runner, sampler, seconds the imports took on the quiet host)``.
    The sampler needs numpy, so numpy's own import is scaled by the slowdown
    seen during the rest.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for variable in THREAD_ENV:
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    from e2ebench.hostspeed import HostSpeed

    numpy_s = time.perf_counter() - started
    speed = HostSpeed()
    speed.start()
    rest = speed.timed(importlib.import_module, "e2ebench.runner")
    return rest.result, speed, (numpy_s + rest.seconds) / (rest.window.slowdown or 1.0)


def _git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None if done.returncode == 0 else None


def _host_facts() -> Dict[str, object]:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": [
            lib.get("name")
            for lib in numpy.show_config(mode="dicts").get("Build Dependencies", {}).values()
            if isinstance(lib, dict)
        ],
        "threads": {variable: os.environ.get(variable) for variable in THREAD_ENV},
        "platform": platform.platform(),
    }


def _print_timing(label: str, blocks) -> Dict[str, float]:
    """Latency on the quiet host (what is reported) beside the raw wall-clock distribution."""
    from e2ebench import runner, stats

    summary = stats.summarize([s * 1e3 for s in runner.wall_seconds(blocks)])
    summary["latency"] = runner.latency(blocks) * 1e3
    summary["wait"] = stats.median(runner.wait_seconds(blocks)) * 1e3
    summary["host_slowdown"] = runner.host_slowdown(blocks)
    summary["blocks"] = len(blocks)
    print(
        f"{label}: {summary['latency']:.4f} ms on the quiet host ({summary['blocks']} blocks, "
        f"host slowed x{summary['host_slowdown']:.3f}); as it ran: median "
        f"{summary['median']:.4f} ms of which {summary['wait']:.4f} ms off the processor, "
        f"p{summary['tail_pct']:g} {summary['tail']:.4f} ms, IQR {summary['iqr']:.4f} ms, "
        f"n={summary['n']}"
    )
    return summary


def _print_stage_table(label: str, profiles) -> None:
    """Per span name: calls per operation, busy and self share of the wall clock.

    The self column, with the uncovered row, sums to 100% of the operation.
    """
    names = sorted({name for profile in profiles for name in profile.calls})
    count = len(profiles)
    print(f"{label + ', ' + str(count) + ' traced':<36}{'calls/op':>10}{'busy %':>9}{'self %':>9}")
    for name in names:
        calls = sum(p.calls.get(name, 0) for p in profiles) / count
        busy = sum(100.0 * p.busy.get(name, 0.0) / p.wall for p in profiles) / count
        own = sum(100.0 * p.self_time.get(name, 0.0) / p.wall for p in profiles) / count
        print(f"  {name:<34}{calls:>10.1f}{busy:>9.2f}{own:>9.2f}")
    uncovered = sum(100.0 * p.uncovered / p.wall for p in profiles) / count
    print(f"  {'(no span: harness, glue)':<34}{'':>10}{'':>9}{uncovered:>9.2f}")


def _run_single(args) -> int:
    from e2ebench import spec

    if args.workload not in spec.WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")
    runner, speed, import_s = _import_harness()
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    traced = bool(args.trace)
    if args.quick:
        print("QUICK MODE: smoke sizing, numbers are not comparable with anything")
        seconds = min(seconds, QUICK_SECONDS)
    try:
        measurement = runner.run_workload(
            args.workload,
            args.seed,
            seconds,
            traced,
            workdir=WORK / f"{args.workload}-{os.getpid()}",
            speed=speed,
            import_s=import_s,
            quick=args.quick,
        )
    finally:
        speed.stop()

    print(f"workload {args.workload} seed {args.seed} seconds {seconds} trace {int(traced)}")
    for part, value in measurement.setup.items():
        print(f"setup.{part}: {value:.4f} s")
    operations = spec.OPERATIONS[args.workload]
    summaries = {}
    for key, label in operations.items():
        summaries[key] = _print_timing(f"{key} ({label})", measurement.plain[key])
    if traced:
        for key, label in operations.items():
            summaries[f"trace.{key}"] = _print_timing(
                f"traced {key}", measurement.traced_blocks[key]
            )
            _print_stage_table(f"{key} ({label})", measurement.profiles[key])
    print(f"front_sha: {measurement.front_sha} ({measurement.front_size} plans)")
    print(f"front_hv: {measurement.front_hv!r} ratio")
    for key, index, defects in measurement.failures[:10]:
        print(f"FAILED {key} {index}: {'; '.join(defects)}")

    if traced:
        values = measurement.per_layer
        units = {name: unit for name, (unit, _) in spec.PER_LAYER.items()}
    else:
        values = measurement.end_to_end()
        units = {entry["name"]: entry["unit"] for entry in spec.END_TO_END}
    if set(values) != set(units):
        raise SystemExit(
            f"run.py: measured and declared metrics differ: {sorted(set(values) ^ set(units))}"
        )
    for name in units:
        print(f"{name}: {values[name]!r} {units[name]}")

    result = {
        "correct": not measurement.failures,
        "attempted": measurement.attempted,
        "failed": len(measurement.failures),
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}_trace{int(traced)}"
        record = {
            **_host_facts(),
            "argv": sys.argv[1:],
            "workload": args.workload,
            "operations": operations,
            "seed": args.seed,
            "seconds": seconds,
            "quick": args.quick,
            "setup": measurement.setup,
            "front_sha": measurement.front_sha,
            "front_hv": measurement.front_hv,
            "timings": summaries,
            "failures": measurement.failures,
            "result": result,
        }
        (out / f"metadata_{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
        with open(out / f"run_{tag}.jsonl", "w") as handle:
            for kind, legs in (("plain", measurement.plain), ("traced", measurement.traced_blocks)):
                for key, blocks in legs.items():
                    for number, block in enumerate(blocks):
                        record = {
                            "kind": kind, "operation": key, "block": number,
                            "host_slowdown": block.window.slowdown, "slices": block.window.slices,
                            "slice_parts_s": block.window.parts,
                            "seconds": block.samples, "waited": block.waits,
                        }
                        handle.write(json.dumps(record) + "\n")
        if traced:
            with open(out / f"trace_{args.workload}.jsonl", "w") as handle:
                for span in measurement.spans:
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process (own peak RSS, own caches): untraced, then traced."""
    from e2ebench import spec

    out = Path(args.out) if args.out else WORK / f"out-{os.getpid()}"
    names = list(spec.WORKLOADS)
    if args.quick:
        print("QUICK MODE: smoke sizing, numbers are not comparable with anything")
    summary: Dict[str, Dict[str, object]] = {}
    for name in names:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace), "--out", str(out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"run.py: {name} (trace {trace}) exited {done.returncode}")
            tag = f"{name}_trace{trace}"
            summary[tag] = json.loads((out / f"metadata_{tag}.json").read_text())
            print()
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    failed = sum(record["result"]["failed"] for record in summary.values())
    print(f"wrote {out}/summary.json; operations failed: {failed}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="seconds one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for metadata, per-operation samples and spans")
    parser.add_argument("--quick", action="store_true", help="smoke sizing; not for comparison")
    parser.add_argument(
        "--write-spec", action="store_true", help="regenerate BENCHMARK.json from spec.py"
    )
    args = parser.parse_args(argv)
    if args.write_spec:
        if args.quick:
            parser.error("--quick never writes BENCHMARK.json")
        from e2ebench import spec

        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME or --all")
    return _run_all(args) if args.all else _run_single(args)


if __name__ == "__main__":
    sys.exit(main())
