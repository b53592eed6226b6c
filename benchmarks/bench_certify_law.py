"""The certificate law: the adversary's worst case is the exhaustive grid's.

``docs/architecture.md`` decision record №10 states what a certificate scores: the
stress families plus the all-severe corners (every severity knob at its bound, once
per outage choice).  That is sound because every built-in score is monotone in each
knob at a fixed outage choice (``tests/test_faults.py::TestFaultMonotonicity``).
This script checks the consequence on the knees the advisor actually certifies.  The
law was fixed before anything was measured:

* **Cells.**  Application × topology: the social network and hotel reservation on
  the end-to-end benchmark's testbed at its ``--quick`` sizing
  (``e2ebench.inputs.QUICK_PARAMS``), with N ∈ {2, 3} locations.
* **Knees.**  Seed ``s`` of :data:`SEEDS` builds the cell's testbed (telemetry and GA
  seed from ``s``), runs one cold ``Atlas.recommend(certify=True)`` — the default
  budget — and takes its knee plan and certificate.
* **Grid.**  Every point of {neutral, mid, severe} per knob — rate, payload, link
  (latency up, bandwidth down, together), egress price, compute price (the storage
  price moves with it), capacity of every billable site (cut together) — × every
  outage choice (none, or one remote site down), at
  :class:`~repro.quality.adversary.AdversaryBounds`' defaults, baseline excluded:
  2 186 specs at N = 3, 1 457 at N = 2.  Each is scored through the
  knee's evaluator (``evaluate_under``) and the certificate's documented
  scalarization, computed here: positive regret over the fault-free baseline,
  normalized by ``max(|baseline|, 1)``, summed, plus the infeasibility surcharge.
* **Law.**  Equal on every knee: the certificate's ``worst_regret`` is the grid's
  maximum, bit for bit.  Probes per certificate (``budget_spent``), the share of
  knees that survive their worst case and the wall time are printed beside it.

``--quick`` runs :data:`QUICK_SEED` per cell (≈ 30 s on 2 vCPU; the law ≈ 15 min).  Usage::

    PYTHONPATH=src python benchmarks/bench_certify_law.py           # the law, 30 seeds per cell
    PYTHONPATH=src python benchmarks/bench_certify_law.py --quick   # one seed per cell
    PYTHONPATH=src python -m pytest benchmarks/bench_certify_law.py -q  # --quick, as a test
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from e2ebench import inputs  # noqa: E402

from repro.analysis.testbed import build_testbed  # noqa: E402
from repro.cluster import ON_PREM  # noqa: E402
from repro.quality import (  # noqa: E402
    AdversaryBounds,
    CapacityCut,
    LinkDegradation,
    LocationOutage,
    PriceShock,
    ScenarioSpec,
)

APPLICATIONS = ("social-network", "hotel-reservation")
N_LOCATIONS = (2, 3)
#: Thirty seeded knees per cell.
SEEDS = tuple(range(3501, 3531))
#: The one seed per cell of ``--quick``.
QUICK_SEED = 3501


def grid_specs(evaluator, bounds: AdversaryBounds) -> Iterator[ScenarioSpec]:
    """Every non-baseline {neutral, mid, severe} point × outage choice."""

    def levels(neutral: float, severe: float):
        return (neutral, (neutral + severe) / 2.0, severe)

    cut_sites = sorted(evaluator.cost.catalogs)
    outages = [None] + [loc for loc in evaluator.performance.network.locations() if loc != ON_PREM]
    links = list(
        zip(
            levels(1.0, bounds.max_latency_factor),
            levels(1.0, bounds.min_bandwidth_factor),
        )
    )
    for rate, payload, link, egress, compute, capacity, outage in itertools.product(
        levels(1.0, bounds.max_rate_scale),
        levels(1.0, bounds.max_payload_scale),
        links,
        levels(1.0, bounds.max_price_factor),
        levels(1.0, bounds.max_price_factor),
        levels(1.0, bounds.min_capacity_fraction),
        outages,
    ):
        faults = [] if outage is None else [LocationOutage(outage)]
        if link != (1.0, 1.0):
            faults.append(LinkDegradation(latency_factor=link[0], bandwidth_factor=link[1]))
        if egress != 1.0 or compute != 1.0:
            faults.append(
                PriceShock(compute_factor=compute, storage_factor=compute, egress_factor=egress)
            )
        if capacity != 1.0:
            faults.extend(CapacityCut(site, remaining_fraction=capacity) for site in cut_sites)
        spec = ScenarioSpec(
            name="grid", rate_scale=rate, payload_scale=payload, faults=tuple(faults)
        )
        if not spec.is_baseline:
            yield spec


def scalarized(baseline, quality, bounds: AdversaryBounds) -> float:
    """The certificate's documented scalarization of one scored spec."""
    score = sum(
        max(worst - base, 0.0) / max(abs(base), 1.0)
        for worst, base in zip(quality.objectives(), baseline.objectives())
    )
    if baseline.feasible and not quality.feasible:
        score += bounds.infeasibility_penalty
    return score


def knee_of_seed(application: str, n_locations: int, seed: int) -> Dict[str, object]:
    """One cell's knee at ``seed``: its certificate against the exhaustive grid."""
    testbed = build_testbed(
        seed=seed,
        ga_seed=seed,
        **dict(inputs.QUICK_PARAMS, application=application, n_locations=n_locations),
    )
    answer = testbed.atlas.recommend(expected_scale=testbed.expected_scale, certify=True)
    certificate = answer.certificate
    plan = answer.knee_point().plan
    evaluator = answer.evaluator
    bounds = AdversaryBounds()
    started = time.perf_counter()
    baseline = evaluator.evaluate_under(plan, ScenarioSpec(name="baseline"))
    scores = [
        scalarized(baseline, evaluator.evaluate_under(plan, spec), bounds)
        for spec in grid_specs(evaluator, bounds)
    ]
    return {
        "application": application,
        "n_locations": n_locations,
        "seed": seed,
        "worst_regret": certificate.worst_regret,
        "grid_max": max(scores),
        "grid_specs": len(scores),
        "equal": certificate.worst_regret == max(scores),
        "probes": certificate.budget_spent,
        "survives": certificate.survives,
        "worst_spec": certificate.worst_spec.name,
        "grid_s": time.perf_counter() - started,
    }


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    lines = [
        "| application | N | knees | equal | probes per certificate | survive | grid specs | grid s per knee |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for application in APPLICATIONS:
        for n_locations in N_LOCATIONS:
            cell = [
                r for r in rows if (r["application"], r["n_locations"]) == (application, n_locations)
            ]
            probes = sorted({r["probes"] for r in cell})
            lines.append(
                f"| {application} | {n_locations} | {len(cell)} "
                f"| {sum(r['equal'] for r in cell)}/{len(cell)} "
                f"| {'/'.join(str(p) for p in probes)} "
                f"| {sum(r['survives'] for r in cell)}/{len(cell)} | {cell[0]['grid_specs']} "
                f"| {statistics.fmean(r['grid_s'] for r in cell):.2f} |"
            )
    return "\n".join(lines)


def run(seeds: Sequence[int]) -> List[Dict[str, object]]:
    started = time.perf_counter()
    rows = [
        knee_of_seed(application, n_locations, seed)
        for application in APPLICATIONS
        for n_locations in N_LOCATIONS
        for seed in seeds
    ]
    print(format_table(rows))
    equal = sum(r["equal"] for r in rows)
    print(
        f"equal knees {equal}/{len(rows)} ({100.0 * equal / len(rows):.1f}%), "
        f"survive {sum(r['survives'] for r in rows)}/{len(rows)}, "
        f"wall {time.perf_counter() - started:.1f} s"
    )
    return rows


def check(rows: Sequence[Dict[str, object]]) -> None:
    unequal = [
        (r["application"], r["n_locations"], r["seed"], r["worst_regret"], r["grid_max"])
        for r in rows
        if not r["equal"]
    ]
    assert not unequal, f"certificates below the exhaustive grid's worst case: {unequal}"


def test_the_certificate_is_the_grid_worst_case_at_one_seed_per_cell():
    check(run((QUICK_SEED,)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"one seed per cell ({QUICK_SEED})")
    parser.add_argument("--json", help="also write every knee's numbers to this file")
    args = parser.parse_args(argv)
    rows = run((QUICK_SEED,) if args.quick else SEEDS)
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=1))
    check(rows)
    print("certificate law: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
