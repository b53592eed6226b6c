"""The golden-fingerprint suite: one parametrized home for the fixed-seed contracts.

Two invariants, each enforced in-session (two independently built stacks, never
hardcoded hashes):

1. **Fixed-seed determinism** — every registered golden run (GA with DRL and
   uniform crossover, affinity NSGA-II, random search) fingerprints identically
   across two from-scratch builds of the tiny stack.
2. **``islands=1`` ≡ serial** — the island-model dispatch layer added by the
   parallel-search PR is invisible at W=1: ``AtlasGA(islands=1).run()`` is
   byte-identical to the direct serial loop it wraps.

Future refactors of the evaluator/optimizer stack assert against this suite (and
the shared helpers in ``fingerprints.py``) instead of growing new private copies.
"""

import pytest
from fingerprints import (
    GOLDEN_GA,
    GOLDEN_RUNS,
    build_tiny_evaluator,
    fingerprint_search_result,
)

from repro.optimizer import AtlasGA


@pytest.fixture(scope="module")
def stack(tiny_telemetry):
    app, result = tiny_telemetry
    return app, result.telemetry


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_run_is_deterministic(name, stack):
    """Two from-scratch stacks replay every golden run to the same fingerprint."""
    app, telemetry = stack
    run = GOLDEN_RUNS[name]
    assert run(app, telemetry) == run(app, telemetry)


class TestIslandsOneIsSerial:
    """The W=1 path of the parallel layer is byte-identical to the serial loop."""

    def test_atlas_ga_islands_one_matches_serial(self, stack):
        app, telemetry = stack
        dispatched = AtlasGA(
            build_tiny_evaluator(app, telemetry),
            app.component_names,
            config=GOLDEN_GA,
            islands=1,
        ).run()
        serial = AtlasGA(
            build_tiny_evaluator(app, telemetry),
            app.component_names,
            config=GOLDEN_GA,
        )._run_serial()
        assert fingerprint_search_result(dispatched) == fingerprint_search_result(
            serial
        )

    def test_invalid_worker_counts_rejected(self, stack):
        app, telemetry = stack
        with pytest.raises(ValueError):
            AtlasGA(build_tiny_evaluator(app, telemetry), app.component_names, islands=0)
