"""The golden-fingerprint suite: one parametrized home for the fixed-seed contracts.

**Fixed-seed determinism**, enforced in-session (two independently built stacks,
never hardcoded hashes): every registered golden run (GA with DRL and uniform
crossover, affinity NSGA-II, random search) fingerprints identically across two
from-scratch builds of the tiny stack.

Future refactors of the evaluator/optimizer stack assert against this suite (and
the shared helpers in ``fingerprints.py``) instead of growing new private copies.
"""

import pytest
from fingerprints import GOLDEN_RUNS


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

