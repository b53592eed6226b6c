"""Spies on what a durable object decodes — the counters of ``test_durable_forms.py``.

A journaled ``SearchResult`` keeps its archive packed until somebody asks, and a
stored ``CompiledTraceSet`` carries no trace; "nobody asked" and "nothing was
carried" are only checkable by counting what got built.
"""

from collections import Counter
from contextlib import contextmanager
from unittest import mock

from repro.quality import PlanQuality
from repro.telemetry.tracing import Trace


@contextmanager
def decode_spies():
    """Count, while the block runs, every ``PlanQuality`` unpickled (``"results"``)
    and every ``Trace`` constructed or unpickled (``"traces"``)."""
    counts = Counter()

    def counting(cls, method, what):
        real = getattr(cls, method)

        def spy(self, *args, **kwargs):
            counts[what] += 1
            return real(self, *args, **kwargs)

        return mock.patch.object(cls, method, spy)

    def trace_setstate(self, state):  # Trace has none of its own: pickle updates __dict__
        counts["traces"] += 1
        self.__dict__.update(state)

    with (
        counting(PlanQuality, "__setstate__", "results"),
        counting(Trace, "__init__", "traces"),
        mock.patch.object(Trace, "__setstate__", trace_setstate, create=True),
    ):
        yield counts
