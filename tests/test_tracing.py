"""TraceStats and RunResult accounting."""

from __future__ import annotations

import pytest

from repro.core import OutputDisagreement, RunResult, SimulationError, TraceStats


class TestTraceStats:
    def test_record(self):
        stats = TraceStats()
        stats.record_send(1, 0)
        stats.record_send(4, 0)
        stats.record_send(1, 2)
        assert stats.messages == 3
        assert stats.bits == 6
        assert stats.per_cycle == {0: 2, 2: 1}

    def test_active_cycles(self):
        stats = TraceStats()
        for cycle in (0, 0, 3, 7):
            stats.record_send(1, cycle)
        assert stats.active_cycles == 3
        assert stats.messages_at(0) == 2
        assert stats.messages_at(1) == 0


class TestRecordParity:
    """A recorded run and an unrecorded run of the same spec agree on
    every counter, and the stream holds one ``send`` event per message."""

    @pytest.mark.parametrize(
        "engine,algorithm,scheduler",
        [
            ("sync", "fig2-input-distribution", None),
            ("async", "input-distribution", "round-robin"),
            ("async-synchronized", "input-distribution", None),
        ],
        ids=["sync", "async", "async-synchronized"],
    )
    def test_record_keeps_counters(self, engine, algorithm, scheduler):
        import random

        from repro.core import RingConfiguration
        from repro.runtime import RunSpec, execute

        ring = RingConfiguration.random(9, random.Random(7), oriented=True)
        spec = RunSpec.make(
            engine=engine, ring=ring, algorithm=algorithm, scheduler=scheduler
        )
        bare = execute(spec)
        recorded = execute(spec.with_(record=True))
        assert recorded.outputs == bare.outputs
        assert recorded.stats == bare.stats
        assert sum(e.kind == "send" for e in recorded.events) == bare.stats.messages
        assert bare.events is None


class TestRunResult:
    def test_unanimous(self):
        result = RunResult(outputs=(1, 1, 1), stats=TraceStats())
        assert result.unanimous_output() == 1
        assert result.n == 3

    def test_disagreement_raises(self):
        """Regression: a dedicated error, not a bare ``assert``.

        ``AssertionError`` vanishes under ``python -O`` and is
        indistinguishable from harness bugs; ``OutputDisagreement`` is a
        :class:`SimulationError` and carries the outputs tuple.
        """
        result = RunResult(outputs=(1, 0), stats=TraceStats())
        with pytest.raises(OutputDisagreement) as excinfo:
            result.unanimous_output()
        assert excinfo.value.outputs == (1, 0)
        assert isinstance(excinfo.value, SimulationError)
        assert not isinstance(excinfo.value, AssertionError)
