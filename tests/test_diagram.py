"""ASCII space–time diagrams."""

from __future__ import annotations

import pytest

from repro.algorithms.sync_and import SyncAnd
from repro.core import RingConfiguration
from repro.core.diagram import message_density, space_time_diagram
from repro.runtime import RunSpec, execute
from repro.sync import run_synchronous


def recorded_run(bits):
    config = RingConfiguration.oriented(bits)
    return config, execute(RunSpec.make("sync", config, "sync-and", record=True))


class TestSpaceTime:
    def test_renders(self):
        config, result = recorded_run([0, 1, 1, 1, 0])
        art = space_time_diagram(config, result)
        assert "cyc |" in art
        assert "legend:" in art
        assert ">" in art or "<" in art or "x" in art

    def test_halts_marked(self):
        config, result = recorded_run([1, 1, 1])
        art = space_time_diagram(config, result)
        assert "*" in art

    def test_requires_log(self):
        config = RingConfiguration.oriented([0, 1, 1])
        result = run_synchronous(config, SyncAnd)  # not recorded
        with pytest.raises(ValueError, match="record=True"):
            space_time_diagram(config, result)

    def test_silent_run_ok_without_log(self):
        config = RingConfiguration.oriented([1, 1, 1])
        result = run_synchronous(config, SyncAnd)  # zero messages, no stream needed
        art = space_time_diagram(config, result)
        assert "0 messages total" in art

    def test_truncation(self):
        config, result = recorded_run([0] * 6)
        art = space_time_diagram(config, result, max_cycles=0)
        assert art.count("\n") < 10

    def test_payload_legend(self):
        config, result = recorded_run([0, 1, 1])
        art = space_time_diagram(config, result, show_payloads=True)
        assert "p0" in art


class TestDensity:
    def test_sparkline(self):
        _config, result = recorded_run([0, 1, 1, 1, 1, 1, 1])
        line = message_density(result)
        assert len(line) == 10

    def test_empty(self):
        _config, result = recorded_run([1, 1, 1])
        assert message_density(result) == "(no messages)"


class TestFaultMarks:
    """Dropped and duplicated messages render distinctly (repro.obs)."""

    def _drop_stream(self):
        """A drop-profile run (which deadlocks) recorded up to its death."""
        import random

        from repro.asynch.simulator import run_asynchronous
        from repro.core.errors import ReproError
        from repro.obs import CLOCK_LAMPORT, EventRecorder, result_from_events
        from repro.runtime.registry import algorithm
        from repro.runtime.spec import RunSpec, build_adversary, build_scheduler

        ring = RingConfiguration.random(6, random.Random(1), oriented=True)
        spec = RunSpec.make(
            engine="async",
            ring=ring,
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="round-robin",
            fault_profile="drop",
            fault_seed=1,
        )
        recorder = EventRecorder(clock=CLOCK_LAMPORT)
        with pytest.raises(ReproError):
            run_asynchronous(
                ring,
                algorithm(spec.algorithm).factory(assume_oriented=True),
                scheduler=build_scheduler(spec),
                adversary=build_adversary(spec),
                recorder=recorder,
            )
        events = recorder.events
        return ring, result_from_events(events, ring.n), events

    def _dup_stream(self):
        """A completing dup-profile election with recorded duplicates."""
        import random

        from repro.core.diagram import space_time_diagram  # noqa: F401
        from repro.runtime.spec import RunSpec, execute

        labels = list(range(1, 6))
        random.Random(0).shuffle(labels)
        ring = RingConfiguration.oriented(tuple(labels))
        spec = RunSpec.make(
            engine="async",
            ring=ring,
            algorithm="chang-roberts",
            scheduler="random",
            scheduler_seed=0,
            fault_profile="dup",
            fault_seed=1,
            record=True,
        )
        result = execute(spec)
        assert result.stats.duplicated > 0
        return ring, result

    def test_drop_profile_marks_and_legend(self):
        ring, rebuilt, events = self._drop_stream()
        assert rebuilt.stats.dropped > 0
        art = space_time_diagram(ring, rebuilt, events=events)
        assert "!" in art
        assert "! dropped delivery" in art

    def test_dup_profile_marks_and_legend(self):
        ring, result = self._dup_stream()
        art = space_time_diagram(ring, result)  # events ride on the result
        assert "+" in art
        assert "+ duplicate" in art

    def test_faultless_run_keeps_plain_legend(self):
        # All zeros: nobody halts while a neighbor still sends, so no
        # delivery is lost (0111, below, loses two at halted receivers).
        config, result = recorded_run([0, 0, 0, 0])
        art = space_time_diagram(config, result)
        assert "dropped delivery" not in art and "+ duplicate" not in art

    def test_sends_to_halted_receivers_are_dropped_deliveries(self):
        """A fault-free run marks ``!`` where a send reaches a processor
        that has already halted, and its density tail counts the same
        drops, although the synchronous engine's counters track sends
        only."""
        config, result = recorded_run([0, 1, 1, 1])
        assert result.halt_times == (1, 2, 3, 2)
        assert result.stats.dropped == 0
        rows = space_time_diagram(config, result).splitlines()
        # Cycle 2: processor 2 sends both ways; 1 and 3 halt that cycle.
        assert rows[4].split() == ["2", "|", ".", "*!", "x", "*!"]
        assert "! dropped delivery" in rows[-1]
        assert message_density(result).endswith(" (2 dropped, 0 duplicated)")

    def test_density_annotates_fault_counters(self):
        _ring, result = self._dup_stream()
        line = message_density(result)
        assert f"{result.stats.duplicated} duplicated" in line
        assert "dropped" in line

    def test_density_quiet_without_faults(self):
        _config, result = recorded_run([0, 1, 1, 1, 1, 1, 1])
        assert "dropped" not in message_density(result)
