"""Property tests: topology runs are deterministic everywhere they run.

A spec with a :class:`TopologySpec` (or ``message_mode="oblivious"``)
must be a pure function of its coordinates: the per-round layouts come
from ``random.Random(f"topology|{seed}|{cycle}")``, never from process
state, so byte-identical results are required across worker counts
(``jobs`` 1/2/4 fan specs over a ``multiprocessing`` pool), across
batching (a spec alone vs buried in a mixed batch), and across the HTTP
gateway (a different thread, serializing over a socket).  Pickle
equality is the strongest practical proxy for byte-identity here — it
covers outputs, TraceStats, halt times and cycle counts at once.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RingConfiguration
from repro.runtime import Runner, RunSpec
from repro.topology import TopologySpec


def _leader_ring(n: int, leader: int) -> RingConfiguration:
    inputs = [0] * n
    inputs[leader] = 1
    return RingConfiguration.oriented(tuple(inputs))


@st.composite
def counting_specs(draw) -> RunSpec:
    """A dynamic-counting or oblivious-counting spec on a small ring."""
    n = draw(st.integers(min_value=2, max_value=6))
    ring = _leader_ring(n, draw(st.integers(min_value=0, max_value=n - 1)))
    if draw(st.booleans()):
        return RunSpec.make(
            engine="sync",
            ring=ring,
            algorithm="dynamic-counting",
            topology=TopologySpec(
                kind="dynamic-ring",
                seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
                churn=draw(st.sampled_from([1.0, 0.5])),
                path_rate=draw(st.sampled_from([0.0, 0.3])),
            ),
        )
    return RunSpec.make(
        engine="sync",
        ring=ring,
        algorithm="oblivious-counting",
        message_mode="oblivious",
    )


def _filler_specs() -> list:
    """Unrelated specs to bury the probe in (exercises batch routing)."""
    return [
        RunSpec.make(
            engine="sync-batch",
            ring=RingConfiguration.oriented((1, 0, 1, 1)),
            algorithm="sync-and",
        ),
        RunSpec.make(
            engine="sync",
            ring=RingConfiguration.oriented((1, 1, 0)),
            algorithm="sync-and",
        ),
    ]


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(spec=counting_specs())
    def test_rerun_is_pickle_identical_and_correct(self, spec):
        first = Runner().run_specs([spec])[0]
        second = Runner().run_specs([spec])[0]
        assert pickle.dumps(first) == pickle.dumps(second)
        assert all(out == spec.ring.n for out in first.outputs)

    @settings(max_examples=15, deadline=None)
    @given(spec=counting_specs())
    def test_alone_equals_batched(self, spec):
        alone = Runner().run_specs([spec])[0]
        batch = _filler_specs() + [spec] + _filler_specs()
        buried = Runner().run_specs(batch)[2]
        assert pickle.dumps(alone) == pickle.dumps(buried)

    @settings(max_examples=4, deadline=None)
    @given(spec=counting_specs())
    def test_jobs_1_2_4_are_byte_identical(self, spec):
        batch = [spec] + _filler_specs()
        baseline = Runner(jobs=1).run_specs(batch)
        for jobs in (2, 4):
            fanned = Runner(jobs=jobs).run_specs(batch)
            assert pickle.dumps(fanned) == pickle.dumps(baseline)


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    from repro.runtime import ResultCache
    from repro.serve import ServerThread

    cache = ResultCache(tmp_path_factory.mktemp("gateway-cache"))
    with ServerThread(cache=cache) as server:
        yield server


class TestGatewayParity:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(spec=counting_specs())
    def test_gateway_result_equals_local(self, gateway, spec):
        from repro.serve import submit_specs

        (outcome,) = submit_specs(gateway.url, [spec])
        assert outcome.status in ("done", "cached")
        assert outcome.digest == spec.digest()
        local = Runner().run_specs([spec])[0]
        assert pickle.dumps(outcome.result) == pickle.dumps(local)
