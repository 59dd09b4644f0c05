"""Dynamic-network counting never accepts a count below ``n``.

The leader used to accept a candidate ``c`` once the levels ``c − 1``
rounds old agreed on it — but those levels are only known to be
complete when ``c >= n``, so a candidate that was too small could
certify itself.  On the specs below (found by the gateway parity
property and a seed sweep) the leader accepted 2 on a 4-ring, three
processors halted with 2 and the fourth never halted.  The leader now
proves a level complete from certified size bounds before it trusts the
level's count.
"""

from __future__ import annotations

import pytest

from repro.algorithms.counting_dynamic import _Store, _try_accept
from repro.core import RingConfiguration
from repro.runtime import RunSpec, execute
from repro.topology import TopologySpec


def _spec(inputs, seed, churn=0.5, path_rate=0.3, budget=None) -> RunSpec:
    return RunSpec.make(
        engine="sync",
        ring=RingConfiguration.oriented(tuple(inputs)),
        algorithm="dynamic-counting",
        topology=TopologySpec("dynamic-ring", seed=seed, churn=churn, path_rate=path_rate),
        budget=budget,
    )


REGRESSIONS = [((0, 0, 1, 0), 128)] + [
    ((1, 0, 0, 0), seed) for seed in (46, 97, 133, 144, 291, 295, 298)
] + [((0, 1, 0, 0), 32)]


@pytest.mark.parametrize(
    "inputs,seed", REGRESSIONS, ids=[f"{''.join(map(str, i))}-seed{s}" for i, s in REGRESSIONS]
)
def test_former_wrong_counts_terminate_with_n(inputs, seed):
    result = execute(_spec(inputs, seed))
    assert result.outputs == (4, 4, 4, 4)
    assert result.cycles <= 3 * 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("churn,path_rate", [(1.0, 0.0), (0.5, 0.3), (0.3, 1.0)])
def test_seed_sweep_counts_exactly(n, churn, path_rate):
    """Every leader position and seed: all outputs ``n``, within ``3n`` rounds.

    Paths (``path_rate=1.0``) are where a short view most often looked
    like a complete smaller network.
    """
    for leader in range(n):
        inputs = [0] * n
        inputs[leader] = 1
        for seed in range(12):
            result = execute(_spec(inputs, seed, churn, path_rate, budget=3 * n))
            assert result.outputs == (n,) * n, (leader, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_static_ring_counts_exactly(n):
    inputs = (1,) + (0,) * (n - 1)
    spec = RunSpec.make(
        engine="sync", ring=RingConfiguration.oriented(inputs), algorithm="dynamic-counting"
    )
    assert execute(spec).outputs == (n,) * n


def test_a_view_that_fits_a_smaller_ring_is_not_accepted():
    """Round 2 on a 4-path whose leader sits at one end.

    The leader's one neighbor heard the leader and one other processor,
    so the equations of level 1 balance at a total of 2 — the old rule
    accepted 2 here.  Nothing bounds the classes the leader has not
    heard of yet, so no level is proven complete.
    """
    store = _Store()
    chain = [store.intern0(1)]
    other = store.intern0(0)
    # Round 1: the leader heard its neighbor; the neighbor heard both
    # the leader and a third processor.
    chain.append(store.intern(1, chain[0], ((other, 1),)))
    neighbor = store.intern(1, other, tuple(sorted(((chain[0], 1), (other, 1)))))
    # Round 2: the leader heard its neighbor's level-1 class.
    chain.append(store.intern(2, chain[1], ((neighbor, 1),)))
    assert _try_accept(store, chain, 2) is None
