"""Golden structural digests: the spec-identity regression net.

A :class:`RunSpec`'s cache key is ``sha256(code_version + structural
digest)``; ``code_version`` rotates with every source edit by design, so
the part of spec identity that must stay stable PR over PR is
:meth:`RunSpec.structural_digest` — the SHA-256 of the spec's JSON wire
form (:meth:`RunSpec.to_json_dict`, sorted keys, compact separators).
If any value below changes, every cache entry, recorded fuzz case, and
cross-session artifact keyed by that spec shape is silently orphaned:
that is a breaking change and must be deliberate (update the constant
*and* say so in the change log).

The pinned set covers every engine (sync, sync-batch, async,
async-synchronized) and every spec field: params, schedulers and
seeds, fault profiles, wakeup schedules, budgets, record, dynamic
topologies, content-oblivious message mode, oriented and unoriented
rings.
"""

from __future__ import annotations

import random

from repro.core.ring import RingConfiguration
from repro.runtime.spec import RunSpec
from repro.topology import TopologySpec

#: (name -> structural digest) — update only on a deliberate format break.
GOLDEN = {
    "sync_and_sync": "ac6c37f996cdfc9349c53b90daf9e2623883c7b64373449a486810e236590a6c",
    "sync_and_batch": "f19a0fde3ea6a22f8f2ffd97efd6c0d23f9ebea601f66ee002ae04a8112bf974",
    "sync_and_unoriented": "d1c69ad67b152617db5ce0860ebe012803b544d55d16c4e8d7de6f2e3097c3c1",
    "fig2_sync": "f9480a2ecb4bb0e22072d3c0f3995375adde3e5ab5ba132b5d5a12405e41897e",
    "fig2_batch": "95d99df559856980b23d4d3dd150e8edc6d40bb8218092a23ba23cfc251da2bf",
    "fig2_uni_sync": "f78f2fd00028206fb174a8d94f2cc6ddedb0f00d968a65ed7f980df2350c18f7",
    "quasi_orientation_batch": "a3d21a29e1892b9a8ed1d10fe19357df4d4b1ced9fe4bde3fb4dc00197f9ec6d",
    "start_sync_wakeup": "6d05621db65bcc9ce8ba626320358b5d561a1954b76bb2f4a046143123532be7",
    "start_sync_batch": "a584f4aba5a09e638f5442b95ff63ccb7b0d908960226ec05e750ab672bf5eb7",
    "chang_roberts_sync_batch": "b492790c197e0ebc5f4427df166acb16de8e7089e8200b78bdf5a04d6eb0e00c",
    "sync_and_record": "5f78b2c4ac777bed8905a770b3e80a960c15909fe818db6b13070ced16e9813f",
    "sync_and_budget": "8f2e304e3e7b648ae8123fa6da327afb0210a8a8160f4be08c3d960b8c26b2b3",
    "async_input_distribution": "ffd829857cab9ba33d49fdeeb0403702f43e22c1c62be42b8ddc7eca5d8311b2",
    "async_input_distribution_oriented": "b6dcd264607c38504e21427531f252bfdc1bded1bca49b49190bffdb474a1c86",
    "async_and_random_scheduler": "5ca704dcd75e27fb3b81c27e37ff83921f529f99af66d14549a32bdbd56e9bf5",
    "async_orientation": "965003984556feb303be12e8dc7c07869ce42a4a27abde840aac756be0f4b968",
    "async_chang_roberts_faults": "eaa4e58d1a9b4e63dc52e28d5bad46f87a180ea517104ed2065ec957e0d24768",
    "async_franklin": "68d5c30f40cf91d19d58d77532b4d1bd66069b2906c2e8912d600deca1dc889f",
    "async_bounded_delay": "b8c86ec4a7efafe68c6ac15c34b223c32ff2fadc9526dbf7764533612e6d08ec",
    "async_synchronized": "5daa8e0072f34c6cd85e33b3cd8260c93aa9006a75f879d26c4ab7589d629d70",
    "dynamic_counting": "75cb2a4789796a84fb38dc5520c4ac7aeca1a7ef8a2c12b50173864bfa0970ee",
    "oblivious_counting": "746d8cfed4ccb8c4b68f217630f43c96007408bf3246def79a419be87c770f2b",
}


def _ring(n: int, seed: int = 0, oriented: bool = True) -> RingConfiguration:
    return RingConfiguration.random(n, random.Random(seed), oriented=oriented)


def _labeled(n: int) -> RingConfiguration:
    return RingConfiguration.oriented(tuple(range(1, n + 1)))


def _leader(n: int) -> RingConfiguration:
    return RingConfiguration.oriented((1,) + (0,) * (n - 1))


def golden_specs() -> dict:
    """The pinned spec set, rebuilt fresh (same coordinates every run)."""
    return {
        "sync_and_sync": RunSpec.make(
            engine="sync", ring=_ring(8), algorithm="sync-and"
        ),
        "sync_and_batch": RunSpec.make(
            engine="sync-batch", ring=_ring(8), algorithm="sync-and"
        ),
        "sync_and_unoriented": RunSpec.make(
            engine="sync", ring=_ring(9, 3, oriented=False), algorithm="sync-and"
        ),
        "fig2_sync": RunSpec.make(
            engine="sync", ring=_ring(8, 1), algorithm="fig2-input-distribution"
        ),
        "fig2_batch": RunSpec.make(
            engine="sync-batch", ring=_ring(8, 1), algorithm="fig2-input-distribution"
        ),
        "fig2_uni_sync": RunSpec.make(
            engine="sync", ring=_ring(8, 1), algorithm="fig2-unidirectional"
        ),
        "quasi_orientation_batch": RunSpec.make(
            engine="sync-batch",
            ring=_ring(7, 2, oriented=False),
            algorithm="quasi-orientation",
        ),
        "start_sync_wakeup": RunSpec.make(
            engine="sync",
            ring=RingConfiguration.oriented((0,) * 6),
            algorithm="start-sync",
            wakeup=(0, 2, 1, 3, 0, 2),
        ),
        "start_sync_batch": RunSpec.make(
            engine="sync-batch",
            ring=RingConfiguration.oriented((0,) * 6),
            algorithm="start-sync",
            wakeup=(0, 2, 1, 3, 0, 2),
        ),
        "chang_roberts_sync_batch": RunSpec.make(
            engine="sync-batch", ring=_labeled(8), algorithm="chang-roberts-sync"
        ),
        "sync_and_record": RunSpec.make(
            engine="sync", ring=_ring(8), algorithm="sync-and", record=True
        ),
        "sync_and_budget": RunSpec.make(
            engine="sync", ring=_ring(8), algorithm="sync-and", budget=10_000
        ),
        "async_input_distribution": RunSpec.make(
            engine="async",
            ring=_ring(7, 4, oriented=False),
            algorithm="input-distribution",
            scheduler="round-robin",
        ),
        "async_input_distribution_oriented": RunSpec.make(
            engine="async",
            ring=_ring(7, 4),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="round-robin",
        ),
        "async_and_random_scheduler": RunSpec.make(
            engine="async",
            ring=_ring(6, 5, oriented=False),
            algorithm="and",
            scheduler="random",
            scheduler_seed=11,
        ),
        "async_orientation": RunSpec.make(
            engine="async",
            ring=_ring(7, 6, oriented=False),
            algorithm="orientation",
            scheduler="round-robin",
        ),
        "async_chang_roberts_faults": RunSpec.make(
            engine="async",
            ring=_labeled(6),
            algorithm="chang-roberts",
            scheduler="round-robin",
            fault_profile="drop",
            fault_seed=3,
            fault_horizon=32,
        ),
        "async_franklin": RunSpec.make(
            engine="async", ring=_labeled(6), algorithm="franklin", scheduler="round-robin"
        ),
        "async_bounded_delay": RunSpec.make(
            engine="async",
            ring=_ring(6, 7),
            algorithm="input-distribution",
            scheduler="bounded-delay",
            scheduler_seed=5,
            delay_bound=3,
        ),
        "async_synchronized": RunSpec.make(
            engine="async-synchronized",
            ring=_ring(7, 4),
            algorithm="input-distribution",
            params={"assume_oriented": True},
        ),
        "dynamic_counting": RunSpec.make(
            engine="sync",
            ring=_leader(8),
            algorithm="dynamic-counting",
            topology=TopologySpec(kind="dynamic-ring", seed=7, churn=0.5, path_rate=0.3),
        ),
        "oblivious_counting": RunSpec.make(
            engine="sync",
            ring=_leader(8),
            algorithm="oblivious-counting",
            message_mode="oblivious",
        ),
    }


class TestGoldenDigests:
    def test_every_golden_digest_matches(self):
        specs = golden_specs()
        assert specs.keys() == GOLDEN.keys()
        mismatches = {
            name: (spec.structural_digest(), GOLDEN[name])
            for name, spec in specs.items()
            if spec.structural_digest() != GOLDEN[name]
        }
        assert not mismatches, (
            "structural digests moved — a spec-format break; see module "
            f"docstring before repinning: {mismatches!r}"
        )

    def test_digests_are_pairwise_distinct(self):
        assert len(set(GOLDEN.values())) == len(GOLDEN)

    def test_digest_composes_code_version_and_structure(self):
        """The cache key is code_version x structure — and only that."""
        import hashlib

        from repro.runtime.cache import code_version

        spec = golden_specs()["sync_and_sync"]
        expected = hashlib.sha256(
            (code_version() + spec.structural_digest()).encode()
        ).hexdigest()
        assert spec.digest() == expected


class TestDigestIsTheWireForm:
    """The structural digest hashes the wire form and nothing else."""

    def test_digest_is_the_sorted_compact_json(self):
        import hashlib
        import json

        for spec in golden_specs().values():
            text = json.dumps(spec.to_json_dict(), sort_keys=True, separators=(",", ":"))
            assert spec.structural_digest() == hashlib.sha256(text.encode()).hexdigest()

    def test_non_default_values_change_the_digest(self):
        base = golden_specs()["sync_and_sync"]
        dynamic = base.with_(
            topology=TopologySpec(kind="dynamic-ring", seed=7, path_rate=0.3)
        )
        oblivious = base.with_(message_mode="oblivious")
        digests = {
            base.structural_digest(),
            dynamic.structural_digest(),
            oblivious.structural_digest(),
        }
        assert len(digests) == 3
