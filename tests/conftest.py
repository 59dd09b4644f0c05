"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import itertools
import os
import random
from pathlib import Path

import pytest

from repro.core import RingConfiguration


@pytest.fixture
def subprocess_env() -> dict:
    """Environment for a Python child: this checkout's sources, no ambient cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_CACHE")}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded RNG per test."""
    return random.Random(0xA5A5)


def all_binary_rings(n: int, oriented: bool = True):
    """Every binary input configuration of size ``n`` (oriented by default)."""
    for bits in itertools.product((0, 1), repeat=n):
        if oriented:
            yield RingConfiguration.oriented(bits)
        else:
            for orient in itertools.product((0, 1), repeat=n):
                yield RingConfiguration(bits, orient)


def random_ring(n: int, seed: int, oriented: bool = False) -> RingConfiguration:
    """A reproducible random binary ring."""
    return RingConfiguration.random(n, random.Random(seed), oriented=oriented)
