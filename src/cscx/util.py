"""Small shared helpers: deterministic randomness."""

from __future__ import annotations

import random


def seeded_rng(*seed_parts: object) -> random.Random:
    """Deterministic RNG derived from a tuple of hashable seed parts."""
    return random.Random(repr(seed_parts))
