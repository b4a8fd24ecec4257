"""Deterministic random streams on the counter-based Philox generator.

All samplers and randomized checks in the package draw through
:func:`make_rng`, so identical (seed, stream) pairs reproduce bit-exact
sequences and derived streams are independent of scheduling order.
"""

from __future__ import annotations

import numpy as np

from .errors import check_int


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator keyed by the integers ``(seed, *stream)``, each >= 0; same key, same bit stream."""
    entropy = [check_int(k, "seed", 0) for k in (seed, *stream)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
