"""Deterministic RNG substream derivation.

Every random draw in the package flows from explicit 64-bit seeds through
numpy ``SeedSequence``, so identical seeds reproduce identical runs bit for
bit regardless of how work is scheduled.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET64 = 0xCBF29CE484222325
_FNV_PRIME64 = 0x100000001B3


def _as_entropy(part: int | str) -> int:
    """Map a stream label to an entropy word: an int as it is (``SeedSequence``
    rejects a negative one), a string by 64-bit FNV-1a; the built-in ``hash()``
    is salted per process and would break cross-run reproducibility.
    """
    if isinstance(part, str):
        h = _FNV_OFFSET64
        for b in part.encode("utf-8"):
            h ^= b
            h = (h * _FNV_PRIME64) & _MASK64
        return h
    return int(part)


def substream(seed: int, *parts: int | str) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *parts)``.

    Distinct part tuples give statistically independent streams; the same
    tuple always rebuilds the same stream.
    """
    entropy = [_as_entropy(seed)] + [_as_entropy(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *parts: int | str) -> int:
    """A 64-bit integer seed deterministically derived from ``(seed, *parts)``.

    Used where an API expects a plain seed (e.g. nested k-means calls)
    rather than a Generator.
    """
    entropy = [_as_entropy(seed)] + [_as_entropy(p) for p in parts]
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)
    return int(state[0])
