"""Deterministic seed derivation.

All randomness in the package flows from explicit seeds. Child streams are
derived by hashing the parent seed together with a context path (run index,
episode index, ...) so that adding or reordering consumers never silently
shifts another consumer's stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

# hash64 encodes each int part in 16 signed bytes, so an int part must lie in
# [SEED_MIN, SEED_MAX]
SEED_MIN, SEED_MAX = -(2**127), 2**127 - 1


def hash64(*parts: int | str) -> int:
    """Collapse a context path into a 64-bit seed.

    Parts may be ints in [SEED_MIN, SEED_MAX] or strings. The encoding is
    length/type tagged, so hash64(1, 23) != hash64(12, 3) and
    hash64("a", 1) != hash64("a1").
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (bool, float)):
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
        if isinstance(part, (int, np.integer)):
            h.update(b"i")
            h.update(int(part).to_bytes(16, "little", signed=True))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            h.update(b"s")
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
        else:
            raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    return int.from_bytes(h.digest()[:8], "little")


def child_rng(*parts: int | str) -> np.random.Generator:
    """A fresh generator for the given context path."""
    return np.random.default_rng(hash64(*parts))
