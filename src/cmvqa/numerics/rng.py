"""Seedable, splittable random source with no global state.

Every consumer of randomness takes an `Rng`. Children are derived by name, so
adding a new consumer never perturbs the streams of existing ones.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


class Rng:
    """A named stream over numpy's SeedSequence tree.  Its Generator is built on
    the first read of `gen`, so a node used only to reach children builds none."""

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = _key

    @functools.cached_property
    def gen(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self._key))

    def child(self, name: str) -> "Rng":
        """Independent stream addressed by (seed, path of names)."""
        return Rng(self.seed, self._key + (_name_key(name),))

    def __repr__(self):
        return f"Rng(seed={self.seed}, key={self._key})"
