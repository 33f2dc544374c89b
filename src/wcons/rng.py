"""Deterministic random state with cheap, order-independent splitting.

Sub-streams are derived as ``splitmix64(splitmix64(seed) XOR index)`` and
fed to numpy's PCG64, so every task gets an independent generator that
depends only on the root seed and the task index, never on execution
order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidInput, as_index, check_count

__all__ = ["RngState", "splitmix64"]

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea, Flood 2014).
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 step: a 64-bit bijective mixing function."""
    x = (x + _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngState:
    """A reproducible random state: an integer seed (Python or numpy, not a
    boolean), reduced to 64 bits."""

    seed: int
    algorithm: ClassVar[str] = "pcg64-splitmix64"

    def __post_init__(self):
        try:
            seed = as_index(self.seed)
        except TypeError:
            raise InvalidInput(
                f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed & _MASK64)

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator for this state."""
        return np.random.Generator(np.random.PCG64(self.seed))

    def split(self, index: int) -> "RngState":
        """Sub-state for task ``index``.

        The root seed is mixed once before the index is XORed in and the
        result mixed again; without the first mixing step, nearby root
        seeds would merely permute each other's task streams.
        """
        check_count(index, "split index", 0)
        mixed = splitmix64(self.seed) ^ (operator.index(index) & _MASK64)
        return RngState(splitmix64(mixed))
