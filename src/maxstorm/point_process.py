"""Seeded random streams and the storm cap of the spatial simulators.

Randomness flows through :class:`SeededStream`, a value object naming a
counter-based generator.  Identical ``(seed, stream_id, path)`` reproduce
identical draws bit for bit, and child streams derived for dates or
replicates are independent of consumption order, which keeps parallel Monte
Carlo runs deterministic.

The decreasing storm intensities ``U_i = 1 / P_i`` and the storm centers
are drawn inside the one storm kernel of :mod:`maxstorm.spatial`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = ["SeededStream"]

# A mis-set stopping threshold must fail loudly, not hang.
STORM_CAP = 10_000_000


@dataclass(frozen=True)
class SeededStream:
    """Name of a reproducible random stream.

    Parameters
    ----------
    seed : int
        Experiment-level seed, 64-bit, non-negative.
    stream_id : int
        Top-level stream index (one per independent consumer), 64-bit,
        non-negative.
    path : tuple of int
        Further derivation levels (replicate, date, ...) appended by
        :meth:`child`, each non-negative.

    Notes
    -----
    The generator is counter-based (Philox) and keyed by the full
    ``(seed, stream_id, *path)`` tuple, so sibling streams never share
    draws regardless of how much randomness each one consumes.
    """

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        # numpy's SeedSequence takes non-negative entropy and keys only.
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
        if any(not isinstance(p, (int, np.integer)) or p < 0 for p in self.path):
            raise ValidationError(f"path must contain non-negative integers, got {self.path!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *ids: int) -> "SeededStream":
        """Derive a sub-stream; children with distinct ids are independent."""
        return SeededStream(self.seed, self.stream_id, self.path + tuple(int(i) for i in ids))
