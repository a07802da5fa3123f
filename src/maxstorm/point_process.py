"""Seeded random streams and the integer-time Poisson process.

Randomness flows through :class:`SeededStream`, a value object naming a
counter-based generator.  Identical ``(seed, stream_id, path)`` reproduce
identical draws bit for bit, and child streams derived for dates or
replicates are independent of consumption order, which keeps parallel Monte
Carlo runs deterministic.

Also here: the integer-time process with one Poisson(1) count per integer,
and the storm cap shared by the spatial simulators.  The decreasing storm
intensities ``U_i = 1 / P_i`` and the storm centers are drawn inside the
one storm kernel of :mod:`maxstorm.spatial`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "SeededStream",
    "IntegerPoissonSample",
    "sample_integer_poisson",
    "STORM_CAP",
]

# A mis-set stopping threshold must fail loudly, not hang.
STORM_CAP = 10_000_000


@dataclass(frozen=True)
class SeededStream:
    """Name of a reproducible random stream.

    Parameters
    ----------
    seed : int
        Experiment-level seed, 64-bit.
    stream_id : int
        Top-level stream index (one per independent consumer), 64-bit.
    path : tuple of int
        Further derivation levels (replicate, date, ...) appended by
        :meth:`child`.

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
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if any(not isinstance(p, (int, np.integer)) for p in self.path):
            raise ValidationError(f"path must contain integers, got {self.path!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, *ids: int) -> "SeededStream":
        """Derive a sub-stream; children with distinct ids are independent."""
        return SeededStream(self.seed, self.stream_id, self.path + tuple(int(i) for i in ids))


@dataclass(frozen=True)
class IntegerPoissonSample:
    """Per-integer unit-Poisson counts over a finite integer interval."""

    counts: dict[int, int]

    def __post_init__(self) -> None:
        for k, n in self.counts.items():
            if n < 0:
                raise ValidationError(f"count at {k} must be non-negative, got {n}")


def sample_integer_poisson(
    stream: SeededStream,
    lo: int,
    hi: int,
) -> IntegerPoissonSample:
    """One Poisson(1) count per integer in the inclusive interval ``[lo, hi]``.

    An empty interval (``lo > hi``) yields an empty sample, not an error.
    """
    if lo > hi:
        return IntegerPoissonSample({})
    rng = stream.generator()
    ks = range(int(lo), int(hi) + 1)
    draws = rng.poisson(1.0, size=len(ks))
    return IntegerPoissonSample({k: int(n) for k, n in zip(ks, draws)})
