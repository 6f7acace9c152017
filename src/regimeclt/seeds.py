"""Deterministic RNG stream derivation.

Every stochastic routine in the package draws replicate paths through
process.iter_path_chunks, from generators derived from a (base seed, stream
id) pair: the replicate indices are split into fixed blocks of
REPLICATE_BLOCK, and one child stream per block is derived from (base,
stream, block index). A block's generator fills its replicates' uniforms one
replicate after another, so replicate r's draws depend only on (base, stream,
r): results are reproducible bit for bit and do not depend on scheduling,
chunking, or how many replicates were requested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Replicates per derived stream. Part of the stream layout: changing it
# changes every seeded Monte Carlo result.
REPLICATE_BLOCK = 1024


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible seed record: 64-bit base entropy plus a stream id."""

    base: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("base", "stream"):
            value = getattr(self, name)
            # An integral float passes as its int; int() would truncate 7.9.
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"seed {name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not 0 <= self.base < 2**64:
            raise ValueError("base seed must fit in 64 bits")
        if self.stream < 0:
            raise ValueError("stream id must be nonnegative")

    def block_rng(self, block: int) -> np.random.Generator:
        """Generator shared, in index order, by the REPLICATE_BLOCK replicates
        of block `block` (indices block*REPLICATE_BLOCK onwards)."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.base, spawn_key=(self.stream, block))
        )

    def child(self, offset: int) -> "SeedSpec":
        """A sibling stream, used when one experiment needs several draws."""
        return SeedSpec(self.base, self.stream + offset)

    def to_json_dict(self) -> dict:
        return {"base": self.base, "stream": self.stream}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SeedSpec":
        return cls(obj["base"], obj.get("stream", 0))
