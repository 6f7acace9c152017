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
        if not 0 <= int(self.base) < 2**64:
            raise ValueError("base seed must fit in 64 bits")
        if int(self.stream) < 0:
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
        return {"base": int(self.base), "stream": int(self.stream)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SeedSpec":
        return cls(int(obj["base"]), int(obj.get("stream", 0)))
