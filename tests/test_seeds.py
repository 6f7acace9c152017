"""Tests for the seed record: integer fields, JSON round trip and block streams."""

import math

import numpy as np
import pytest

from regimeclt.seeds import SeedSpec


class TestSeedSpec:
    @pytest.mark.parametrize(
        "base,stream,field",
        [(7.9, 0, "base"), (7, 0.5, "stream"), (math.inf, 0, "base"), (math.nan, 0, "base"),
         (True, 0, "base"), (7, False, "stream"), ("7", 0, "base"), (None, 0, "base")],
        ids=["base=7.9", "stream=0.5", "base=inf", "base=nan", "base=True", "stream=False",
             "base='7'", "base=None"],
    )
    def test_non_integer_fields_refused_with_the_field_named(self, base, stream, field):
        # int() would truncate 7.9 to 7, and block_rng would then raise TypeError.
        with pytest.raises(ValueError, match=f"seed {field} must be an integer"):
            SeedSpec(base, stream)
        with pytest.raises(ValueError, match=f"seed {field} must be an integer"):
            SeedSpec.from_json_dict({"base": base, "stream": stream})

    def test_integral_floats_and_numpy_integers_are_ints(self):
        for base, stream in [(7.0, 2.0), (np.int64(7), np.uint8(2)), (np.float64(7.0), 2)]:
            seed = SeedSpec(base, stream)
            assert seed == SeedSpec(7, 2)
            assert type(seed.base) is int and type(seed.stream) is int
            assert seed.to_json_dict() == {"base": 7, "stream": 2}
            np.testing.assert_array_equal(seed.block_rng(3).random(4),
                                          SeedSpec(7, 2).block_rng(3).random(4))
        assert SeedSpec.from_json_dict({"base": 7.0}) == SeedSpec(7, 0)

    @pytest.mark.parametrize("base,stream", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_refused(self, base, stream):
        with pytest.raises(ValueError):
            SeedSpec(base, stream)

    def test_json_round_trip_and_child(self):
        seed = SeedSpec(2**64 - 1, 5)
        assert SeedSpec.from_json_dict(seed.to_json_dict()) == seed
        assert seed.child(3) == SeedSpec(2**64 - 1, 8)
