"""The exact-evaluation core: weighted transfer-matrix products.

Emissions depend on the past only through the current regime, so every
exact number the lab reports is one product start W_0 M_1 W_1 ... W_last 1
of diagonal weights W_r and step matrices M_r: joint event probabilities
(W_r event weights, M_r = P^lag), characteristic functions of sums (W_r the
regime cfs) and the law of S_n behind the exact KS distance. The start is
any row vector, the stationary law or not, and the step any square matrix.
`product_gap` subtracts from such a product the product of its marginals
start W_r 1: the near-independence gap behind every joint-minus-product the
lab reports.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigInvalid

# Largest array one computation may build; larger requests raise ConfigInvalid
# before anything is allocated or drawn.
MAX_EXACT_BYTES = 2**30


def require_bytes(needed: int, what: str) -> None:
    """Raise ConfigInvalid if `what` needs more than MAX_EXACT_BYTES bytes."""
    if needed > MAX_EXACT_BYTES:
        raise ConfigInvalid(f"{what} needs {needed} bytes, above the {MAX_EXACT_BYTES}-byte cap")


def validate_lags(lags: Sequence[int]) -> tuple[int, ...]:
    """lags as a nonempty tuple of positive ints, else ValueError (a
    fractional lag is refused, not truncated; integral floats pass)."""
    given = tuple(lags)
    try:
        lags = tuple(int(t) for t in given)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        lags = ()
    if not lags or any(t < 1 for t in lags) or lags != given:
        raise ValueError(f"lags must be a nonempty sequence of positive integers, got {list(given)!r}")
    return lags


def _times_power(v: np.ndarray, m: np.ndarray, power: int) -> np.ndarray:
    """v M^power, by the route `transfer` describes. On a stack, v takes
    M^(2^j) in at each set bit j of power; an even power starts from M^0, the
    identity, so v gets the stack's shape and dtype as it would from M^power.
    """
    if m.ndim == 2:
        return v @ np.linalg.matrix_power(m, power)
    v = (v[..., None, :] @ np.linalg.matrix_power(m, power % 2))[..., 0, :]
    while power := power // 2:
        m = m @ m
        if power % 2:
            v = (v[..., None, :] @ m)[..., 0, :]
    return v


def transfer(start: np.ndarray, weights: Sequence[np.ndarray], steps: Sequence[tuple]) -> np.ndarray:
    """start W_0 M_1 W_1 ... M_last W_last 1 over stacks of diagonal weights.

    weights[r] is a (..., N) stack of diagonals, maybe complex; steps[r] =
    (M, power) puts M^power, M (N, N) or a (..., N, N) stack, after it. Stack
    axes broadcast: shared axes pair rows, axes in different places give every
    combination with shared prefixes computed once. Returns the (...) products.
    A single step is powered first and then applied to the row vector; a
    stacked step is squared into the vector, which costs about log2(power)
    stacked products where forming M^power would take up to twice as many.
    """
    v = start * weights[0]
    for w, step in zip(weights[1:-1], steps):
        v = _times_power(v, *step) * w
    v = _times_power(v, *steps[-1])
    return np.einsum("...n,...n->...", v, weights[-1])


def product_gap(start: np.ndarray, p: np.ndarray, weights: Sequence[np.ndarray],
                lags: Sequence[int]) -> np.ndarray:
    """|start W_0 p^lag_0 W_1 ... W_last 1 - prod_r start W_r 1| over transfer's stacks.

    weights[r], real or complex, broadcast as in `transfer`; position r + 1
    sits lags[r] steps of p after position r. The product of the marginals
    is multiplied in position order, and the gap overwrites the joint.
    """
    gap = np.asarray(transfer(start, weights, [(p, t) for t in lags]))
    prod = weights[0] @ start
    for w in weights[1:]:
        prod = prod * (w @ start)
    gap -= prod
    # In place where the dtype allows: the pool DP's gaps are its largest arrays.
    return np.abs(gap, out=gap) if np.isrealobj(gap) else np.abs(gap)
