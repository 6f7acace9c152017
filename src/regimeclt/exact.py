"""The exact-evaluation core: weighted transfer-matrix products.

Emissions depend on the past only through the current regime, so every
exact number the lab reports is one product start W_0 M_1 W_1 ... W_last 1
of diagonal weights W_r and step matrices M_r: joint event probabilities
(W_r event weights, M_r = P^lag), characteristic functions of sums (W_r the
regime cfs) and the law of S_n behind the exact KS distance. The start is
any row vector, the stationary law or not, and the step any square matrix.
`product_gap` subtracts from such a product the product of its marginals
start W_r 1: the near-independence gap behind every joint-minus-product the
lab reports. A stacked step of at most four states is held with its matrix
axes first, so that each stacked product is a few numpy calls over the whole
stack, not one BLAS call per small matrix.
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


# A stacked step with at most this many states is held with its matrix axes
# first, (N, N, *stack), and each product is N broadcast multiply-adds over the
# whole stack; a stacked matmul makes one BLAS call per N x N matrix. One
# squaring of a (643, N, N) complex stack took 35 against 171 us at N = 3, 78
# against 169 us at N = 4, 158 against 197 us at N = 5 and 260 against 188 us
# at N = 6; at 64 nodes the matmul already wins at N = 5.
_AXES_FIRST_MAX_N = 4


def _times_power(v: np.ndarray, m: np.ndarray, power: int) -> np.ndarray:
    """v M^power, by the route `transfer` describes. On a stack, v takes
    M^(2^j) in at each set bit j of power, and power 0 gives v the shape and
    dtype v M would have. A stack of N <= _AXES_FIRST_MAX_N states is worked
    as (N, N, *stack) with v as (N, *stack), each product N multiply-adds over
    the whole stack; a larger N keeps the stacked matmul.
    """
    if m.ndim == 2:
        return v @ np.linalg.matrix_power(m, power)
    if power == 0:
        shape = np.broadcast_shapes(v.shape[:-1], m.shape[:-2]) + v.shape[-1:]
        return np.broadcast_to(v, shape).astype(np.result_type(v, m))
    if m.shape[-1] > _AXES_FIRST_MAX_N:
        return _squared_into(v[..., None, :], m, power, np.matmul, lambda a: a @ a)[..., 0, :]
    # Pad both stacks to one rank, so that the stack axes still align once the
    # matrix axes move to the front.
    rank = max(v.ndim - 1, m.ndim - 2)
    v = np.moveaxis(v.reshape((1,) * (rank + 1 - v.ndim) + v.shape), -1, 0)
    m = m.reshape((1,) * (rank + 2 - m.ndim) + m.shape)
    m = np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))
    return np.moveaxis(_squared_into(v, m, power, _vector_times, _squared), 0, -1)


def _squared_into(v: np.ndarray, m: np.ndarray, power: int, times, square) -> np.ndarray:
    """v M^power for power >= 1: v = times(v, M^(2^j)) at each set bit j, the
    powers formed by square."""
    if power % 2:
        v = times(v, m)
    while power := power // 2:
        m = square(m)
        if power % 2:
            v = times(v, m)
    return v


def _vector_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(v M)[j] = sum_k v[k] M[k, j] for v (N, *stack) and M (N, N, *stack)."""
    out = v[0] * m[0]
    for k in range(1, len(v)):
        out += v[k] * m[k]
    return out


def _squared(m: np.ndarray) -> np.ndarray:
    """(M M)[i, j] = sum_k M[i, k] M[k, j] for M (N, N, *stack); each term is
    one stack, so no (N, N, N, *stack) product is built."""
    out = m[:, 0, None] * m[None, 0]
    for k in range(1, len(m)):
        out += m[:, k, None] * m[None, k]
    return out


def transfer(start: np.ndarray, weights: Sequence[np.ndarray], steps: Sequence[tuple]) -> np.ndarray:
    """start W_0 M_1 W_1 ... M_last W_last 1 over stacks of diagonal weights.

    weights[r] is a (..., N) stack of diagonals, maybe complex; steps[r] =
    (M, power) puts M^power, M (N, N) or a (..., N, N) stack, after it. Stack
    axes broadcast: shared axes pair rows, axes in different places give every
    combination with shared prefixes computed once. Returns the (...) products.
    A single step is powered first and then applied to the row vector; a
    stacked step is squared into the vector, which costs about log2(power)
    stacked products where forming M^power would take up to twice as many.
    Up to four states a stacked product is held with the matrix axes first
    (see `_times_power`); the result's shape and dtype are the same either way.
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
