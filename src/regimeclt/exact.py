"""The exact-evaluation core: weighted transfer-matrix products.

Emissions depend on the past only through the current regime, so every
exact number the lab reports is one product start W_0 M_1 W_1 ... W_last 1
of diagonal weights W_r and step matrices M_r: joint event probabilities
(W_r event weights, M_r = P^lag), characteristic functions of sums (W_r the
regime cfs) and the law of S_n behind the exact KS distance. The start is
any row vector, the stationary law or not, and the step any square matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigInvalid

# Largest array an exact route may build; larger requests raise ConfigInvalid
# before anything is allocated.
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


def transfer(start: np.ndarray, weights: Sequence[np.ndarray], steps: Sequence[tuple]) -> np.ndarray:
    """start W_0 M_1 W_1 ... M_last W_last 1 over stacks of diagonal weights.

    weights[r] is a (..., N) stack of diagonals, maybe complex; steps[r] =
    (M, power) puts M^power, M (N, N) or a (..., N, N) stack, after it. Stack
    axes broadcast: shared axes pair rows, axes in different places give every
    combination with shared prefixes computed once. Returns the (...) products.
    """
    v = start * weights[0]
    for w, (m, power) in zip(weights[1:-1], steps):
        m = np.linalg.matrix_power(m, power)
        v = (v @ m if m.ndim == 2 else (v[..., None, :] @ m)[..., 0, :]) * w
    m = np.linalg.matrix_power(*steps[-1])
    v = v @ m if m.ndim == 2 else (v[..., None, :] @ m)[..., 0, :]
    return np.einsum("...n,...n->...", v, weights[-1])


def joint(start: np.ndarray, p: np.ndarray, weights: Sequence[np.ndarray],
          lags: Sequence[int]) -> np.ndarray:
    """Joint probability of every choice of one event per position.

    weights[r] is a (B_r, N) stack of event weights, position r + 1 lags[r]
    steps of p after position r; the (B_0, ..., B_last) result holds
    start W_0 p^lag_0 W_1 ... W_last 1 for every choice of one row per stack.
    """
    k = len(weights)
    outer = [w.reshape((1,) * r + (len(w),) + (1,) * (k - 1 - r) + (len(start),))
             for r, w in enumerate(weights)]
    return transfer(start, outer, [(p, t) for t in lags])
