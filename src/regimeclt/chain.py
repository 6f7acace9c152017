"""Finite-state chain analysis: stationary laws, ergodicity, mixing rates.

A regime process is driven by a row-stochastic transition matrix P. The
quantities exported here are the ones the rest of the package builds bounds
from: the stationary distribution pi (pi P = pi), an ergodicity certificate,
and a geometric mixing profile (alpha, c) such that

    max_ij |(P^s)_ij - pi_j| <= c * alpha**s        for s = 1..s_max,

with alpha the second largest eigenvalue modulus and c the smallest prefactor
that makes the inequality hold on the recorded range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NotErgodic

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
# Entry gaps at or below this level are floating-point noise; they are
# excluded from the prefactor fit and absorbed as slack in bound checks.
GAP_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix of regime transition probabilities.

    Two matrices are equal, and hash equal, when their entries are.

    Parameters
    ----------
    p : ndarray of shape (n, n)
        Entries in [0, 1]; every row sums to 1 within 1e-12.
    """

    p: NDArray[np.float64]

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValueError("transition matrix must be square and nonempty")
        if not np.all(np.isfinite(p)):
            raise ValueError("transition matrix entries must be finite")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_err = np.max(np.abs(p.sum(axis=1) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}; max error {row_err:.3e}")
        p = p + 0.0  # a copy, with -0.0 stored as 0.0 so equal entries hash equal
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return np.array_equal(self.p, other.p)

    def __hash__(self) -> int:
        return hash((self.p.shape, self.p.tobytes()))

    @property
    def n_states(self) -> int:
        return self.p.shape[0]

    def stationary(self) -> NDArray[np.float64]:
        """Read-only stationary law of the chain, solved once per chain.

        The cache is an instance attribute, not a field, so equality,
        hashing and the JSON form do not see it.

        Raises
        ------
        NotErgodic
            As `stationary_distribution` does.
        """
        pi = self.__dict__.get("_stationary")
        if pi is None:
            pi = stationary_distribution(self)
            object.__setattr__(self, "_stationary", pi)
        return pi

    def to_json_dict(self) -> dict:
        return {"n_states": self.n_states, "rows": [list(map(float, row)) for row in self.p]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TransitionMatrix":
        rows = np.asarray(obj["rows"], dtype=np.float64)
        if "n_states" in obj and obj["n_states"] != rows.shape[0]:
            raise ValueError("n_states does not match the number of rows")
        return cls(rows)

    @classmethod
    def from_json(cls, text: str) -> "TransitionMatrix":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class ErgodicityReport:
    """Diagnostic verdict from the support-graph analysis of a chain."""

    ergodic: bool
    irreducible: bool
    aperiodic: bool
    period: int | None
    reason: str

    def __bool__(self) -> bool:
        return self.ergodic


@dataclass(frozen=True)
class MixingProfile:
    """Geometric decay certificate for a chain.

    Attributes
    ----------
    alpha : float
        Second largest eigenvalue modulus, in [0, 1).
    c : float
        Smallest prefactor such that sup_gap(s) <= c * alpha**s for every
        recorded s whose gap sits above the floating-point noise floor.
    gaps : tuple of (s, sup_gap(s))
        sup_gap(s) = max_ij |(P^s)_ij - pi_j|, recorded for s = 1..s_max.
    """

    alpha: float
    c: float
    gaps: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.c < 0.0 or not math.isfinite(self.c):
            raise ValueError("prefactor c must be finite and nonnegative")

    def bound(self, s: int) -> float:
        """c * alpha**s, the certified envelope at a lag s in 0..s_max."""
        self.require_lag(s)
        return self.c * self.alpha**s

    def require_lag(self, s: int) -> None:
        """Refuse a lag outside 0..s_max: c was fitted on that range only,
        and past it the envelope can fall below the true gap."""
        if not 0 <= s <= len(self.gaps):
            raise ValueError(f"lag {s} lies outside the certified range 0..{len(self.gaps)}")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def stationary_distribution(chain: TransitionMatrix) -> NDArray[np.float64]:
    """Read-only pi with pi P = pi, pi >= 0, sum(pi) = 1, by GTH elimination.

    Grassmann, Taksar & Heyman (Operations Research 33, 1985): censor the
    chain onto states 0..k-1 for k = n-1 down to 1, dividing by the censored
    state's off-diagonal row sum instead of 1 - P[k, k], then back-substitute.
    No step subtracts, so every entry of pi keeps its relative accuracy on
    stiff, nearly decomposable chains. The residual max-norm of pi P - pi is
    still required to be below 1e-10. The entries are nonnegative and sum to
    1 by construction.

    Raises
    ------
    NotErgodic
        If the chain fails the ergodicity check or the solve does not produce
        a valid stationary vector.
    """
    report = is_ergodic(chain)
    if not report.ergodic:
        raise NotErgodic(report.reason)
    a = np.array(chain.p)
    n = chain.n_states
    for k in range(n - 1, 0, -1):
        # An irreducible chain censored onto states 0..k stays irreducible,
        # so state k leaves to some state below it: the sum is > 0.
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    x = np.ones(n)
    for k in range(1, n):
        x[k] = x[:k] @ a[:k, k]
    x /= x.sum()
    residual = np.max(np.abs(x @ chain.p - x))
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NotErgodic(f"stationary residual {residual:.3e} exceeds {STATIONARY_RESIDUAL_TOL}")
    x.setflags(write=False)
    return x


def n_step(chain: TransitionMatrix, s: int) -> TransitionMatrix:
    """s-step transition matrix P^s (s >= 1), revalidated as row-stochastic."""
    if s < 1:
        raise ValueError("step count must be a positive integer")
    return TransitionMatrix(np.linalg.matrix_power(chain.p, s))


def is_ergodic(chain: TransitionMatrix) -> ErgodicityReport:
    """Check irreducibility and aperiodicity on the support graph.

    Irreducibility is decided by forward and backward reachability from state
    0 (a nonnegative BFS depth on the support graph and on its transpose); the
    period is the gcd of (depth[u] + 1 - depth[v]) over all support
    edges (u, v), using BFS depths from state 0.
    """
    support = chain.p > 0.0
    depth = _bfs_depths(support, 0)
    communicates = np.minimum(depth, _bfs_depths(support.T, 0)) >= 0
    if not communicates.all():
        missing = int(np.flatnonzero(~communicates)[0])
        return ErgodicityReport(
            ergodic=False, irreducible=False, aperiodic=False, period=None,
            reason=f"not irreducible: state {missing} does not communicate with state 0",
        )
    period = 0
    us, vs = np.nonzero(support)
    for u, v in zip(us.tolist(), vs.tolist()):
        period = math.gcd(period, depth[u] + 1 - depth[v])
    period = abs(period)
    if period != 1:
        return ErgodicityReport(
            ergodic=False, irreducible=True, aperiodic=False, period=period,
            reason=f"irreducible but periodic with period {period}",
        )
    return ErgodicityReport(
        ergodic=True, irreducible=True, aperiodic=True, period=1,
        reason="irreducible and aperiodic",
    )


def _bfs_depths(support: NDArray[np.bool_], start: int) -> list[int]:
    n = support.shape[0]
    depth = [-1] * n
    depth[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(support[u]):
                if depth[v] < 0:
                    depth[int(v)] = depth[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return depth


def mixing_rate(chain: TransitionMatrix, s_max: int = 30) -> MixingProfile:
    """Fit the geometric envelope sup_gap(s) <= c * alpha**s for s = 1..s_max.

    alpha is the second largest eigenvalue modulus of P. The prefactor c is
    fitted as max_s sup_gap(s) / alpha**s over recorded lags whose gap exceeds
    the noise floor, so the certified bound holds exactly on the recorded
    range (plus a 1e-12 absolute slack used by downstream checks).
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    pi = chain.stationary()
    eigvals = np.linalg.eigvals(chain.p)
    moduli = np.sort(np.abs(eigvals))[::-1]
    alpha = float(moduli[1]) if chain.n_states > 1 else 0.0
    # Guard against round-off pushing the SLEM to or above 1 for a chain that
    # already passed the ergodicity check.
    alpha = min(max(alpha, 0.0), 1.0 - 1e-15)
    if alpha < GAP_NOISE_FLOOR:
        alpha = 0.0

    gaps: list[tuple[int, float]] = []
    power = np.eye(chain.n_states)
    for s in range(1, s_max + 1):
        power = power @ chain.p
        gaps.append((s, float(np.max(np.abs(power - pi[None, :])))))

    c = 0.0
    for s, gap in gaps:
        if gap <= GAP_NOISE_FLOOR:
            continue
        if alpha == 0.0:
            raise NotErgodic(
                f"gap {gap:.3e} at lag {s} is inconsistent with a zero mixing rate"
            )
        c = max(c, gap / alpha**s)
    return MixingProfile(alpha=alpha, c=c, gaps=tuple(gaps))
