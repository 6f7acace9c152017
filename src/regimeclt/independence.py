"""Exact near-independence gaps for regime-switching output.

Events are rectangles {S_t in state_set} x {X_t in (lo, hi]}. Because
emissions depend only on the current regime, every probability involving
finitely many time points reduces to a weighted sum over regime assignments
with multi-step transition matrices between them, so gaps between joint and
product probabilities can be evaluated exactly.

Every routine evaluates under the stationary regime law. Bounds carry the
fitted prefactor c from the chain's mixing profile: the conditional gap is
checked against 2 c alpha^tau, the k-event joint-product gap against
k c alpha^(sum of lags). The latter envelope is reported as stated even
though exact evaluation shows configurations that exceed it;
`chained_gap_bound` gives the envelope that conditional-gap chaining actually
certifies (2 c sum_r alpha^tau_r), which the exact gaps do respect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from . import exact
from .chain import MixingProfile, mixing_rate
from .errors import EmptyConditioningEvent
from .process import ModelSpec, mixture_quantile

# Tuples of an explicit family scored per stacked product.
EXPLICIT_FAMILY_CHUNK = 1 << 16


@dataclass(frozen=True)
class RectEvent:
    """Rectangle event: regime in state_set and observation in (lo, hi]."""

    state_set: frozenset[int]
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        states = frozenset(int(s) for s in self.state_set)
        if not states:
            raise ValueError("state_set must be nonempty")
        if min(states) < 1:
            raise ValueError("regime labels are 1-based")
        if not self.lo < self.hi:
            raise ValueError("event interval must satisfy lo < hi")
        object.__setattr__(self, "state_set", states)

    def weights(self, model: ModelSpec) -> NDArray[np.float64]:
        """Per-regime probability mass of the event, given the regime."""
        if max(self.state_set) > model.n_states:
            raise ValueError("event references a regime the model does not have")
        w = model.emissions.interval_weights(self.lo, self.hi)
        mask = np.zeros(model.n_states)
        mask[[s - 1 for s in self.state_set]] = 1.0
        return w * mask

    def describe(self) -> str:
        states = ",".join(str(s) for s in sorted(self.state_set))
        return f"states({states})x({self.lo!r},{self.hi!r}]"


@dataclass(frozen=True)
class GapReport:
    """Exact dependence gap with its theoretical envelope."""

    gap_estimate: float
    theoretical_bound: float
    lags: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.gap_estimate < 0.0:
            raise ValueError("gap must be nonnegative")


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------


def conditional_gap_matrix(
    model: ModelSpec,
    target_weights: NDArray[np.float64],
    cond_weights: NDArray[np.float64],
    tau: int,
) -> NDArray[np.float64]:
    """All exact conditional gaps at one lag tau, as one matrix product.

    Rows of target_weights (T, N) and cond_weights (C, N) are per-regime
    event weights (`RectEvent.weights`). Entry [c, t] of the (C, T) result is
    |P(A_t at T+tau | B_c at T) - P(A_t at T+tau)| under the stationary law.
    The envelope 2 c alpha^tau is certified for targets whose state_set is a
    single regime (or the full space); targets mixing several regimes can
    exceed it.

    Raises
    ------
    EmptyConditioningEvent
        If some conditioning event has stationary probability 0.
    """
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    p_cond = cond_weights @ model.stationary()
    if p_cond.min() <= 0.0:
        raise EmptyConditioningEvent(f"conditioning event {int(p_cond.argmin())} has probability 0")
    # Row 0 conditions on the full space: the unconditional target law.
    cond = np.vstack([np.ones(model.n_states), cond_weights])
    joint = exact.transfer(model.stationary(), [cond[:, None, :], target_weights], [(model.chain.p, tau)])
    return np.abs(joint[1:] / p_cond[:, None] - joint[0])


def joint_product_gap(
    model: ModelSpec,
    events: Sequence[RectEvent],
    lags: Sequence[int],
    profile: MixingProfile | None = None,
) -> GapReport:
    """|P(joint of k events) - product of marginals| at the given spacings.

    Event r sits lags[r-1] steps after event r-1 (k events, k-1 lags). The
    reported envelope is k c alpha^(sum lags).
    """
    k = len(events)
    if k < 2:
        raise ValueError("at least two events are required")
    lags = exact.validate_lags(lags)
    if len(lags) != k - 1:
        raise ValueError(f"{k} events require {k - 1} inter-event lags, got {len(lags)}")
    total_lag = sum(lags)
    if profile is None:
        profile = mixing_rate(model.chain, s_max=max(total_lag, 2))
    profile.require_lag(total_lag)
    return GapReport(
        gap_estimate=_max_tuple_gap(model, [events], lags),
        theoretical_bound=k * profile.c * profile.alpha**total_lag,
        lags=lags,
        k=k,
    )


def chained_gap_bound(profile: MixingProfile, lags: Sequence[int]) -> float:
    """Envelope obtained by chaining the conditional gap across the events.

    Splitting off one event at a time bounds the joint-product gap by
    2 c sum_r alpha^tau_r. Unlike the k c alpha^(sum lags) form, exact gaps
    respect this envelope on every tested configuration. A lag past the
    profile's s_max raises ValueError.
    """
    profile.require_lag(max(lags, default=0))
    return 2.0 * profile.c * float(sum(profile.alpha**int(t) for t in lags))


# ---------------------------------------------------------------------------
# event families and the independence certificate
# ---------------------------------------------------------------------------

DEFAULT_QUANTILE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def default_event_family(
    model: ModelSpec,
    quantile_levels: Sequence[float] = DEFAULT_QUANTILE_LEVELS,
) -> tuple[RectEvent, ...]:
    """Reference rectangle family used by the certificate routines.

    One half-line event per (regime, stationary-mixture quantile) pair, plus
    one full-line event per regime and the full-space event. The family is
    deterministic given the model, so certificates computed from it are
    reproducible.
    """
    events: list[RectEvent] = []
    thresholds = mixture_quantile(model, quantile_levels).tolist()
    for j in range(1, model.n_states + 1):
        for thr in thresholds:
            events.append(RectEvent(frozenset({j}), -math.inf, thr))
        events.append(RectEvent(frozenset({j})))
    events.append(RectEvent(frozenset(range(1, model.n_states + 1))))
    return tuple(events)


def observable_event_family(
    model: ModelSpec,
    quantile_levels: Sequence[float] = DEFAULT_QUANTILE_LEVELS,
) -> tuple[RectEvent, ...]:
    """Half-line events on the observation alone, regime unrestricted.

    These are the rectangles that matter when certifying near-independence
    of the observed values (as opposed to the joint regime-observation
    process): one event {X <= q} per stationary-mixture quantile plus the
    full space.
    """
    all_states = frozenset(range(1, model.n_states + 1))
    events = [
        RectEvent(all_states, -math.inf, thr)
        for thr in mixture_quantile(model, quantile_levels).tolist()
    ]
    events.append(RectEvent(all_states))
    return tuple(events)


def epsilon_certificate(
    model: ModelSpec,
    lags: Sequence[int],
    family: Iterable[Sequence[RectEvent]] | None = None,
    method: str = "exact",
    base_events: Sequence[RectEvent] | None = None,
) -> float:
    """Certified near-independence level over a rectangle-event family.

    Returns the largest joint-product gap across the family of event tuples
    at the given spacings. Without a family the tuples are all combinations
    of a per-position event pool, one event per time point: base_events, or
    by default each regime's full-line event and the full space. method
    takes only "exact".

    The exact gap is multilinear in the events' weight vectors: an event
    weighing s v, with 0 <= s <= 1 and v another pool event's weights, gives
    s times the gap of the same tuple with v in its place. A pool is
    therefore pruned to its undominated events before it is scored: the
    maximum lies on them, so the value is unchanged. The default pool is
    what that pruning leaves of `default_event_family` at any quantile
    levels (a half-line weighs F_j(q) <= 1 on its regime), so it solves no
    quantile.
    An explicit family is scored as given, its tuples stacked in chunks and
    each distinct event weighed once. A pool or family with nothing to
    score gives 0. Any number of lags is taken; a pool whose prefix DP
    would pass exact.MAX_EXACT_BYTES raises ConfigInvalid first.
    """
    # Kept with one value: bench/tracing.py reads it to count certificate tuples.
    if method != "exact":
        raise ValueError("method must be 'exact'")
    lags = exact.validate_lags(lags)
    if family is not None and base_events is not None:
        raise ValueError("give either an explicit family or base_events, not both")

    if family is None:
        if base_events is None:
            regimes = range(1, model.n_states + 1)
            base_events = [RectEvent(frozenset({j})) for j in regimes] + [RectEvent(frozenset(regimes))]
        weights = np.stack([ev.weights(model) for ev in base_events])
        return _epsilon_exact_product_family(model, weights[_undominated(weights)], lags)
    return _max_tuple_gap(model, family, lags)


def _max_tuple_gap(model: ModelSpec, family: Iterable[Sequence[RectEvent]], lags: tuple[int, ...]) -> float:
    """Exact max |joint - product| gap over the event tuples of a family, 0 if empty.

    Chunks of tuples go through `exact.product_gap` as stacks, row r of
    every position from tuple r; each distinct event is weighed once.
    """
    k = len(lags) + 1
    slot: dict[RectEvent, int] = {}  # distinct events in order of first use
    rows: list[NDArray[np.float64]] = []
    best, tuples = 0.0, iter(family)
    while chunk := list(itertools.islice(tuples, EXPLICIT_FAMILY_CHUNK)):
        if any(len(events) != k for events in chunk):
            raise ValueError(f"every event tuple must have {k} entries")
        idx = np.array([[slot.setdefault(ev, len(slot)) for ev in events] for events in chunk],
                       dtype=np.int64)
        rows.extend(ev.weights(model) for ev in itertools.islice(slot, len(rows), None))
        gaps = exact.product_gap(model.stationary(), model.chain.p, list(np.stack(rows)[idx.T]), lags)
        best = max(best, float(np.max(gaps)))
    return best


def _epsilon_exact_product_family(
    model: ModelSpec, w: NDArray[np.float64], lags: tuple[int, ...]
) -> float:
    """Exact max gap over all tuples of B events, shared-prefix DP.

    w (B, N) holds the weights of a pool's undominated events. Per leading
    event, one `exact.product_gap` over the position-r stack on axis r
    shares every tuple prefix's propagated state vector, so the tuples cost
    O(B^(k-2)) vectorised steps per leading event instead of B^k independent
    evaluations, and at most B^(k-2) max(N, B) values are held. If those
    would pass exact.MAX_EXACT_BYTES, ConfigInvalid is raised with nothing
    beyond the weights allocated.
    """
    n_base, n_states = w.shape
    k = len(lags) + 1
    exact.require_bytes(n_base ** (k - 2) * max(n_states, n_base) * 8,
                        f"exact certificate over {n_base} undominated events and {len(lags)} lags")
    stacks = [w.reshape((1,) * r + (n_base,) + (1,) * (k - 1 - r) + (n_states,)) for r in range(k)]
    best = 0.0
    for b0 in range(n_base):
        stacks[0] = w[b0].reshape((1,) * k + (n_states,))
        best = max(best, float(np.max(exact.product_gap(model.stationary(), model.chain.p, stacks, lags))))
    return best


def _undominated(w: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Mask of the rows of w (B, N) that a pool certificate must score.

    The gap is multilinear in each event's weights, so in any tuple a row
    s v with 0 <= s <= 1 gives s times the gap of row v. Kept: every row
    with two or more positive entries and, per regime j, the first row of
    largest weight among the rows positive on j alone. All-zero rows are
    dropped.
    """
    n_rows, n_states = w.shape
    support = np.count_nonzero(w, axis=1)
    regime = np.argmax(w, axis=1)  # the one regime of a single-regime row
    weight = w.max(axis=1)
    single = support == 1
    top = np.zeros(n_states)
    np.maximum.at(top, regime[single], weight[single])
    rows = np.flatnonzero(single & (weight == top[regime]))
    first = np.full(n_states, n_rows)
    np.minimum.at(first, regime[rows], rows)
    keep = support > 1
    keep[first[first < n_rows]] = True
    return keep
