"""Exact and Monte Carlo near-independence gaps for regime-switching output.

Events are rectangles {S_t in state_set} x {X_t in (lo, hi]}. Because
emissions depend only on the current regime, every probability involving
finitely many time points reduces to a weighted sum over regime assignments
with multi-step transition matrices between them, so gaps between joint and
product probabilities can be evaluated exactly.

All exact routines evaluate under the stationary regime law; Monte Carlo
counterparts force a stationary start so the two routes estimate the same
quantity. Bounds carry the fitted prefactor c from the chain's mixing
profile: the conditional gap is checked against 2 c alpha^tau, the k-event
joint-product gap against k c alpha^(sum of lags). The latter envelope is
reported as stated even though exact evaluation shows configurations that
exceed it; `chained_gap_bound` gives the envelope that conditional-gap
chaining actually certifies (2 c sum_r alpha^tau_r), which the exact gaps do
respect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

from .chain import MixingProfile, mixing_rate
from .errors import ConfigInvalid, EmptyConditioningEvent, TooManyEventsForExact
from .process import CHUNK_ELEMENTS, ModelSpec, iter_path_chunks, mixture_quantile
from .seeds import SeedSpec

MAX_EXACT_EVENTS = 6
# Largest per-leading-event array, B^(k-2) max(N, B) float64 values, that the
# exact product family certificate may build, with B counted after dominated
# events are pruned; larger requests raise ConfigInvalid up front.
MAX_EXACT_CERTIFICATE_BYTES = 2**30
# Tuples of an explicit family scored per stacked product.
EXPLICIT_FAMILY_CHUNK = 1 << 16
# Absolute slack for exact-arithmetic bound comparisons; covers accumulated
# round-off in matrix powers.
BOUND_SLACK = 1e-12


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

    def indicator(self, states: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """Elementwise event indicator for 1-based state labels and values."""
        in_states = np.isin(states, list(self.state_set))
        return in_states & (obs > self.lo) & (obs <= self.hi)

    def describe(self) -> str:
        states = ",".join(str(s) for s in sorted(self.state_set))
        return f"states({states})x({self.lo!r},{self.hi!r}]"


@dataclass(frozen=True)
class GapReport:
    """Measured dependence gap with its theoretical envelope.

    std_error is 0 for exact evaluations. For Monte Carlo, the joint and the
    marginals share the same replicate set and the error is the binomial
    standard error of the joint combined in quadrature with the delta-method
    error of the marginal product.
    """

    gap_estimate: float
    std_error: float
    theoretical_bound: float
    method: str
    lags: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if self.gap_estimate < 0.0:
            raise ValueError("gap must be nonnegative")
        if self.method not in ("exact", "mc"):
            raise ValueError("method must be 'exact' or 'mc'")
        if self.method == "exact" and self.std_error != 0.0:
            raise ValueError("exact evaluation must report zero std error")


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------


def _profile_for(model: ModelSpec, horizon: int, profile: MixingProfile | None) -> MixingProfile:
    if profile is not None:
        return profile
    return mixing_rate(model.chain, s_max=max(horizon, 2))


def _validate_lags(lags: Sequence[int], k: int) -> tuple[int, ...]:
    lags = tuple(int(t) for t in lags)
    if len(lags) != k - 1:
        raise ValueError(f"{k} events require {k - 1} inter-event lags, got {len(lags)}")
    if any(t < 1 for t in lags):
        raise ValueError("lags must be positive integers")
    return lags


def _transfer(start: np.ndarray, weights: Sequence[np.ndarray], steps: Sequence[tuple]) -> np.ndarray:
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


def _joint(model: ModelSpec, weights: Sequence[np.ndarray], lags: Sequence[int]) -> np.ndarray:
    """Stationary joint probability of every choice of one event per position.

    weights[r] is a (B_r, N) stack of event weights, position r + 1 lags[r]
    steps after position r; the (B_0, ..., B_last) result holds
    pi W_0 P^lag_0 W_1 ... W_last 1 for every choice of one row per stack.
    """
    k = len(weights)
    outer = [w.reshape((1,) * r + (len(w),) + (1,) * (k - 1 - r) + (model.n_states,))
             for r, w in enumerate(weights)]
    return _transfer(model.stationary(), outer, [(model.chain.p, t) for t in lags])


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
    joint = _joint(model, [cond, target_weights], [tau])
    return np.abs(joint[1:] / p_cond[:, None] - joint[0])


def conditional_gap_exact(
    model: ModelSpec,
    event_a: RectEvent,
    event_b: RectEvent,
    tau: int,
    profile: MixingProfile | None = None,
) -> GapReport:
    """|P(A at T+tau | B at T) - P(A at T+tau)| under the stationary law.

    The theoretical envelope is 2 c alpha^tau. It is certified for target
    events whose state_set is a single regime (or the full space); target
    events mixing several regimes can exceed it.

    Raises
    ------
    EmptyConditioningEvent
        If P(B) = 0 under the stationary law.
    """
    gaps = conditional_gap_matrix(
        model, event_a.weights(model)[None, :], event_b.weights(model)[None, :], tau
    )
    prof = _profile_for(model, tau, profile)
    return GapReport(
        gap_estimate=float(gaps[0, 0]),
        std_error=0.0,
        theoretical_bound=2.0 * prof.bound(tau),
        method="exact",
        lags=(int(tau),),
        k=2,
    )


def joint_product_gap(
    model: ModelSpec,
    events: Sequence[RectEvent],
    lags: Sequence[int],
    method: str = "exact",
    replicates: int = 100_000,
    seed: SeedSpec | None = None,
    profile: MixingProfile | None = None,
) -> GapReport:
    """|P(joint of k events) - product of marginals| at the given spacings.

    Event r sits lags[r-1] steps after event r-1 (k events, k-1 lags). The
    reported envelope is k c alpha^(sum lags).

    Raises
    ------
    TooManyEventsForExact
        If method="exact" and more than 6 events are given.
    """
    k = len(events)
    if k < 2:
        raise ValueError("at least two events are required")
    lags = _validate_lags(lags, k)
    total_lag = sum(lags)
    prof = _profile_for(model, total_lag, profile)
    bound = k * prof.c * prof.alpha**total_lag

    if method == "exact":
        if k > MAX_EXACT_EVENTS:
            raise TooManyEventsForExact(f"exact evaluation supports at most {MAX_EXACT_EVENTS} events")
        gap, std_error = _max_tuple_gap(model, [events], lags), 0.0
    elif method == "mc":
        if seed is None:
            raise ValueError("Monte Carlo evaluation requires a seed")
        gaps, std_errors = _mc_tuple_gaps(model, [events], lags, replicates, seed)
        gap, std_error = float(gaps[0]), float(std_errors[0])
    else:
        raise ValueError("method must be 'exact' or 'mc'")
    return GapReport(
        gap_estimate=gap,
        std_error=std_error,
        theoretical_bound=bound,
        method=method,
        lags=lags,
        k=k,
    )


def chained_gap_bound(profile: MixingProfile, lags: Sequence[int]) -> float:
    """Envelope obtained by chaining the conditional gap across the events.

    Splitting off one event at a time bounds the joint-product gap by
    2 c sum_r alpha^tau_r. Unlike the k c alpha^(sum lags) form, exact gaps
    respect this envelope on every tested configuration.
    """
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
    replicates: int = 100_000,
    seed: SeedSpec | None = None,
    base_events: Sequence[RectEvent] | None = None,
) -> float:
    """Certified near-independence level over a rectangle-event family.

    Returns the largest joint-product gap across the family of event tuples
    at the given spacings. With the default family the tuples are all
    combinations of the reference events, one per time point; base_events
    swaps in a different per-position event pool. In Monte Carlo mode every
    tuple is evaluated on a common replicate set and 3 standard errors are
    added, making the certificate conservative.

    The exact gap is multilinear in the events' weight vectors: an event
    weighing s v, with 0 <= s <= 1 and v another pool event's weights, gives
    s times the gap of the same tuple with v in its place. A pool (default
    or base_events) is therefore pruned to its undominated events before
    either method scores it: the true maximum lies on them, so the exact
    value is unchanged and the Monte Carlo value stays conservative. For the
    default pool these are the full-line regime events and the full space.
    An explicit family is scored as given, its tuples stacked in chunks and
    each distinct event weighed once. A pool or family with nothing to
    score gives 0.
    """
    if len(lags) == 0:
        raise ValueError("at least one lag is required")
    k = len(lags) + 1
    lags = _validate_lags(lags, k)
    if family is not None and base_events is not None:
        raise ValueError("give either an explicit family or base_events, not both")
    if method == "exact" and k > MAX_EXACT_EVENTS:
        raise TooManyEventsForExact(f"exact evaluation supports at most {MAX_EXACT_EVENTS} events")

    if family is None:
        base = default_event_family(model) if base_events is None else tuple(base_events)
        weights = np.stack([ev.weights(model) for ev in base])
        keep = _undominated(weights)
        if method == "exact":
            return _epsilon_exact_product_family(model, weights[keep], lags)
        family = itertools.product(itertools.compress(base, keep), repeat=k)

    if method == "exact":
        return _max_tuple_gap(model, family, lags)
    if method != "mc":
        raise ValueError("method must be 'exact' or 'mc'")
    if seed is None:
        raise ValueError("Monte Carlo evaluation requires a seed")
    family = list(family)
    if not family:
        return 0.0
    gaps, std_errors = _mc_tuple_gaps(model, family, lags, replicates, seed)
    return float(np.max(gaps + 3.0 * std_errors))


def _max_tuple_gap(model: ModelSpec, family: Iterable[Sequence[RectEvent]], lags: tuple[int, ...]) -> float:
    """Exact max |joint - product| gap over the event tuples of a family, 0 if empty.

    Chunks of tuples go through `_transfer` as stacks, row r of every
    position from tuple r; each distinct event is weighed once.
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
        w = np.stack(rows)
        joint = _transfer(model.stationary(), list(w[idx.T]), [(model.chain.p, t) for t in lags])
        best = max(best, float(np.max(np.abs(joint - (w @ model.stationary())[idx].prod(axis=1)))))
    return best


def _epsilon_exact_product_family(
    model: ModelSpec, w: NDArray[np.float64], lags: tuple[int, ...]
) -> float:
    """Exact max gap over all tuples of B events, shared-prefix DP.

    w (B, N) holds the weights of a pool's undominated events. Per leading
    event, `_joint` shares every tuple prefix's propagated state vector, so
    the tuples cost O(B^(k-2)) vectorised steps per leading event instead
    of B^k independent evaluations, and at most B^(k-2) max(N, B) values
    are held. If those would pass MAX_EXACT_CERTIFICATE_BYTES, ConfigInvalid
    is raised with nothing beyond the weights allocated.
    """
    n_base, n_states = w.shape
    needed = n_base ** (len(lags) - 1) * max(n_states, n_base) * 8
    if needed > MAX_EXACT_CERTIFICATE_BYTES:
        raise ConfigInvalid(
            f"exact certificate over {n_base} undominated events and {len(lags)} lags "
            f"needs {needed} bytes, above the {MAX_EXACT_CERTIFICATE_BYTES}-byte cap; "
            "use fewer quantile levels or fewer lags"
        )
    marg = w @ model.stationary()  # (B,)
    best = 0.0
    for b0 in range(n_base):
        gap = _joint(model, [w[b0 : b0 + 1]] + [w] * len(lags), lags)
        prod = marg[b0 : b0 + 1]
        for _ in lags:
            prod = np.multiply.outer(prod, marg)
        gap -= prod
        best = max(best, float(np.max(np.abs(gap, out=gap))))
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


def _mc_tuple_gaps(
    model: ModelSpec,
    family: Sequence[Sequence[RectEvent]],
    lags: tuple[int, ...],
    replicates: int,
    seed: SeedSpec,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Monte Carlo gap and standard error of every tuple in the family.

    All tuples share one set of stationary replicate paths, and each
    distinct event at each position is evaluated once per chunk. A chunk
    holds at most 2^24 / len(family) replicates, so its (replicates, tuples)
    joint indicators stay near 2^24 booleans however many replicates are
    drawn; chunking does not change the result. The error is the binomial
    standard error of the joint rate combined in quadrature with the
    delta-method error of the product of marginal rates.
    """
    k = len(lags) + 1
    if any(len(events) != k for events in family):
        raise ValueError(f"every event tuple must have {k} entries")
    t_idx = np.concatenate([[0], np.cumsum(lags)])
    slots: list[dict[RectEvent, int]] = [{} for _ in range(k)]  # distinct events per position
    tuple_idx = np.array(
        [[slots[r].setdefault(ev, len(slots[r])) for r, ev in enumerate(events)]
         for events in family],
        dtype=np.int64,
    ).reshape(len(family), k)

    joint_hits = np.zeros(len(family), dtype=np.int64)
    marg_hits = [np.zeros(len(events), dtype=np.int64) for events in slots]
    n = int(t_idx[-1]) + 1
    # A replicate draws 2n + 1 uniforms.
    max_elements = min(CHUNK_ELEMENTS, max(1, 2**24 // len(family)) * (2 * n + 1))
    stationary = model.stationary_start()
    for _start, states, obs in iter_path_chunks(stationary, n, replicates, seed, times=t_idx,
                                                max_elements=max_elements):
        joint = True
        for r, events in enumerate(slots):
            cols = states[:, t_idx[r]], obs[:, r]
            ind = np.stack([ev.indicator(*cols) for ev in events], axis=1)
            marg_hits[r] += ind.sum(axis=0)
            joint = joint & ind[:, tuple_idx[:, r]]
        joint_hits += joint.sum(axis=0)

    joint_rate = joint_hits / replicates
    margs = np.stack([marg_hits[r][tuple_idx[:, r]] for r in range(k)], axis=1) / replicates
    product = margs.prod(axis=1)
    # d product / d m_r = product / m_r; a rate of 0 adds no error.
    partial = np.divide(product[:, None], margs, out=np.zeros_like(margs), where=margs > 0.0)
    variance = joint_rate * (1.0 - joint_rate)
    variance += (partial * partial * margs * (1.0 - margs)).sum(axis=1)
    return np.abs(joint_rate - product), np.sqrt(variance / replicates)
