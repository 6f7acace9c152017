"""Regime-switching process simulation and filtering.

A hidden finite-state chain selects, at every step, which emission
distribution produces the observed value. Emissions depend on the current
regime only, so given the regime path the observations are independent. The
observable law of X_t given the observation history is the mixture

    f(x | history) = sum_j f_j(x) * P(S_t = j | history),

with the regime predictive computed by a one-step-ahead forward filter.

Conventions: regime labels are 1-based in all public records. The model's
initial distribution describes the regime *before* the first emitted
observation; the first recorded state is one transition past it, so the
predictive for an empty history is the initial distribution propagated one
step (stationary initials are therefore fixed points).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.typing import NDArray

from .chain import ROW_SUM_TOL, TransitionMatrix, is_ergodic
from .errors import InvalidModel, ZeroLikelihood
from .seeds import REPLICATE_BLOCK, SeedSpec

# mixture_quantile shrinks its bracket by at most 2^-100: below 1e-12 for any
# bracket narrower than 1e18. It is a cap: the loop stops at the first halving
# that moves no bracket end (57-67 halvings on 150 random 2-4 state mixtures).
_QUANTILE_HALVINGS = 100
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
# Default cap on the uniforms one iter_path_chunks chunk draws (80 MB).
CHUNK_ELEMENTS = 10_000_000
# EmissionSpec.ppf_by_state transforms uniforms in row blocks of about this
# many elements, so the temporaries of a family's quantile (128 KiB each) stay
# in a core's L2 cache whatever the (paths, steps) shape.
_OBS_BLOCK_ELEMENTS = 1 << 14
# Largest next-regime table _walk_table builds: about 2^25 int16 entries,
# enough for any chain of up to 322 states.
_WALK_TABLE_BYTES = 1 << 26


# ---------------------------------------------------------------------------
# standard normal CDF and quantile
# ---------------------------------------------------------------------------

# AS241 (PPND16) numerator and denominator coefficients, highest power first:
# the central ratio in r = 0.180625 - q^2, then the two tail ratios in
# r = sqrt(-log min(p, 1 - p)) - 1.6 (r <= 5) and r - 5 (r > 5).
_AS241_CENTRAL = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_AS241_NEAR_TAIL = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632045960e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0),
)
_AS241_FAR_TAIL = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561329059e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0),
)


def _rational(coeffs, r: NDArray[np.float64]) -> NDArray[np.float64]:
    """num(r) / den(r) by Horner's rule, for one (num, den) pair of AS241."""
    num, den = (r * c[0] for c in coeffs)
    num += coeffs[0][1]
    den += coeffs[1][1]
    for a, b in zip(coeffs[0][2:], coeffs[1][2:]):
        num *= r
        num += a
        den *= r
        den += b
    return num / den


def _ndtri(p) -> NDArray[np.float64]:
    """Standard normal quantile by Wichura's AS241 (PPND16).

    M. J. Wichura, "Algorithm AS 241: The percentage points of the normal
    distribution", Applied Statistics 37(3), 477-484, 1988; the same
    approximation as CPython's statistics.NormalDist.inv_cdf, accurate to
    about 1e-16 relative. The central ratio (|p - 1/2| <= 0.425, 85% of
    levels) is evaluated on the whole array, then only the tail entries are
    recomputed. p = 0 and p = 1 give -inf and +inf.
    """
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    q = flat - 0.5
    x = q * _rational(_AS241_CENTRAL, 0.180625 - q * q)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    if tail.size:
        pt = flat[tail]
        # p = 0 and p = 1 make r infinite and their ratio nan; they are set last.
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
            far = r > 5.0
            xt = np.empty_like(r)
            xt[~far] = _rational(_AS241_NEAR_TAIL, r[~far] - 1.6)
            xt[far] = _rational(_AS241_FAR_TAIL, r[far] - 5.0)
        xt[np.isinf(r)] = np.inf
        x[tail] = np.where(q[tail] < 0.0, -xt, xt)
    return x.reshape(p.shape)


def _ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), elementwise by math.erfc.

    Every caller passes a scalar or a short array, for which a Python loop
    costs less than setting up a vectorised evaluation; a scalar returns a
    float.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) * -_SQRT1_2)
    z = (np.asarray(x, dtype=np.float64) * -_SQRT1_2).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, z), np.float64, len(z)).reshape(np.shape(x))


# ---------------------------------------------------------------------------
# emission families
# ---------------------------------------------------------------------------

# cf(t) is each family's characteristic function and cf_bound(s) a bound on
# |cf(s)| nonincreasing in |s|; every family also has |cf(s)| <= 1 / (|s| sd).
# quantile(u, *fields) is the family's inverse CDF with its parameters, in
# field order, broadcast against u; ppf(u) applies it with the component's own.


@dataclass(frozen=True)
class Gaussian:
    """Normal emission with mean mu and standard deviation sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)) or self.sigma <= 0:
            raise InvalidModel("gaussian emission requires finite mu and sigma > 0")

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma

    def pdf(self, x):
        z = (np.asarray(x, dtype=np.float64) - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * _SQRT_2PI)

    def cdf(self, x):
        return _ndtr((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma)

    @staticmethod
    def quantile(u, mu, sigma):
        return mu + sigma * _ndtri(np.clip(np.asarray(u, dtype=np.float64), 1e-300, None))

    def ppf(self, u):
        return self.quantile(u, self.mu, self.sigma)

    def abs_third_moment(self, center: float = 0.0) -> float:
        # E|X - center|^3 via the folded-normal third moment.
        d = (self.mu - center) / self.sigma
        phi = math.exp(-0.5 * d * d) / _SQRT_2PI
        cum = _ndtr(d)
        val = (d**3 + 3.0 * d) * (2.0 * cum - 1.0) + 2.0 * (d * d + 2.0) * phi
        return self.sigma**3 * float(val)

    def tail_second_moment(self, center: float, a: float) -> float:
        # E[Y^2; Y > a] for Y = +-(X - center) ~ N(d, s^2), each tail directly.
        s = self.sigma
        total = 0.0
        for d in (self.mu - center, center - self.mu):
            z = (a - d) / s
            phi = math.exp(-0.5 * z * z) / _SQRT_2PI
            total += (s * s + d * d) * _ndtr(-z) + s * (a + d) * phi
        return total

    def cf(self, t):
        return np.exp(1j * self.mu * t - 0.5 * (self.sigma * t) ** 2)

    def cf_bound(self, s):
        return np.exp(-0.5 * (self.sigma * s) ** 2)

    def effective_support(self) -> tuple[float, float]:
        return (self.mu - 10.0 * self.sigma, self.mu + 10.0 * self.sigma)

    def to_json_dict(self) -> dict:
        return {"family": "gaussian", "mu": self.mu, "sigma": self.sigma}


@dataclass(frozen=True)
class Uniform:
    """Uniform emission on [a, b], a < b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a >= self.b:
            raise InvalidModel("uniform emission requires finite a < b")

    @property
    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    @property
    def variance(self) -> float:
        width = self.b - self.a
        return width * width / 12.0

    def pdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    @staticmethod
    def quantile(u, a, b):
        return a + (b - a) * np.asarray(u, dtype=np.float64)

    def ppf(self, u):
        return self.quantile(u, self.a, self.b)

    def abs_third_moment(self, center: float = 0.0) -> float:
        a, b, c = self.a, self.b, center
        w = b - a
        if c <= a:
            return ((b - c) ** 4 - (a - c) ** 4) / (4.0 * w)
        if c >= b:
            return ((c - a) ** 4 - (c - b) ** 4) / (4.0 * w)
        return ((c - a) ** 4 + (b - c) ** 4) / (4.0 * w)

    def tail_second_moment(self, center: float, a: float) -> float:
        # int y^2 dy / w over [lo, hi] outside (-a, a]; an empty piece has y1 = y2.
        lo, hi = self.a - center, self.b - center
        total = 0.0
        for y1, y2 in ((min(max(a, lo), hi), hi), (lo, max(min(-a, hi), lo))):
            total += (y2 - y1) * (y2 * y2 + y1 * y2 + y1 * y1)
        return total / (3.0 * (self.b - self.a))

    def cf(self, t):
        # Centred sinc: the quotient (e^{itb} - e^{ita}) / (it(b - a)) loses eps / |t|.
        return np.exp(0.5j * (self.a + self.b) * t) * np.sinc(0.5 * (self.b - self.a) * t / math.pi)

    def cf_bound(self, s):
        # sin(h) / h up to h = pi/2, where it meets 1 / h.
        h = 0.5 * (self.b - self.a) * np.abs(s)
        return np.where(h <= 0.5 * math.pi, np.sinc(h / math.pi), 1.0 / np.maximum(h, 1.0))

    def effective_support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def to_json_dict(self) -> dict:
        return {"family": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class ShiftedExponential:
    """Exponential emission with the given rate, shifted to start at `shift`."""

    rate: float
    shift: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and math.isfinite(self.shift)) or self.rate <= 0:
            raise InvalidModel("shifted exponential emission requires finite shift and rate > 0")

    @property
    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    @property
    def variance(self) -> float:
        # rate * rate underflows to 0 only where 1 / rate^2 overflows.
        rate_sq = self.rate * self.rate
        return 1.0 / rate_sq if rate_sq > 0.0 else math.inf

    def pdf(self, x):
        y = np.asarray(x, dtype=np.float64) - self.shift
        out = np.where(y >= 0.0, self.rate * np.exp(-self.rate * np.clip(y, 0.0, None)), 0.0)
        return out

    def cdf(self, x):
        y = np.asarray(x, dtype=np.float64) - self.shift
        return np.where(y >= 0.0, -np.expm1(-self.rate * np.clip(y, 0.0, None)), 0.0)

    @staticmethod
    def quantile(u, rate, shift):
        return shift - np.log1p(-np.asarray(u, dtype=np.float64)) / rate

    def ppf(self, u):
        return self.quantile(u, self.rate, self.shift)

    def abs_third_moment(self, center: float = 0.0) -> float:
        # E|Y - d|^3 for Y ~ Exp(rate), d = center - shift, via the partial
        # moments M_k(d) = int_0^d y^k rate e^(-rate y) dy.
        lam = self.rate
        d = center - self.shift
        if d <= 0.0:
            return 6.0 / lam**3 - 6.0 * d / lam**2 + 3.0 * d * d / lam - d**3
        e = math.exp(-lam * d)
        m0 = 1.0 - e
        m1 = m0 / lam - d * e
        m2 = 2.0 * m1 / lam - d * d * e
        m3 = 3.0 * m2 / lam - d**3 * e
        below = d**3 * m0 - 3.0 * d * d * m1 + 3.0 * d * m2 - m3
        above = 6.0 * e / lam**3
        return below + above

    def tail_second_moment(self, center: float, a: float) -> float:
        # g(t) = int_t^inf (x - center)^2 pdf(x) dx for t >= shift; the lower
        # tail [shift, max(center - a, shift)] is empty when its ends meet.
        def g(t):
            y = t - center
            return math.exp(-self.rate * (t - self.shift)) * (y * y + 2.0 * y / self.rate
                                                                + 2.0 / self.rate**2)

        lower = g(self.shift) - g(max(center - a, self.shift))
        return g(max(center + a, self.shift)) + lower

    def cf(self, t):
        return np.exp(1j * self.shift * t) * self.rate / (self.rate - 1j * t)

    def cf_bound(self, s):
        return self.rate / np.hypot(self.rate, np.asarray(s, dtype=np.float64))

    def effective_support(self) -> tuple[float, float]:
        return (self.shift, self.shift + 50.0 / self.rate)

    def to_json_dict(self) -> dict:
        return {"family": "shifted_exponential", "rate": self.rate, "shift": self.shift}


Emission = Union[Gaussian, Uniform, ShiftedExponential]

_FAMILY_PARSERS = {
    "gaussian": lambda o: Gaussian(float(o["mu"]), float(o["sigma"])),
    "uniform": lambda o: Uniform(float(o["a"]), float(o["b"])),
    "shifted_exponential": lambda o: ShiftedExponential(float(o["rate"]), float(o.get("shift", 0.0))),
}


def emission_from_json_dict(obj: dict) -> Emission:
    family = obj.get("family")
    if family not in _FAMILY_PARSERS:
        raise InvalidModel(f"unknown emission family {family!r}")
    return _FAMILY_PARSERS[family](obj)


@dataclass(frozen=True)
class EmissionSpec:
    """Per-regime emission distributions, one component per state.

    The CLT needs emissions that satisfy Lindeberg's condition, which here
    means finite, positive variances. Construction checks that in closed
    form: every component variance is > 0, and (2 max|mean|)^2 + max
    variance is finite. That sum bounds the stationary mixture's squared
    mean and its variance under any regime weights. The check uses float
    products, which overflow to inf instead of raising.
    """

    components: tuple[Emission, ...]

    def __post_init__(self) -> None:
        components = tuple(self.components)
        if not components:
            raise InvalidModel("at least one emission component is required")
        object.__setattr__(self, "components", components)
        variances = [c.variance for c in components]
        spread = 2.0 * max(abs(c.mean) for c in components)
        if min(variances) <= 0.0 or not math.isfinite(spread * spread + max(variances)):
            raise InvalidModel("emissions need variances > 0 and a finite (2 max|mean|)^2 "
                               f"+ max variance; got variances {variances}")

    @property
    def n_states(self) -> int:
        return len(self.components)

    def means(self) -> NDArray[np.float64]:
        return np.array([c.mean for c in self.components])

    def variances(self) -> NDArray[np.float64]:
        return np.array([c.variance for c in self.components])

    def pdf_matrix(self, x) -> NDArray[np.float64]:
        """Stack of component densities evaluated at x; shape (n_states, ...)."""
        return np.stack([np.asarray(c.pdf(x), dtype=np.float64) for c in self.components])

    def cf_matrix(self, t) -> NDArray[np.complex128]:
        """Component characteristic functions at t; shape t.shape + (n_states,)."""
        return np.stack([c.cf(t) for c in self.components], axis=-1)

    def interval_weights(self, lo: float, hi: float) -> NDArray[np.float64]:
        """Per-component probability of the interval (lo, hi]."""
        out = np.empty(self.n_states)
        for j, comp in enumerate(self.components):
            upper = 1.0 if hi == math.inf else float(comp.cdf(hi))
            lower = 0.0 if lo == -math.inf else float(comp.cdf(lo))
            out[j] = max(upper - lower, 0.0)
        return out

    def ppf_by_state(self, states0, u) -> NDArray[np.float64]:
        """Inverse-CDF transform of uniforms u under the 0-based state array.

        states0 and u share one shape of at least one axis, and are taken in
        blocks of about _OBS_BLOCK_ELEMENTS along the first. In each block every
        emission family's quantile runs once, on its parameters gathered by
        state; entries are masked by family only when the model mixes
        families. Each entry gets its component's ppf operations, bit for bit.
        """
        states0 = np.asarray(states0)
        u = np.asarray(u, dtype=np.float64)
        families = list(dict.fromkeys(type(c) for c in self.components))
        family_of_state = np.array([families.index(type(c)) for c in self.components])
        # Per family, one row per quantile parameter and one column per state.
        params = [np.zeros((len(dataclasses.fields(f)), self.n_states)) for f in families]
        for j, comp in enumerate(self.components):
            params[family_of_state[j]][:, j] = dataclasses.astuple(comp)
        out = np.empty(u.shape)
        block = max(1, _OBS_BLOCK_ELEMENTS // max(1, math.prod(u.shape[1:])))
        for r0 in range(0, len(u), block):
            s, ub, ob = states0[r0 : r0 + block], u[r0 : r0 + block], out[r0 : r0 + block]
            fam = family_of_state[s] if len(families) > 1 else None
            for f, family in enumerate(families):
                at = ... if fam is None else fam == f
                ob[at] = family.quantile(ub[at], *params[f].take(s[at], axis=1))
        return out

    def to_json_list(self) -> list[dict]:
        return [c.to_json_dict() for c in self.components]


# ---------------------------------------------------------------------------
# model and path records
# ---------------------------------------------------------------------------

Initial = Union[str, int, tuple]


@dataclass(frozen=True)
class ModelSpec:
    """Hidden-regime model: chain, per-state emissions, initial regime law.

    initial is one of:
      * "stationary" -- start from the stationary distribution;
      * an int j in 1..n_states -- start from the fixed regime j;
      * an explicit probability vector of length n_states.
    """

    chain: TransitionMatrix
    emissions: EmissionSpec
    initial: Initial = "stationary"

    def __post_init__(self) -> None:
        if self.chain.n_states != self.emissions.n_states:
            raise InvalidModel(
                f"chain has {self.chain.n_states} states but "
                f"{self.emissions.n_states} emission components were given"
            )
        init = self.initial
        if isinstance(init, str):
            if init != "stationary":
                raise InvalidModel(f"unknown initial specification {init!r}")
        elif isinstance(init, (int, np.integer)):
            if not 1 <= int(init) <= self.n_states:
                raise InvalidModel(f"fixed initial state must lie in 1..{self.n_states}")
            object.__setattr__(self, "initial", int(init))
        else:
            vec = np.asarray(init, dtype=np.float64)
            if vec.shape != (self.n_states,):
                raise InvalidModel("explicit initial vector has the wrong length")
            if np.any(vec < 0.0) or abs(vec.sum() - 1.0) > ROW_SUM_TOL:
                raise InvalidModel("explicit initial vector must be a probability vector")
            object.__setattr__(self, "initial", tuple(float(v) for v in vec))

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    def stationary(self) -> NDArray[np.float64]:
        """Read-only stationary law of the chain, cached on the chain."""
        return self.chain.stationary()

    def stationary_start(self) -> "ModelSpec":
        """This model started from its stationary law, sharing the chain."""
        if self.initial == "stationary":
            return self
        return dataclasses.replace(self, initial="stationary")

    def initial_distribution(self) -> NDArray[np.float64]:
        if self.initial == "stationary":
            return self.stationary()
        if isinstance(self.initial, int):
            vec = np.zeros(self.n_states)
            vec[self.initial - 1] = 1.0
            return vec
        return np.asarray(self.initial, dtype=np.float64)

    def to_json_dict(self) -> dict:
        if self.initial == "stationary":
            init_obj: object = "stationary"
        elif isinstance(self.initial, int):
            init_obj = {"fixed_state": self.initial}
        else:
            init_obj = {"probs": list(self.initial)}
        return {
            "chain": self.chain.to_json_dict(),
            "emissions": self.emissions.to_json_list(),
            "initial": init_obj,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSpec":
        try:
            chain = TransitionMatrix.from_json_dict(obj["chain"])
            emissions = EmissionSpec(tuple(emission_from_json_dict(e) for e in obj["emissions"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidModel(f"malformed model specification: {exc}") from exc
        init_obj = obj.get("initial", "stationary")
        initial: Initial
        if init_obj == "stationary":
            initial = "stationary"
        elif isinstance(init_obj, dict) and "fixed_state" in init_obj:
            initial = init_obj["fixed_state"]
            # An integral float passes; int() would truncate 1.5 and overflow on inf.
            if isinstance(initial, float) and initial.is_integer():
                initial = int(initial)
            if isinstance(initial, bool) or not isinstance(initial, int):
                raise InvalidModel(f"fixed_state must be an integer regime label, got {initial!r}")
        elif isinstance(init_obj, dict) and "probs" in init_obj:
            initial = tuple(float(v) for v in init_obj["probs"])
        else:
            raise InvalidModel(f"unknown initial specification {init_obj!r}")
        return cls(chain=chain, emissions=emissions, initial=initial)

    @classmethod
    def from_json(cls, text: str) -> "ModelSpec":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class PathSample:
    """One simulated trajectory: 1-based regime labels, observations, seed."""

    states: NDArray[np.int64]
    observations: NDArray[np.float64]
    seed: SeedSpec

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.int64)
        obs = np.asarray(self.observations, dtype=np.float64)
        if states.ndim != 1 or obs.ndim != 1 or states.shape != obs.shape:
            raise ValueError("states and observations must be 1-d arrays of equal length")
        if states.size and states.min() < 1:
            raise ValueError("regime labels are 1-based")
        states.setflags(write=False)
        obs.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", obs)

    def __len__(self) -> int:
        return self.states.size

    def to_csv(self, path) -> None:
        """Write columns t, state, x with t starting at 1."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "state", "x"])
            for t, (s, x) in enumerate(zip(self.states, self.observations), start=1):
                writer.writerow([t, int(s), repr(float(x))])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _cumulative_rows(p: NDArray[np.float64]) -> NDArray[np.float64]:
    cum = np.cumsum(p, axis=1)
    cum[:, -1] = 1.0  # guard against row sums a hair under 1
    return cum


def _walk_table(cum: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.int16]]:
    """Thresholds and next-regime table of the walk over the rows cum.

    From regime j a uniform u moves to #{k : cum[j, k] <= u}. That count
    depends on u only through its bucket b, the number of thresholds =
    unique(cum) at or below u, so table[b, j] holds it. Bucket 0 (u below
    every threshold) moves every regime to 0. The table has (buckets, N)
    int16 entries, at most (N^2 - N + 2) N since every row ends at 1; one
    over _WALK_TABLE_BYTES raises InvalidModel before it is allocated.
    """
    n_states = cum.shape[0]
    # np.unique(cum); np.unique imports numpy.ma on first use (numpy 2.x), about
    # 14 ms of a cold process.
    thresholds = np.sort(cum, axis=None)
    thresholds = thresholds[np.concatenate(([True], thresholds[1:] != thresholds[:-1]))]
    n_buckets = thresholds.size + 1
    if n_buckets * n_states * 2 > _WALK_TABLE_BYTES:
        raise InvalidModel(f"the regime walk of this {n_states}-state chain needs a "
                           f"{n_buckets} x {n_states} next-regime table, over "
                           f"{_WALK_TABLE_BYTES} bytes")
    lower = np.concatenate(([-np.inf], thresholds))
    table = np.empty((n_buckets, n_states), dtype=np.int16)
    # Sorting a row does not change how many of its entries lie at or below
    # a value, so searchsorted counts them.
    for j, row in enumerate(np.sort(cum, axis=1)):
        table[:, j] = np.searchsorted(row, lower, side="right")
    return thresholds, table


def iter_path_chunks(
    model: ModelSpec,
    n: int,
    n_paths: int,
    seed: SeedSpec,
    max_elements: int = CHUNK_ELEMENTS,
    times=None,
) -> Iterator[tuple[int, NDArray[np.int16], NDArray[np.float64]]]:
    """Simulate many replicate paths, yielding (start_index, states, obs) chunks.

    Paths are observed at the 0-based event times tau_0 < ... < tau_{k-1} in
    0..n-1, every step when times is None. Replicate r takes 2k + 1 uniforms
    (the initial regime; k moves, the first by P^(tau_0 + 1) and move j by
    P^(tau_j - tau_{j-1}); k observations) from the stream of its block,
    seed.block_rng(r // REPLICATE_BLOCK), after the r % REPLICATE_BLOCK
    replicates before it in that block. The output is therefore independent
    of chunking, and the first m replicates are the same for every n_paths
    >= m. states chunks are (chunk, k) 1-based int16, obs chunks (chunk, k)
    float64. Move j is one bucket search of its drawn uniforms and one lookup
    in the _walk_table of P^move for all paths; nothing else is drawn, so the
    layout above is the whole of the draw order.
    """
    if n < 1 or n_paths < 1:
        raise InvalidModel("n and n_paths must be >= 1")
    times = np.arange(n) if times is None else np.asarray(times, dtype=np.int64)
    if (times.ndim != 1 or times.size == 0 or times[0] < 0 or times[-1] >= n
            or np.any(times[1:] <= times[:-1])):
        raise InvalidModel(f"times must be a non-empty, strictly increasing 1-d array of "
                           f"steps in 0..{n - 1}")
    k = times.size
    moves = np.diff(times, prepend=-1).tolist()
    # One table per distinct move, each built, and refused over its cap, before
    # the first draw.
    tables = {m: _walk_table(_cumulative_rows(np.linalg.matrix_power(model.chain.p, m)))
              for m in set(moves)}
    draws_per_rep = 2 * k + 1
    chunk_size = max(1, min(n_paths, max_elements // draws_per_rep))
    # A fixed regime j has cumsum(e_j) = (0, .., 0, 1, .., 1): every u in [0, 1) starts at j.
    cum_init = np.cumsum(model.initial_distribution())
    cum_init[-1] = 1.0

    # One uniform buffer for every chunk: a fresh one would page-fault afresh.
    # Nothing yielded is a view of it.
    buffer = np.empty((chunk_size, draws_per_rep))
    start = 0
    while start < n_paths:
        size = min(chunk_size, n_paths - start)
        u = buffer[:size]
        row = 0
        while row < size:
            # Replicates come in index order from 0, so a block's generator
            # is made at its first replicate and carried across chunk ends.
            block, offset = divmod(start + row, REPLICATE_BLOCK)
            if offset == 0:
                rng = seed.block_rng(block)
            take = min(size - row, REPLICATE_BLOCK - offset)
            rng.random(out=u[row : row + take])
            row += take
        s = np.searchsorted(cum_init, u[:, 0], side="right")
        states = np.empty((size, k), dtype=np.int16)
        for j, move in enumerate(moves):
            thresholds, table = tables[move]
            s = states[:, j] = table[np.searchsorted(thresholds, u[:, 1 + j], side="right"), s]
        obs = model.emissions.ppf_by_state(states, u[:, k + 1 :])
        yield start, states + np.int16(1), obs
        start += size


def sample_path(model: ModelSpec, n: int, seed: SeedSpec) -> PathSample:
    """Simulate n steps of the hidden chain and its emissions.

    The path is replicate 0 of iter_path_chunks(model, n, 1, seed): it follows
    that stream layout and reproduces bit for bit for a given (model, n, seed).
    """
    _start, states, obs = next(iter_path_chunks(model, n, 1, seed))
    return PathSample(states=states[0], observations=obs[0], seed=seed)


# ---------------------------------------------------------------------------
# filtering and the conditional observable density
# ---------------------------------------------------------------------------


def predictive_state_probs(model: ModelSpec, observations: Sequence[float]) -> NDArray[np.float64]:
    """One-step-ahead regime probabilities given an observation prefix.

    An empty prefix returns the initial distribution propagated one step.

    Raises
    ------
    ZeroLikelihood
        If some prefix observation has zero density under every regime.
    """
    p = model.chain.p
    pred = model.initial_distribution() @ p
    for t, x in enumerate(observations):
        like = np.array([float(c.pdf(x)) for c in model.emissions.components])
        post = pred * like
        norm = post.sum()
        if norm <= 0.0 or not math.isfinite(norm):
            raise ZeroLikelihood(f"observation {x!r} at prefix position {t} has zero likelihood")
        pred = (post / norm) @ p
    return pred


def conditional_density(model: ModelSpec, x, observations: Sequence[float] = ()) -> np.ndarray | float:
    """Mixture density of the next observation given an observation prefix.

    Accepts scalar or array x; the regime weights are the one-step-ahead
    predictive probabilities for the given prefix.
    """
    pred = predictive_state_probs(model, observations)
    values = pred @ model.emissions.pdf_matrix(x)
    if np.ndim(x) == 0:
        return float(values)
    return values


# ---------------------------------------------------------------------------
# stationary-mixture summaries
# ---------------------------------------------------------------------------


def mixture_mean(model: ModelSpec) -> float:
    pi = model.stationary()
    return float(pi @ model.emissions.means())


def mixture_variance(model: ModelSpec) -> float:
    pi = model.stationary()
    means = model.emissions.means()
    mu = float(pi @ means)
    return float(pi @ (model.emissions.variances() + (means - mu) ** 2))


def mixture_abs_third_moment(model: ModelSpec, center: float | None = None) -> float:
    """E|X - center|^3 under the stationary mixture (default: its own mean)."""
    pi = model.stationary()
    if center is None:
        center = mixture_mean(model)
    vals = np.array([c.abs_third_moment(center) for c in model.emissions.components])
    return float(pi @ vals)


def mixture_cdf(model: ModelSpec, x) -> np.ndarray | float:
    """Stationary mixture CDF, elementwise: no entry depends on x's shape."""
    pi = model.stationary()
    vals = sum(w * np.asarray(c.cdf(x), dtype=np.float64)
               for w, c in zip(pi, model.emissions.components))
    if np.ndim(x) == 0:
        return float(vals)
    return vals


def mixture_quantile(model: ModelSpec, q) -> np.ndarray | float:
    """Stationary-mixture quantiles at a level or an array of levels in (0, 1).

    All levels are solved together: up to _QUANTILE_HALVINGS halvings of
    mixture_cdf over the bracket [min effective support - 1, max + 1]. A
    halving that moves no end of any bracket would repeat itself, so the
    loop stops there with the bits the cap would give. A level gives the
    same result alone as in an array.
    """
    levels = np.asarray(q, dtype=np.float64)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError("quantile levels must lie strictly between 0 and 1")
    lows, highs = zip(*(c.effective_support() for c in model.emissions.components))
    lo = np.full(levels.shape, min(lows) - 1.0)
    hi = np.full(levels.shape, max(highs) + 1.0)
    for _ in range(_QUANTILE_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = mixture_cdf(model, mid) < levels
        if np.all(mid == np.where(below, lo, hi)):
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    return float(x) if x.ndim == 0 else x
