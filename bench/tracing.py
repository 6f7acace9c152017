"""Span tracing of the program's layers from outside the program.

`Tracer.install()` wraps every public function and public method of the
layer modules and rebinds each wrapper wherever the package looks the
original up (the defining module, every module that imported the name, the
package namespace, the class). Nothing under src/ changes. Each call records
a span (name, start, end, parent) in memory; generator functions record one
span per resumption, so a span covers the time the generator body runs and
not the consumer's loop body.

`summarize` turns the spans into per-layer metrics. A span's self time is
its duration minus its child spans. Each named time metric is anchored on
one or more functions; a span's self time is charged to the innermost
enclosing anchor reached without leaving the span's layer (so the emission
transforms under `iter_path_chunks` count as sampler time, but a stationary
solve under `mixture_quantile` counts as chain time). `<layer>.self_s` is the
layer's whole self time inside `run_scenario`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("seeds", "process", "chain", "independence", "charfn", "clt", "runner")

# metric -> the functions it is anchored on. Times are self times in seconds.
ANCHORS = {
    "seeds.replicate_rng_s": ("SeedSpec.replicate_rng",),
    "process.sampler_s": ("iter_path_chunks", "sample_path", "sample_stationary_mixture"),
    "process.quantile_s": ("mixture_quantile",),
    "process.model_build_s": ("ModelSpec.from_json_dict",),
    "chain.stationary_s": ("stationary_distribution",),
    "chain.mixing_fit_s": ("mixing_rate",),
    "independence.conditional_gap_s": ("conditional_gap_exact",),
    "independence.certificate_s": ("epsilon_certificate",),
    "charfn.cf_gap_s": ("cf_factorization_gap", "cf_factorization_gap_from_samples"),
    "charfn.step_s": ("build_step_approximation", "truncation_radius"),
    "clt.batch_means_s": ("long_run_std_batch_means",),
    "clt.ks_s": ("ks_distance_to_std_normal",),
    "clt.lindeberg_s": ("lindeberg_check",),
    "clt.remainder_s": ("remainder_diagnostic",),
    "clt.decompose_s": ("decompose",),
}

# metric -> function whose calls it counts.
CALL_COUNTS = {
    "seeds.replicate_streams": "SeedSpec.replicate_rng",
    "process.quantile_solves": "mixture_quantile",
    "chain.stationary_solves": "stationary_distribution",
    "chain.ergodicity_checks": "is_ergodic",
    "independence.conditional_gaps": "conditional_gap_exact",
    "independence.event_weights": "RectEvent.weights",
}

SETUP_ROOT = "load_scenario"
SCENARIO_ROOT = "run_scenario"


class Tracer:
    """In-memory span recorder; spans are [name_index, start_ns, end_ns, parent]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[list[int]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _intern(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        idx = self._intern(name, layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        on_call = _CALL_HOOKS.get(name)
        on_item = _ITEM_HOOKS.get(name)

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = [idx, clock(), 0, stack[-1]]
                    spans.append(rec)
                    stack.append(len(spans) - 1)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        rec[2] = clock()
                    if on_item is not None:
                        on_item(self.counts, item)
                    yield item
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self.counts, fn, args, kwargs)
            rec = [idx, clock(), 0, stack[-1]]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions everywhere the package binds them."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"regimeclt.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(obj, attr, layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "regimeclt" and not mod_name.startswith("regimeclt."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name, layer))

    def dump(self) -> dict:
        return {"names": self.names, "layers": self.layer_of, "spans": self.spans,
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries
# ---------------------------------------------------------------------------


def _count_paths(counts: Counter, item) -> None:
    _start, states, _obs = item
    counts["process.paths"] += int(states.shape[0])
    counts["process.obs"] += int(states.size)


def _count_certificate(counts: Counter, fn, args, kwargs) -> None:
    """Tuples scored and the size of the prefix DP array, B^(k-1) N float64,
    computed from the arguments of an exact product-family certificate."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if a["method"] != "exact" or a["family"] is not None:
        return
    model = a["model"]
    independence = sys.modules["regimeclt.independence"]
    if a["base_events"] is not None:
        b = len(a["base_events"])
    else:
        b = model.n_states * (len(independence.DEFAULT_QUANTILE_LEVELS) + 1) + 1
    k = len(a["lags"]) + 1
    counts["independence.certificate_tuples"] += b**k
    counts["independence.certificate_bytes"] = max(
        counts["independence.certificate_bytes"], b ** (k - 1) * model.n_states * 8
    )


_ITEM_HOOKS = {"iter_path_chunks": _count_paths}
_CALL_HOOKS = {"epsilon_certificate": _count_certificate}


# ---------------------------------------------------------------------------
# per-layer summary
# ---------------------------------------------------------------------------


def summarize(trace: dict) -> dict:
    """Per-layer metrics from one traced process (see the module docstring)."""
    names, layers, spans = trace["names"], trace["layers"], trace["spans"]
    n = len(spans)
    child_ns = [0] * n
    for name_idx, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    anchor_metric = {fn: metric for metric, fns in ANCHORS.items() for fn in fns}

    # Spans are appended at entry, so every parent precedes its children.
    owner = [None] * n
    phase = [None] * n
    out = Counter()
    calls = Counter()
    sampler_ns = 0
    root_ns = {SETUP_ROOT: 0, SCENARIO_ROOT: 0}
    for i, (name_idx, start, end, parent) in enumerate(spans):
        name, layer = names[name_idx], layers[name_idx]
        if parent < 0:
            phase[i] = name
            if name in root_ns:
                root_ns[name] += end - start
        else:
            phase[i] = phase[parent]
        if name in anchor_metric:
            owner[i] = anchor_metric[name]
        elif parent >= 0 and layers[spans[parent][0]] == layer:
            owner[i] = owner[parent]
        self_ns = end - start - child_ns[i]
        if owner[i] is not None:
            out[owner[i]] += self_ns
        if phase[i] != SCENARIO_ROOT:
            continue
        calls[name] += 1
        out[f"{layer}.self_s"] += self_ns
        if name == "iter_path_chunks":
            sampler_ns += end - start

    metrics = {}
    for metric in ANCHORS:
        metrics[metric] = out[metric] / 1e9
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = out[f"{layer}.self_s"] / 1e9
    for metric, fn in CALL_COUNTS.items():
        metrics[metric] = calls[fn]
    for metric in ("process.paths", "process.obs", "independence.certificate_tuples",
                   "independence.certificate_bytes"):
        metrics[metric] = int(trace["counts"].get(metric, 0))
    metrics["process.sampler_obs_per_s"] = (
        metrics["process.obs"] / (sampler_ns / 1e9) if sampler_ns else 0.0
    )
    metrics["setup.load_s"] = root_ns[SETUP_ROOT] / 1e9
    metrics["trace.scenario_span_s"] = root_ns[SCENARIO_ROOT] / 1e9
    return metrics
