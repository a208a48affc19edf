"""Span tracing of chaos_bounds' layers from outside the package.

``Tracer.install`` wraps each target function in its home module and wherever
another ``chaos_bounds`` module has bound it by name (``cli`` and ``simulate``
import by name, ``gaussian_bounds`` imports ``progeny_moment_closed``), wraps
every mark class's ``sample`` method, and wraps ``numpy.random.default_rng``
to count RNG streams.  A target the package no longer defines is listed in
``Tracer.absent`` instead of failing the run.

Spans are kept in memory; the caller writes them out at exit.  Wrappers may
run on the replication driver's worker threads: nesting depth is
thread-local and the span list is appended under a lock.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict, namedtuple
from time import perf_counter

import numpy as np

Span = namedtuple("Span", "cat name t0 t1 thread outer in_window value")


def _size(args, kwargs, result):
    return int(np.size(result))


def _sample_count(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["samples"]))


def _moments_len(args, kwargs, result):
    return len(result.moments)


def _orders(args, kwargs, result):
    return len(result.per_m)


def _reps_and_workers(args, kwargs, result):
    d = result.details
    return d.get("n_reps", d.get("n_draws", 0)), kwargs.get("workers", 1)


# (category, module, function, value(args, kwargs, result) to record or None).
# Categories: cli, parser, table, moment, series, pmf, cumulant, delta,
# bounds, window, field, cascade, distance, verify, rng; "mark" is added for
# the mark classes' sample methods.
TARGETS = (
    ("cli", "chaos_bounds.cli", "main", None),
    ("parser", "chaos_bounds.cli", "build_parser", None),
    ("table", "chaos_bounds.progeny", "progeny_moment_table", _moments_len),
    ("moment", "chaos_bounds.progeny", "progeny_moment", None),
    ("moment", "chaos_bounds.progeny", "progeny_moment_closed", None),
    ("series", "chaos_bounds.progeny", "progeny_moment_series", None),
    ("pmf", "chaos_bounds.progeny", "borel_pmf", None),
    ("pmf", "chaos_bounds.progeny", "consul_pmf", None),
    ("cumulant", "chaos_bounds.deviations", "check_cumulant_condition", _orders),
    ("delta", "chaos_bounds.deviations", "delta_poisson", None),
    ("delta", "chaos_bounds.deviations", "delta_binomial", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "first_chaos_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "shotnoise_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "compound_cluster_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "hawkes_poisson_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "hawkes_binomial_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "cluster_bounds_for_law", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "interference_bounds", None),
    ("bounds", "chaos_bounds.gaussian_bounds", "hertzian_integral", None),
    ("window", "chaos_bounds.simulate", "sample_cluster_window", None),
    ("field", "chaos_bounds.simulate", "sample_interference", None),
    ("cascade", "chaos_bounds.simulate", "sample_progeny", _size),
    ("cascade", "chaos_bounds.simulate", "_sample_progeny_block", _size),
    ("distance", "chaos_bounds.simulate", "empirical_kolmogorov", _sample_count),
    ("distance", "chaos_bounds.simulate", "empirical_wasserstein", _sample_count),
    ("distance", "chaos_bounds.simulate", "empirical_distances", _sample_count),
    ("verify", "chaos_bounds.simulate", "verify_gaussian_bound", _reps_and_workers),
    ("verify", "chaos_bounds.simulate", "verify_bci", _reps_and_workers),
    ("verify", "chaos_bounds.simulate", "verify_moments", _reps_and_workers),
    ("rng", "numpy.random", "default_rng", None),
)
MARK_CLASSES = (
    "ConstantMark",
    "UniformMark",
    "ExponentialMark",
    "CenteredGaussianMark",
    "CustomAbsMoments",
)
SAMPLERS = ("window", "field", "cascade")
# what a verify span spends outside its own driver code
NOT_DRIVER = SAMPLERS + ("mark", "distance", "bounds", "cumulant", "table", "moment", "rng")


class Tracer:
    """Records a Span for every call into a wrapped function while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def install(self) -> None:
        self.absent = []
        for cat, modname, name, value in TARGETS:
            module = importlib.import_module(modname)
            original = getattr(module, name, None)
            if original is None:
                self.absent.append(f"{modname}.{name}")
                continue
            wrapper = self._wrap(original, cat, value)
            homes = [module] + [m for n, m in sys.modules.items() if n.startswith("chaos_bounds")]
            for home in homes:
                for attr, obj in list(vars(home).items()):
                    if obj is original:
                        self._patch(home, attr, original, wrapper)
        marks = importlib.import_module("chaos_bounds.marks")
        for name in MARK_CLASSES:
            cls = getattr(marks, name, None)
            if cls is None or "sample" not in vars(cls):
                self.absent.append(f"chaos_bounds.marks.{name}.sample")
                continue
            original = vars(cls)["sample"]
            self._patch(cls, "sample", original, self._wrap(original, "mark", _size))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, cat, value):
        local = self._local
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = local.__dict__.setdefault("depth", defaultdict(int))
            level = depth[cat]
            in_window = depth["window"] > 0
            depth[cat] = level + 1
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                depth[cat] = level
                recorded = None
                if value is not None and result is not None:
                    try:
                        recorded = value(args, kwargs, result)
                    except (LookupError, AttributeError, TypeError):
                        pass  # the signature or report changed: the count reads 0, the run goes on
                span = Span(cat, name, t0, t1, threading.get_ident(), level == 0, in_window, recorded)
                with self._lock:
                    self.spans.append(span)

        return wrapper


def _covered(spans, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    cuts = sorted((max(s.t0, lo), min(s.t1, hi)) for s in spans if s.t1 > lo and s.t0 < hi)
    total, end = 0.0, lo
    for a, b in cuts:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass.  Counts and busy times use the
    outermost span of each category, so nested calls within one layer count
    once; self times subtract the union of child intervals."""
    outer = defaultdict(list)
    for s in spans:
        if s.outer:
            outer[s.cat].append(s)

    def busy(cat):
        return sum(s.t1 - s.t0 for s in outer[cat])

    def total(cat):
        return sum(s.value or 0 for s in outer[cat])

    cli_children = [s for s in spans if s.cat != "cli"]
    cli_self = sum(s.t1 - s.t0 - _covered(cli_children, s.t0, s.t1) for s in outer["cli"])

    driver_children = [s for s in spans if s.cat in NOT_DRIVER]
    samplers = [s for s in spans if s.cat in SAMPLERS and s.outer]
    driver_self = sampler_busy = capacity = 0.0
    main_windows = windows_in_verify = 0
    for v in outer["verify"]:
        reps, workers = v.value or (0, 1)  # no value when the call raised
        inside = sum(1 for s in outer["window"] if s.t1 > v.t0 and s.t0 < v.t1)
        if inside:
            main_windows += reps
            windows_in_verify += inside
        driver_self += v.t1 - v.t0 - _covered(driver_children, v.t0, v.t1)
        sampler_busy += sum(min(s.t1, v.t1) - max(s.t0, v.t0) for s in samplers if s.t1 > v.t0 and s.t0 < v.t1)
        capacity += (v.t1 - v.t0) * workers

    points = sum(s.value or 0 for s in outer["mark"] if s.in_window)
    return {
        "cli.commands": len(outer["cli"]),
        "cli.parser_s": busy("parser"),
        "cli.self_s": cli_self,
        "progeny.table_calls": len(outer["table"]),
        "progeny.table_s": busy("table"),
        "progeny.table_max_order": max((s.value or 0 for s in outer["table"]), default=0),
        "progeny.moment_s": busy("moment"),
        "progeny.series_s": busy("series"),
        "progeny.pmf_calls": len(outer["pmf"]),
        "progeny.pmf_s": busy("pmf"),
        "deviations.cumulant_calls": len(outer["cumulant"]),
        "deviations.cumulant_orders": total("cumulant"),
        "deviations.cumulant_s": busy("cumulant"),
        "deviations.delta_s": busy("delta"),
        "gaussian_bounds.calls": len(outer["bounds"]),
        "gaussian_bounds.s": busy("bounds"),
        "marks.draws": total("mark"),
        "marks.sample_s": busy("mark"),
        "simulate.windows": len(outer["window"]),
        "simulate.window_s": busy("window"),
        "simulate.points": points,
        "simulate.ns_per_point": busy("window") / points * 1e9 if points else 0.0,
        "simulate.useful_frac": main_windows / windows_in_verify if windows_in_verify else 0.0,
        "simulate.fields": len(outer["field"]),
        "simulate.field_s": busy("field"),
        "simulate.cascades": total("cascade"),
        "simulate.distance_n": total("distance"),
        "simulate.distance_s": busy("distance"),
        "simulate.rng_streams": len(outer["rng"]),
        "simulate.rng_s": busy("rng"),
        "simulate.driver_self_s": driver_self,
        "simulate.busy_frac": sampler_busy / capacity if capacity else 0.0,
    }
