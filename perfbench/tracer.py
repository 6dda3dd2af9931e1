"""Span tracer that wraps semistab's public functions from outside the package.

``Tracer.install()`` replaces every public function of the layer modules
(``measures``, ``operators``, ``semigroup``, ``experiments``, ``cli``) and
the methods in ``METHODS`` with a wrapper that records a span: name,
start, end and parent span.  Because modules import each other's
functions by name (``from .operators import discretize``), the wrapper is
rebound at every ``semistab.*`` module attribute that holds the original.
Spans stay in memory; ``summary()`` derives per-function call counts, self
times (span duration minus the time covered by direct children) and error
counts from them.  The tracer assumes one thread, which holds for
``--jobs 1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("measures", "operators", "semigroup", "experiments", "cli")

# Methods wrapped on their class, as (module, "Class.method").
METHODS = (
    ("measures", "AtomicMeasure.log_laplace_moment"),
    ("measures", "DensityMeasure.log_laplace"),
)

# Functions whose per-layer metrics the benchmark reports, with the extra
# stats recorded for them beyond calls, self_s and errors.
REPORTED = {
    "measures.AtomicMeasure.log_laplace_moment": ("t_points",),
    "measures.DensityMeasure.log_laplace": ("t_points",),
    "measures.scaling_exponents": (),
    "semigroup.range_bound_check": (),
    "semigroup.shifted_range_bound_check": (),
    "semigroup.evolve_norms": (),
    "semigroup.decay_exponents": (),
    "operators.discretize": (),
    "operators.resolvent_apply": (),
    "operators.metric_d": (),
    "operators.spectrum_to_csv": (),
    "experiments.load_study_config": (),
    "experiments.run_study": (),
    "experiments.write_report": ("bytes",),
    "cli.main": (),
}


def _t_points(args, kwargs, result):
    t = kwargs["t"] if "t" in kwargs else args[1]
    return int(np.size(t))


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result.values())


_EXTRA = {"t_points": _t_points, "bytes": _bytes_written}


def public_functions(module) -> list:
    """Names in ``module.__all__`` that are plain functions defined there."""
    return [name for name in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, name))
            and getattr(module, name).__module__ == module.__name__]


def traced_names() -> list:
    """Every span name the tracer installs, as ``<module>.<qualname>``."""
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"semistab.{layer}")
        names += [f"{layer}.{name}" for name in public_functions(module)]
    names += [f"{layer}.{qualname}" for layer, qualname in METHODS]
    return names


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, error flag, extras]
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extras = [(stat, _EXTRA[stat]) for stat in REPORTED.get(name, ())]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if extras:
                span[5] = {stat: get(args, kwargs, result) for stat, get in extras}
            return result

        return wrapper

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"semistab.{layer}")
            for name in public_functions(module):
                original = getattr(module, name)
                self._rebind(original, self._wrap(f"{layer}.{name}", original))
        for layer, qualname in METHODS:
            module = importlib.import_module(f"semistab.{layer}")
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{qualname}", cls.__dict__[meth]))

    @staticmethod
    def _rebind(original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "semistab" and not mod_name.startswith("semistab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, self_s, errors, plus any extra stats."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {}
        for span, covered in zip(self.spans, child_time):
            agg = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "errors": 0})
            agg["calls"] += 1
            agg["self_s"] += (span[2] - span[1]) - covered
            agg["errors"] += span[4]
            for stat, value in (span[5] or {}).items():
                agg[stat] = agg.get(stat, 0) + value
        return out
