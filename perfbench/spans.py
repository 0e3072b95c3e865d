"""Span tracing of the package's layers, installed from outside the package.

:class:`Tracer` replaces each public function of the layer modules with a
wrapper, at every module attribute that names it (``stealthgrid.bounds.
solve_bound_program``, ``stealthgrid.experiment.estimate_ergodic_cost``,
``stealthgrid.ergodic_upper_bound`` ...), so calls between modules are
seen under the name the caller imported.  Each call appends a span
``[name, start, end, parent, info]`` to an in-memory list; ``info`` holds
counts read at the boundary by a probe.  Nothing is written until the
caller asks, after the timed work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time

PACKAGE = "stealthgrid"

#: Layer modules, in dependency order; ``cli`` is the entry point.
LAYERS = ("grid", "gaussian", "learning", "bounds", "detection", "experiment", "cli")

#: Leaf helpers called dozens of times per bound or once per Monte Carlo
#: trial; wrapping them would make the tracer a large part of the cost.
UNTRACED = {"bounds.digamma", "learning.trial_seed_sequence"}

NAME, START, END, PARENT, INFO = range(5)


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _probe_mc(fn, args, kwargs, result) -> dict:
    cfg = _bound_args(fn, args, kwargs)["cfg"]
    rel = result.stderr / abs(result.mean) if result.mean else math.inf
    return {"trials": cfg.trials, "sampler": cfg.sampler, "rel_stderr": rel}


def _probe_solve(fn, args, kwargs, result) -> dict:
    x = result.x_star
    clipped = int(((x <= result.box_lo) | (x >= result.box_hi)).sum())
    return {"residual": abs(float(x.sum()) - result.p), "clipped": clipped, "p": result.p}


def _detection_probe(blocks):
    """Observations drawn by a detection call: ``blocks(arguments)`` vectors of m."""

    def probe(fn, args, kwargs, result) -> dict:
        arguments = _bound_args(fn, args, kwargs)
        return {"observations": blocks(arguments), "m": arguments["derived"].m}

    return probe


PROBES = {
    "learning.estimate_ergodic_cost": _probe_mc,
    "bounds.solve_bound_program": _probe_solve,
    # calibrate_threshold draws one clean sample of `trials` blocks of n
    # vectors; run_detection_experiment calls it, then draws two more.
    "detection.calibrate_threshold": _detection_probe(lambda a: a["trials"] * a["n"]),
    "detection.run_detection_experiment": _detection_probe(
        lambda a: 2 * a["trials"] * a["n"]
    ),
    "detection.error_exponent_estimate": _detection_probe(
        lambda a: 2 * a["trials"] * sum(int(n) for n in a["n_grid"])
    ),
}


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _public_functions(self):
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in getattr(module, "__all__", ("main",)):
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and name not in UNTRACED:
                    yield name, fn

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._public_functions()}
        modules = [sys.modules[PACKAGE]]
        modules += [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(fn, args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are synchronous, so children of one span never overlap and their
    durations add up.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
