"""
Tracing from outside the program: wrap public cbflab functions in place.

Nothing in ``src/`` knows about this module.  :func:`install` replaces each
listed function with a timing wrapper in every ``cbflab.*`` module that bound
it (``from .domain import transform_inverse`` binds the name in several
modules), wraps the listed methods on their classes, and wraps the
``numpy.fft`` (and, when imported, ``scipy.fft``) entry points.

Every wrapped call is counted and timed per thread.  Self time is the call's
duration minus the time of wrapped calls made directly under it on the same
thread.  Calls to the coarse functions are also kept as spans (id, parent,
name, start, end, thread); hot functions (called up to ~10^6 times per run)
are only aggregated.  Work submitted to a ``ThreadPoolExecutor`` inherits the
submitting span as parent, so a span's children may run on other threads.
Everything stays in memory until :meth:`Tracer.summary` is called at exit.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time

import numpy as np

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft",
             "rfftn", "irfftn", "rfft2", "irfft2", "hfft", "ihfft")

# (module, qualified name, metric name, keep spans)
TARGETS = (
    ("cbflab.domain", "transform_inverse", "domain.transform_inverse", False),
    ("cbflab.domain", "project_coeffs", "domain.project_coeffs", False),
    ("cbflab.domain", "save_snapshot", "domain.save_snapshot", True),
    ("cbflab.operators", "advection_raw", "operators.advection_raw", False),
    ("cbflab.operators", "damping_raw", "operators.damping_raw", False),
    ("cbflab.integrators", "solve", "integrators.solve", True),
    ("cbflab.stochastic", "weighted_forcing_integral", "stochastic.weighted_forcing_integral", True),
    ("cbflab.stochastic", "WienerPath.value", "stochastic.path_value", False),
    ("cbflab.pullback", "cocycle_eval", "pullback.cocycle_eval", True),
    ("cbflab.pullback", "sample_attractor", "pullback.sample_attractor", True),
    ("cbflab.pullback", "absorbing_radius_stoch", "pullback.absorbing_radius_stoch", True),
    ("cbflab.pullback", "hausdorff_semidistance", "pullback.hausdorff_semidistance", True),
    ("cbflab.pullback", "TemperedFamily.samples", "pullback.family_samples", True),
    ("cbflab.cli", "run", "cli.run", True),
)
FFT_METRIC = "domain.fft"
INTEGRAL = "stochastic.weighted_forcing_integral"
PATH_VALUE = "stochastic.path_value"


def _bound(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _solve_steps(fn, args, kwargs, result):
    config = _bound(fn, args, kwargs, "config")
    if config is None:
        return 0
    return int(round((config.t_end - config.t_start) / config.dt))


def _snapshot_bytes(fn, args, kwargs, result):
    path = _bound(fn, args, kwargs, "path")
    return os.path.getsize(path) if path is not None else 0


def _integral_nodes(fn, args, kwargs, result):
    """Path nodes inside the integration window ``[t_cut, tau]``."""
    path = _bound(fn, args, kwargs, "path")
    tau = _bound(fn, args, kwargs, "tau")
    if path is None or tau is None or not hasattr(result, "t_cut"):
        return 0
    return int(math.floor((tau - result.t_cut) / path.dt_grid + 1e-9)) + 1


def _fft_points(fn, args, kwargs, result):
    return max(np.size(args[0]) if args else 0, np.size(result))


AMOUNTS = {
    "integrators.solve": _solve_steps,
    "domain.save_snapshot": _snapshot_bytes,
    INTEGRAL: _integral_nodes,
    FFT_METRIC: _fft_points,
}


class _ThreadState:
    def __init__(self, tracer):
        self.stack = []         # frames: [child seconds, span id of nearest kept ancestor]
        self.adopted = None     # parent span id inherited from a submitting thread
        self.stats = {}         # name -> [calls, seconds, self seconds, errors, amount]
        self.spans = []
        self.in_integral = 0
        self.path_evals_in_integral = 0
        self.in_fft = False
        self.thread = threading.get_ident()
        with tracer._lock:
            tracer._states.append(self)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._states = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo = []

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState(self)
        return st

    def current_span(self):
        st = self._state()
        return st.stack[-1][1] if st.stack else st.adopted

    def wrap(self, fn, name, keep_span):
        tracer = self
        amount = AMOUNTS.get(name)
        is_fft = name == FFT_METRIC
        is_integral = name == INTEGRAL
        is_path_value = name == PATH_VALUE
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if is_fft:
                if st.in_fft:  # count only the outermost transform
                    return fn(*args, **kwargs)
                st.in_fft = True
            elif is_path_value and st.in_integral:
                st.path_evals_in_integral += 1
            elif is_integral:
                st.in_integral += 1
            parent = st.stack[-1][1] if st.stack else st.adopted
            sid = next(tracer._ids) if keep_span else parent
            frame = [0.0, sid]
            st.stack.append(frame)
            failed = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                t1 = clock()
                st.stack.pop()
                if is_fft:
                    st.in_fft = False
                elif is_integral:
                    st.in_integral -= 1
                dur = t1 - t0
                if st.stack:
                    st.stack[-1][0] += dur
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                rec[3] += failed
                if amount is not None and not failed:
                    rec[4] += amount(fn, args, kwargs, result)
                if keep_span:
                    st.spans.append((sid, parent, name, t0, t1, st.thread, frame[0]))

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target that exists; missing names are skipped."""
        cb_modules = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "cbflab" or n.startswith("cbflab."))]
        for mod_name, qual, name, keep in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self.wrap(vars(cls)[meth], name, keep))
                continue
            orig = getattr(mod, qual, None)
            if orig is None:
                continue
            self._rebind(cb_modules, {id(orig): self.wrap(orig, name, keep)})
        fft_modules = [sys.modules[n] for n in ("numpy.fft", "scipy.fft") if n in sys.modules]
        wrappers = {}
        for mod in fft_modules:
            for fname in FFT_NAMES:
                orig = getattr(mod, fname, None)
                if callable(orig):
                    wrappers[id(orig)] = self.wrap(orig, FFT_METRIC, False)
        self._rebind(cb_modules + fft_modules, wrappers)
        self._patch_pool()

    def _rebind(self, modules, wrappers):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                new = wrappers.get(id(value))
                if new is not None:
                    self._patch(mod, attr, new)

    def _patch_pool(self):
        tracer = self
        orig_submit = concurrent.futures.ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current_span()

            def adopted(*a, **k):
                st = tracer._state()
                saved, st.adopted = st.adopted, parent
                try:
                    return fn(*a, **k)
                finally:
                    st.adopted = saved

            return orig_submit(pool, adopted, *args, **kwargs)

        self._patch(concurrent.futures.ThreadPoolExecutor, "submit", submit)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def summary(self):
        """Merged per-name statistics plus every kept span, as plain data."""
        stats = {}
        evals = 0
        spans = []
        for st in self._states:
            evals += st.path_evals_in_integral
            spans += st.spans
            for name, rec in st.stats.items():
                acc = stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
        keys = ("calls", "s", "self_s", "errors", "amount")
        by_id = {s[0]: s for s in spans}
        cross = {}  # span id -> intervals of its children on other threads
        for sid, parent, name, t0, t1, thread, _ in spans:
            p = by_id.get(parent)
            if p is not None and p[5] != thread:
                cross.setdefault(parent, []).append((t0, t1))
        for sid, _, name, *_ in spans:
            if sid in cross:
                # the parent's thread was waiting while these ran elsewhere
                stats[name][2] -= _union_length(cross[sid])
        return {
            "stats": {n: dict(zip(keys, rec)) for n, rec in stats.items()},
            "path_evals_in_integral": evals,
            "spans": [dict(zip(("id", "parent", "name", "t0", "t1", "thread", "child_s"), s))
                      for s in spans],
        }


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
