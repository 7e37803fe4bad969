"""Outside-in span tracing of the ltll layers.

The benchmark does not edit the package.  It rebinds module attributes at
the call sites of each layer's entry point, so every call made through one
of those names records a span (name, parent, start, end) and, through an
optional hook, counters taken from the call's arguments and result.  Spans
live in flat in-memory arrays and are written out once, when the run ends.

A span's self time is its duration minus the durations of its children.
The wrappers nest strictly on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _add_loglik_batch(c, args, out):
    lx = args[0]
    c["loglik_batch.elements"] += lx.size
    c["loglik_batch.rows"] += lx.shape[0]


def _add_uniforms(c, args, out):
    c["uniforms.count"] += args[1]


def _add_fit(c, args, fit):
    c["fit.iterations"] += fit.iterations
    if fit.boundary:
        c["fit.boundary"] += 1
        return
    c["fit.nonconverged"] += not fit.converged
    c["fit.info_not_pd"] += not fit.info.is_positive_definite


def _add_mh(c, args, out):
    lx, cfg = args[0], args[3]
    c["mh.bank_iterations"] += cfg.iterations
    c["mh.chain_iterations"] += lx.shape[0] * cfg.iterations
    c["mh.chains"] += lx.shape[0]
    c["mh.acceptance_sum"] += float(np.sum(out[1]))


# (module, attribute, span name, hook).  Each row is one call site: a module
# that imported the entry point by name keeps its own binding, so every such
# module is listed.  Only the MH call site of the batched kernel is traced;
# the scalar log-likelihood the MLE calls is traced as mle.log_likelihood.
CALL_SITES = (
    ("ltll.cli", "load_csv", "datasets.load_csv", None),
    ("ltll.datasets", "load_csv", "datasets.load_csv", None),
    ("ltll.cli", "fit_mle", "mle.fit_mle", _add_fit),
    ("ltll.mcmc", "fit_mle", "mle.fit_mle", _add_fit),
    ("ltll.simulation", "fit_mle", "mle.fit_mle", _add_fit),
    ("ltll.mle", "log_likelihood", "mle.log_likelihood", None),
    ("ltll.mle", "observed_information", "mle.observed_information", None),
    ("ltll.mle", "existence_stats", "distribution.existence_stats", None),
    ("ltll.simulation", "draw_ltll", "distribution.draw_ltll", None),
    ("ltll.mcmc", "_loglik_batch", "distribution.loglik_batch", _add_loglik_batch),
    ("ltll.mcmc", "normal_quantile", "numerics.normal_quantile", None),
    ("ltll.mle", "normal_quantile", "numerics.normal_quantile", None),
    ("ltll.numerics:RngStream", "uniforms", "numerics.uniforms", _add_uniforms),
    ("ltll.cli", "run_chain", "mcmc.run_chain", None),
    ("ltll.mcmc", "_mh_chains", "mcmc.mh", _add_mh),
    ("ltll.simulation", "_mh_chains", "mcmc.mh", _add_mh),
    ("ltll.mcmc", "_ess", "mcmc.ess", None),
    ("ltll.simulation", "_ess", "mcmc.ess", None),
    ("ltll.simulation", "run_scenario", "simulation.run_scenario", None),
    ("ltll.simulation", "_run_chunk", "simulation.chunk", None),
)


def resolve(target: str):
    """'pkg.mod' or 'pkg.mod:Class' -> the module or class object."""
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def rebind(self, owner, attr, make):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")  # index of the root span: spans of one operation share it
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._stack[1] if len(self._stack) > 1 else i)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def wrap(self, fn, span_name: str, hook=None):
        nid = self._name_id(span_name)
        clock = time.perf_counter
        counts, names, parents, ops, starts, ends, stack = (
            self.counts, self.name, self.parent, self.op, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            # _open inlined: this runs once per MH iteration.
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(stack[1] if len(stack) > 1 else i)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(counts, args, out)
            return out

        return traced

    @contextmanager
    def span(self, span_name: str):
        """A root span the benchmark opens around one operation."""
        i = self._open(self._name_id(span_name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def install(self, patches: Patches) -> None:
        for target, attr, span_name, hook in CALL_SITES:
            patches.rebind(resolve(target), attr,
                           lambda fn, s=span_name, h=hook: self.wrap(fn, s, h))

    def arrays(self):
        """(name ids, parent index, duration, self time) as numpy arrays."""
        name = np.asarray(self.name, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return name, parent, dur, dur - covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds."""
        name, _, dur, self_t = self.arrays()
        out = {}
        for nid, label in enumerate(self.names):
            sel = name == nid
            out[label] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                          "self_s": float(self_t[sel].sum())}
        return out

    def save(self, path) -> None:
        name, parent, dur, self_t = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            op=np.asarray(self.op, dtype=np.int32),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            self_s=self_t)
