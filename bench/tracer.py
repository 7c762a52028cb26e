"""Span tracer that measures marketgen's layers from outside the package.

A ``Tracer`` replaces each target function at every name a marketgen module
binds it under, records one span per call (id, parent id, name, start, end)
and restores the originals on ``uninstall``.  Rebinding every name matters:
``cli`` imports ``read_csv`` and ``sample_copula`` by name and ``rbm``
imports ``binarize16``, so patching only the defining module would miss
those calls.  Methods such as ``Dense.lin`` are patched on their class.

Spans stay in memory as flat arrays until the run ends.  ``self_times``
turns them into self time: a span's duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import itertools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "marketgen"
ROOT = -1  # parent id of a span opened outside every other span


def _rows(x) -> int:
    """Leading length of an array-like or frame (1 for a single vector)."""
    if hasattr(x, "n_rows"):
        return x.n_rows
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) < 2 else shape[0]


# A counter receives (args, kwargs, result) of a finished call.
def _first_arg_rows(args, kwargs, result):
    return _rows(args[0])


def _second_arg_rows(args, kwargs, result):
    return _rows(args[1])


def _result_rows(args, kwargs, result):
    return _rows(result)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


@dataclass(frozen=True)
class Target:
    """One traced function: ``module.qualname`` (``qualname`` may be
    ``Class.method``) plus optional extra counters beyond calls and time."""

    module: str
    qualname: str
    counters: tuple = ()  # (counter name, Callable[[args, kwargs, result], int])

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("datagen", "sample_copula", (("rows", _result_rows),)),
    Target("datagen", "ar1_ewma_process"),
    Target("preprocess", "transform"),
    Target("preprocess", "inverse_transform"),
    Target("preprocess", "normal_score_from_reference"),
    Target("preprocess", "binarize16"),
    Target("preprocess", "debinarize16"),
    Target("rbm", "train"),
    Target("rbm", "cd_k_gradient", (("rows", _second_arg_rows),)),
    Target("rbm", "gibbs_chain", (("rows", _second_arg_rows),)),
    Target("rbm", "sample"),
    Target("rbm", "generate_series"),
    Target("neuralnet", "forward", (("rows", _second_arg_rows),)),
    Target("neuralnet", "backward"),
    Target("neuralnet", "grad_norm_penalty"),
    Target("neuralnet", "rmsprop_step"),
    Target("neuralnet", "clip_params"),
    Target("neuralnet", "Dense.lin"),
    Target("neuralnet", "Conv1d.lin"),
    Target("neuralnet", "Conv1d.weight_grads"),
    Target("neuralnet", "Conv1d.input_grad"),
    Target("gan", "train_gan"),
    Target("gan", "generate"),
    Target("gan", "generate_series_gan"),
    Target("evaluate", "comparison_rows"),
    Target("evaluate", "comparison_markdown"),
    Target("evaluate", "acf"),
    Target("evaluate", "qq_points"),
    Target("evaluate", "wasserstein1_1d"),
    Target("backtest", "run_backtest"),
    Target("backtest", "risk_parity_weights"),
    Target("backtest", "bootstrap_resample"),
    Target("backtest", "stats_from_returns"),
    Target("persist", "save_model", (("bytes", _file_bytes),)),
    Target("persist", "load_model"),
    Target("frames", "read_csv", (("rows", _result_rows),)),
    Target("frames", "write_csv", (("rows", _first_arg_rows),)),
    Target("cli", "cmd_simulate_data"),
    Target("cli", "cmd_train"),
    Target("cli", "cmd_generate"),
    Target("cli", "cmd_mc_backtest"),
    Target("cli", "cmd_evaluate"),
)

MODULES = tuple(dict.fromkeys(t.module for t in TARGETS))


class Tracer:
    """Records spans around calls into marketgen while installed.

    One tracer serves one single-threaded traced pass: spans nest through a
    plain stack, so calls from other threads would be attributed wrongly.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.name_of = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = {module: 0 for module in MODULES}
        self._stack = [ROOT]
        self._next_id = itertools.count().__next__
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, sid, parent, nid, t0, t1) -> None:
        self.ids.append(sid)
        self.parents.append(parent)
        self.name_of.append(nid)
        self.starts.append(t0)
        self.ends.append(t1)

    @contextmanager
    def span(self, name: str):
        """An explicit span, e.g. a benchmark stage around ``cli.main``."""
        nid = self.name_id(name)
        sid = self._next_id()
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, parent, nid, t0, t1)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """A wrapper that returns exactly what ``fn`` returns and records a
        span, the target's counters and (for a raised exception) an error."""
        nid = self.name_id(target.name)
        counters = [(f"{target.name}.{c}", f) for c, f in target.counters]
        stack, next_id, clock, record = self._stack, self._next_id, time.perf_counter, self._record
        errors, counts, module = self.errors, self.counts, target.module

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[module] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                record(sid, parent, nid, t0, t1)
            for key, count in counters:
                counts[key] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        owners = {}
        for target in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            owners[target] = owner, attr, bool(path)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for target, (owner, attr, is_method) in owners.items():
            original = getattr(owner, attr)
            wrapper = self.wrap(original, target)
            if is_method:  # callers look it up on the class
                sites = [(owner, attr)]
            else:  # rebind every module-level name bound to the function
                sites = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(ids, parents, starts, ends) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval.

    Spans are given as parallel sequences; a parent id that names no span
    (such as ``ROOT``) marks a root.
    """
    index = {sid: i for i, sid in enumerate(ids)}
    children = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent in index:
            children[index[parent]].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        reach, covered = lo, 0.0
        for c in sorted(kids, key=lambda k: starts[k]):
            a, b = max(starts[c], reach), min(ends[c], hi)
            if b > a:
                covered += b - a
                reach = b
        out[p] -= covered
    return out


def root_indices(ids, parents) -> list[int]:
    """Index of each span's root span (its outermost ancestor)."""
    index = {sid: i for i, sid in enumerate(ids)}
    roots = [0] * len(ids)
    # a parent closes after its children, so in reverse close order every
    # parent is resolved before any of its children
    for i in reversed(range(len(ids))):
        p = index.get(parents[i])
        roots[i] = i if p is None else roots[p]
    return roots


@dataclass
class TraceSummary:
    """Per-name totals of one traced pass plus per-root (stage) checks."""

    self_s: dict      # span name -> summed self time
    calls: dict       # span name -> number of spans
    counts: dict      # "<name>.<counter>" -> summed counter
    errors: dict      # module -> exceptions raised out of its wrappers
    roots: list       # (root name, duration, own self time, summed tree self time)


def summarize(tracer: Tracer) -> TraceSummary:
    ids, parents = tracer.ids, tracer.parents
    starts, ends = tracer.starts, tracer.ends
    selfs = self_times(ids, parents, starts, ends)
    roots = root_indices(ids, parents)
    self_s, calls = defaultdict(float), defaultdict(int)
    tree_self = defaultdict(float)
    for i, nid in enumerate(tracer.name_of):
        name = tracer.names[nid]
        self_s[name] += selfs[i]
        calls[name] += 1
        tree_self[roots[i]] += selfs[i]
    root_rows = [(tracer.names[tracer.name_of[r]], ends[r] - starts[r], selfs[r], tree_self[r])
                 for r in sorted(set(roots), key=lambda r: starts[r])]
    return TraceSummary(dict(self_s), dict(calls), dict(tracer.counts),
                        dict(tracer.errors), root_rows)


def write_spans(tracers, path) -> None:
    """Write the spans of several traced passes as one gzipped CSV (pass, id,
    parent, name, start, end), with times relative to each pass's first span."""
    tmp = f"{path}.tmp"
    with gzip.open(tmp, "wt", compresslevel=1) as fh:
        fh.write("pass,id,parent,name,start_s,end_s\n")
        for k, tr in enumerate(tracers):
            t_base = min(tr.starts, default=0.0)
            for sid, parent, nid, t0, t1 in zip(tr.ids, tr.parents, tr.name_of,
                                                tr.starts, tr.ends):
                fh.write(f"{k},{sid},{parent},{tr.names[nid]},"
                         f"{t0 - t_base:.9f},{t1 - t_base:.9f}\n")
    os.replace(tmp, path)
