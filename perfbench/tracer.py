"""Spans around the calls between paircorr modules, installed from outside.

The tracer replaces functions in the namespaces where their callers look
them up (``measure._short_components`` is the name ``measure`` resolves at
call time) with wrappers that record a span: name, layer, start, end,
parent span and thread.  Nothing inside ``src/`` changes; uninstalling puts
every original object back.

Spans opened by a thread that has no open span of its own (the worker
threads of ``measure``'s pool) take as parent the innermost open span of the
thread that installed the tracer, which is the ``measure`` call that
started them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread",
                 "counts", "error")

    def __init__(self, name, layer, start, end=None, parent=None, thread=0,
                 counts=None, error=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.counts = counts or {}
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counters: they read argument and return sizes only -------------------

def _elems(args, kwargs, out):
    return {"elems": int(np.size(args[0]))}


def _fourier_init(args, kwargs, out):
    return {"tables": 1}


def _fourier_values(args, kwargs, out):
    table, xs = args[0], args[1]
    freqs = int(np.size(xs))
    nodes = getattr(table, "_nodes", None)
    return {"freqs": freqs,
            "exps": None if nodes is None else freqs * int(np.size(nodes))}


def _fourier_fn(args, kwargs, out):
    return {"freqs": int(np.size(out))}


def _profile(args, kwargs, out):
    return {"evals": int(np.size(args[1]))}


def _short(args, kwargs, out):
    lens = out[2][2]
    return {"calls": 1, "terms": int(np.sum(lens))}


def _direct(args, kwargs, out):
    spec, h, js = args[0], args[1], args[2]
    ys = importlib.import_module("paircorr.expsums")._index_range(spec, h)
    return {"phases": int(np.size(js)) * int(ys.size)}


def _moments(args, kwargs, out):
    est = out[0] if isinstance(out, tuple) else out
    return {"samples": int(est.samples)}


def _points(args, kwargs, out):
    return {"points": int(out.size)}


def _pairs(args, kwargs, out):
    return {"pairs": int(out.count)}


def _zset(args, kwargs, out):
    return {"zset_size": int(out.size)}


def _products(args, kwargs, out):
    return {"products": int(np.size(out))}


def _rows(args, kwargs, out):
    return {"rows": len(out["rows"])}


# (namespace, attribute, layer, counter, count keys).  The namespace is the
# caller's: "cli" wraps the name as cli binds it, "stats" wraps the name the
# stats module (and the benchmark, which calls through it) resolves.
BOUNDARIES = [
    ("expsums", "frac", "precision.frac", _elems, ("elems",)),
    ("stats", "frac", "precision.frac", _elems, ("elems",)),
    ("diophantine", "frac", "precision.frac", _elems, ("elems",)),
    ("expsums", "e_frac", "precision.e_frac", _elems, ("elems",)),
    ("diophantine", "e_frac", "precision.e_frac", _elems, ("elems",)),
    ("expsums", "_pow_ld", "expsums.pow_ld", _elems, ("elems",)),
    ("stats", "_pow_ld", "expsums.pow_ld", _elems, ("elems",)),
    ("measure", "_pow_ld", "expsums.pow_ld", _elems, ("elems",)),
    ("diophantine", "_pow_ld", "expsums.pow_ld", _elems, ("elems",)),
    ("kernels", "FourierTable.__init__", "kernels.fourier", _fourier_init,
     ("tables",)),
    ("kernels", "FourierTable.values", "kernels.fourier", _fourier_values,
     ("freqs", "exps")),
    ("kernels", "fourier", "kernels.fourier", _fourier_fn, ("freqs",)),
    ("kernels", "TestKernel.__call__", "kernels.profile", _profile,
     ("evals",)),
    ("expsums", "_short_components", "expsums.short", _short,
     ("calls", "terms")),
    ("measure", "_short_components", "expsums.short", _short,
     ("calls", "terms")),
    ("expsums", "_tilde_from_values", "expsums.short", None, ()),
    ("measure", "_tilde_from_values", "expsums.short", None, ()),
    ("expsums", "_direct_abs2", "expsums.direct", _direct, ("phases",)),
    ("expsums", "pair_corr_smooth", "expsums.smooth", None, ()),
    ("cli", "second_moment_roff", "measure", _moments, ("samples",)),
    ("cli", "second_moment_tilde_e", "measure", _moments, ("samples",)),
    ("stats", "fractional_parts", "stats.fractional_parts", _points,
     ("points",)),
    ("cli", "fractional_parts", "stats.fractional_parts", _points,
     ("points",)),
    ("stats", "pair_corr_count", "stats.pair_corr_count", _pairs,
     ("pairs",)),
    ("cli", "pair_corr_count", "stats.pair_corr_count", _pairs, ("pairs",)),
    ("stats", "gap_distribution", "stats.gap_distribution", None, ()),
    ("cli", "gap_distribution", "stats.gap_distribution", None, ()),
    ("beurling", "build_beurling_selberg", "beurling.build", None, ()),
    ("cli", "build_beurling_selberg", "beurling.build", None, ()),
    ("diophantine", "build_zset", "diophantine.enum", _zset,
     ("zset_size",)),
    ("diophantine", "_products", "diophantine.enum", _products,
     ("products",)),
    ("diophantine", "count_duq", "diophantine.count", None, ()),
    ("diophantine", "count_zdiag", "diophantine.count", None, ()),
    ("diophantine", "duq_bound_check", "diophantine.grid", None, ()),
    ("cli", "duq_bound_check", "diophantine.grid", None, ()),
    ("cli", "run", "cli.run", _rows, ("rows",)),
    # called by the benchmark or by pool workers; spans for the arithmetic
    ("expsums", "s_sum", "other", None, ()),
    ("expsums", "s_tilde_parts", "other", None, ()),
    ("measure", "MuMeasure.sample_alphas", "other", None, ()),
]


def _resolve(namespace: str, attr: str):
    """(owner, name, function) for attr, e.g. (FourierTable, "values", fn);
    None if the boundary no longer exists."""
    try:
        owner = importlib.import_module(f"paircorr.{namespace}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a class's own dict, so that an inherited method is not taken for it
    held = vars(owner).get(name) if inspect.isclass(owner) else \
        getattr(owner, name, None)
    return (owner, name, held) if callable(held) else None


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, counter=None, keys=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            root = self._root_stack
            if stack:
                parent = stack[-1]
            else:
                parent = root[-1] if root and stack is not root else None
            span = Span(name, layer, 0.0, parent=parent,
                        thread=threading.get_ident())
            self.spans.append(span)
            stack.append(span)
            span.start = self.clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = self.clock()
                stack.pop()
            if counter is not None:
                try:
                    span.counts = counter(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, KeyError,
                        ImportError):
                    # the return or argument shape changed: the count is
                    # missing, not zero
                    span.counts = dict.fromkeys(keys)
            return out

        return traced

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every listed boundary, then every other function one paircorr
        module binds from another (layer "other", for the self-time
        arithmetic only).  Boundaries that no longer exist are listed in
        ``missing``."""
        self._local.stack = self._root_stack
        done = set()
        for namespace, attr, layer, counter, keys in boundaries:
            where = _resolve(namespace, attr)
            if where is None:
                self.missing.append(f"{namespace}.{attr}")
                continue
            self._patch(*where, f"{namespace}.{attr}", layer, counter, keys)
            done.add((id(where[0]), where[1]))
        for module in _paircorr_modules():
            short = module.__name__.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if (not inspect.isfunction(obj) or (id(module), attr) in done
                        or not obj.__module__.startswith("paircorr")
                        or obj.__module__ == module.__name__):
                    continue
                self._patch(module, attr, obj, f"{short}.{attr}", "other",
                            None, ())

    def _patch(self, owner, attr, original, name, layer, counter, keys):
        setattr(owner, attr, self.wrap(name, layer, original, counter, keys))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._local.stack = None


def _paircorr_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "paircorr" or n.startswith("paircorr."))]


# --- arithmetic over finished spans ----------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans) -> dict:
    kids: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(id(s.parent), []).append(s)
    return kids


def self_time(span: Span, kids: dict) -> float:
    """Span time minus the union of its child spans, clipped to the span.

    Children on other threads may overlap each other; the union counts
    each instant once."""
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in kids.get(id(span), ())]
    covered = union_length([iv for iv in clipped if iv[1] > iv[0]])
    return span.duration - covered


def descendants(span: Span, kids: dict) -> list:
    out, todo = [], list(kids.get(id(span), ()))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids.get(id(s), ()))
    return out


# --- per-layer metrics -----------------------------------------------------

# (metric, unit, layer, statistic).  A statistic is "self_s", a count key
# summed over the layer's spans, or one of the derived values below.
LAYER_METRICS = [
    ("precision.frac.elems", "count", "precision.frac", "elems"),
    ("precision.frac.self_s", "s", "precision.frac", "self_s"),
    ("precision.e_frac.elems", "count", "precision.e_frac", "elems"),
    ("precision.e_frac.self_s", "s", "precision.e_frac", "self_s"),
    ("kernels.fourier.tables", "count", "kernels.fourier", "tables"),
    ("kernels.fourier.freqs", "count", "kernels.fourier", "freqs"),
    ("kernels.fourier.exps", "count", "kernels.fourier", "exps"),
    ("kernels.fourier.self_s", "s", "kernels.fourier", "self_s"),
    ("kernels.profile.evals", "count", "kernels.profile", "evals"),
    ("kernels.profile.self_s", "s", "kernels.profile", "self_s"),
    ("expsums.pow_ld.elems", "count", "expsums.pow_ld", "elems"),
    ("expsums.pow_ld.self_s", "s", "expsums.pow_ld", "self_s"),
    ("expsums.short.calls", "count", "expsums.short", "calls"),
    ("expsums.short.terms", "count", "expsums.short", "terms"),
    ("expsums.short.self_s", "s", "expsums.short", "self_s"),
    ("expsums.direct.phases", "count", "expsums.direct", "phases"),
    ("expsums.direct.self_s", "s", "expsums.direct", "self_s"),
    ("expsums.smooth.self_s", "s", "expsums.smooth", "self_s"),
    ("measure.samples", "count", "measure", "samples"),
    ("measure.workers", "count", "measure", "workers"),
    ("measure.self_s", "s", "measure", "self_s"),
    ("measure.samples_per_s", "1/s", "measure", "samples_per_s"),
    ("measure.below_cover", "1", "measure", "below_cover"),
    ("stats.points", "count", "stats.fractional_parts", "points"),
    ("stats.pairs", "count", "stats.pair_corr_count", "pairs"),
    ("stats.fractional_parts.self_s", "s", "stats.fractional_parts",
     "self_s"),
    ("stats.pair_corr_count.self_s", "s", "stats.pair_corr_count", "self_s"),
    ("stats.gap_distribution.self_s", "s", "stats.gap_distribution",
     "self_s"),
    ("beurling.build.self_s", "s", "beurling.build", "self_s"),
    ("diophantine.zset_size", "count", "diophantine.enum", "zset_size"),
    ("diophantine.products", "count", "diophantine.enum", "products"),
    ("diophantine.enum.self_s", "s", "diophantine.enum", "self_s"),
    ("diophantine.count.self_s", "s", "diophantine.count", "self_s"),
    ("diophantine.guard_trips", "count", "diophantine", "guard_trips"),
    ("cli.rows", "count", "cli.run", "rows"),
    ("cli.run.self_s", "s", "cli.run", "self_s"),
    ("trace.overhead", "1", None, "overhead"),
]


def _in_layer(span_layer: str, layer: str) -> bool:
    return span_layer == layer or span_layer.startswith(layer + ".")


def layer_metrics(spans, missing, traced_wall: float,
                  untraced_wall: float) -> tuple[dict, list]:
    """(metric -> value, names of metrics that are missing).

    A metric is missing when a boundary of its layer no longer exists or a
    count could not be read from a call's arguments or return; it is then
    left out, never reported as zero.  ``below_cover`` is the share of the
    traced wall time covered by spans below a ``measure`` call.
    """
    kids = children_of(spans)
    gone = {layer for ns, attr, layer, _, _ in BOUNDARIES
            if f"{ns}.{attr}" in missing}
    values, absent = {}, []
    for name, _unit, layer, stat in LAYER_METRICS:
        if layer is not None and any(_in_layer(g, layer) for g in gone):
            absent.append(name)
            continue
        mine = [s for s in spans if layer is not None
                and _in_layer(s.layer, layer)]
        if stat == "overhead":
            values[name] = traced_wall / untraced_wall - 1.0
        elif stat == "self_s":
            values[name] = sum(self_time(s, kids) for s in mine)
        elif stat == "samples_per_s":
            busy = sum(s.duration for s in mine)
            got = sum(s.counts.get("samples") or 0 for s in mine)
            values[name] = got / busy if busy > 0 else 0.0
        elif stat == "workers":
            values[name] = max((_workers(s, kids) for s in mine), default=0)
        elif stat == "below_cover":
            below = [(d.start, d.end) for s in mine
                     for d in descendants(s, kids)]
            values[name] = union_length(below) / traced_wall
        elif stat == "guard_trips":
            values[name] = sum(
                1 for s in mine if s.error == "ResourceGuardError"
                and not any(c.error == s.error for c in kids.get(id(s), ())))
        else:
            counts = [s.counts.get(stat, 0) for s in mine]
            if any(c is None for c in counts):
                absent.append(name)
                continue
            values[name] = sum(counts)
    return values, absent


def _workers(span: Span, kids: dict) -> int:
    """Threads other than the caller's that ran work below span; 1 if none."""
    others = {d.thread for d in descendants(span, kids)} - {span.thread}
    return len(others) or 1
