"""In-memory span tracing of sourcefft's public functions, from outside the package.

Each traced layer is wrapped at every module attribute that refers to it,
because `experiments`, `inversion` and `cli` import by name: patching only
the defining module would miss their calls.  The two value classes,
`RealSignal` and `Spectrum`, are traced through their `__init__` so that
`isinstance` checks keep working.

A span is (id, name, parent id, thread, start, end).  Spans opened on a
worker thread whose own stack is empty take the main thread's open span as
parent, so the thread-pool cells of a sweep nest under the driver that
started them.  Self time is a span's duration minus the union of its
children's intervals (children on two threads can overlap).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (defining module, attribute, span name, counter kind)
LAYERS = (
    ("spectral_core", "to_spectrum", "spectral_core.to_spectrum", "bytes_computed"),
    ("spectral_core", "regularized_multiplier",
     "spectral_core.regularized_multiplier", "distinct"),
    ("spectral_core", "apply_multiplier", "spectral_core.apply_multiplier", None),
    ("spectral_core", "RealSignal.__init__", "spectral_core.RealSignal", "bytes_copied"),
    ("spectral_core", "Spectrum.__init__", "spectral_core.Spectrum", "bytes_copied"),
    ("inversion", "estimate_source_regularized",
     "inversion.estimate_source_regularized", None),
    ("inversion", "sobolev_norm", "inversion.sobolev_norm", "distinct"),
    ("inversion", "select_mu", "inversion.select_mu", None),
    ("inversion", "error_bound", "inversion.error_bound", None),
    ("noise_lab", "add_noise", "noise_lab.add_noise", None),
    ("noise_lab", "discrete_l2", "noise_lab.discrete_l2", None),
    ("noise_lab", "relative_l2_error", "noise_lab.relative_l2_error", None),
    ("experiments", "cell_seed", "experiments.cell_seed", None),
    ("experiments", "run_mu_sweep", "experiments.driver", None),
    ("experiments", "run_rule_comparison", "experiments.driver", None),
    ("experiments", "run_bound_check", "experiments.driver", None),
    ("experiments", "reproduce_figures", "experiments.driver", None),
    ("source_models", "sample_source", "source_models.sample_source", None),
    ("source_models", "exact_data", "source_models.exact_data", None),
    ("cli", "main", "cli", None),
)

CLI_SUBCOMMANDS = ("sweep", "figures", "simulate", "invert")


def _counted_bytes(kind, args, result):
    if kind == "bytes_copied":
        obj = args[0]
        arr = obj.values if hasattr(obj, "values") else obj.coeffs
        return arr.nbytes
    # bytes_computed: what the forward FFT reads plus what it writes.
    return args[0].values.nbytes + result.coeffs.nbytes


def _distinct_key(span_name, args, kwargs):
    if span_name == "spectral_core.regularized_multiplier":
        xi = np.asarray(args[0])
        mu = args[1] if len(args) > 1 else kwargs["mu"]
        # n and the lowest nonzero frequency identify the grid.
        return (xi.size, float(xi.flat[1]) if xi.size > 1 else 0.0, float(mu))
    f = args[0]
    p = args[1] if len(args) > 1 else kwargs["p"]
    return (f.grid, hash(f.values.tobytes()), float(p))


class Tracer:
    """Patch the layers of a loaded sourcefft package and record their spans."""

    def __init__(self):
        self._names = []
        self._name_index = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = []
        self._threads = {}
        self._cols = {
            "id": array("q"), "name": array("i"), "parent": array("q"),
            "thread": array("i"), "start": array("d"), "end": array("d"),
        }
        self._patches = []
        self.bytes = {}
        self.distinct = {}
        self._op_keys = {}

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.get_ident() == self._main_thread:
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def _name_id(self, name):
        with self._lock:
            if name not in self._name_index:
                self._name_index[name] = len(self._names)
                self._names.append(name)
            return self._name_index[name]

    def _thread_id(self):
        ident = threading.get_ident()
        idx = self._threads.get(ident)
        if idx is None:
            with self._lock:
                idx = self._threads.setdefault(ident, len(self._threads))
        return idx

    def _record(self, span_id, name_id, parent, start, end):
        cols = self._cols
        thread = self._thread_id()
        with self._lock:
            cols["id"].append(span_id)
            cols["name"].append(name_id)
            cols["parent"].append(parent)
            cols["thread"].append(thread)
            cols["start"].append(start)
            cols["end"].append(end)

    def _wrap(self, fn, span_name, kind):
        tracer = self
        fixed_id = None if span_name == "cli" else self._name_id(span_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fixed_id is None:
                argv = args[0] if args else kwargs.get("argv")
                sub = argv[0] if argv else "none"
                name_id = tracer._name_id(f"cli.{sub}")
            else:
                name_id = fixed_id
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(span_id, name_id, parent, start, end)
            if kind == "distinct":
                tracer._op_keys.setdefault(span_name, set()).add(
                    _distinct_key(span_name, args, kwargs)
                )
            elif kind is not None:
                n = _counted_bytes(kind, args, result)
                with tracer._lock:
                    tracer.bytes[span_name] = tracer.bytes.get(span_name, 0) + n
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every layer at each sourcefft module attribute bound to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "sourcefft" or name.startswith("sourcefft.")]
        for mod_name, attr, span_name, kind in LAYERS:
            home = sys.modules[f"sourcefft.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, span_name, kind))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span_name, kind)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self):
        for target, name, orig in reversed(self._patches):
            setattr(target, name, orig)
        self._patches.clear()

    def end_op(self):
        """Close one operation: distinct inputs are counted per operation."""
        for span_name, keys in self._op_keys.items():
            self.distinct[span_name] = self.distinct.get(span_name, 0) + len(keys)
        self._op_keys = {}

    # -- results ----------------------------------------------------------

    def spans(self):
        """All finished spans as numpy columns, ordered by span id."""
        cols = {k: np.array(v, dtype=v.typecode) for k, v in self._cols.items()}
        order = np.argsort(cols["id"], kind="stable")
        return {k: v[order] for k, v in cols.items()}, list(self._names)

    def self_times(self):
        """Per span name: (call count, summed self seconds)."""
        cols, names = self.spans()
        n = cols["id"].size
        if n == 0:
            return {}
        # Span ids are dense, so an id is its row once sorted.
        ids, parent, thread = cols["id"], cols["parent"], cols["thread"]
        start, end = cols["start"], cols["end"]
        dur = end - start
        covered = np.zeros(n)
        has_parent = parent >= 0
        pos = np.searchsorted(ids, parent[has_parent])
        child_rows = np.flatnonzero(has_parent)
        same = thread[child_rows] == thread[pos]
        covered += np.bincount(pos[same], weights=dur[child_rows[same]], minlength=n)
        # Children on another thread may overlap: cover their union instead.
        cross_parents = np.unique(pos[~same])
        cross_children = child_rows[~same]
        cross_pos = pos[~same]
        for p in cross_parents:
            rows = cross_children[cross_pos == p]
            s = np.clip(start[rows], start[p], end[p])
            e = np.clip(end[rows], start[p], end[p])
            order = np.argsort(s)
            s, e = s[order], e[order]
            reach = np.maximum.accumulate(e)
            new_seg = np.ones(s.size, dtype=bool)
            new_seg[1:] = s[1:] > reach[:-1]
            seg_starts = np.flatnonzero(new_seg)
            seg_end = np.maximum.reduceat(e, seg_starts)
            # A driver's own-thread children run before or after its pool,
            # never during it, so the two covers add.
            covered[p] += float(np.sum(seg_end - s[seg_starts]))
        self_s = np.maximum(dur - covered, 0.0)
        name_col = cols["name"]
        calls = np.bincount(name_col, minlength=len(names))
        totals = np.bincount(name_col, weights=self_s, minlength=len(names))
        return {names[i]: (int(calls[i]), float(totals[i])) for i in range(len(names))}

    def dump(self, path):
        cols, names = self.spans()
        np.savez(path, names=np.array(names), **cols)
