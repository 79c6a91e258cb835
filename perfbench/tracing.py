"""In-memory tracing of calls into the nimspec layers.

The tracer wraps every public function and public method of the layer
modules from outside the library and rebinds each module global that names
one of them, including the copies that ``from ... import`` left in other
modules, so that no call goes unseen.  Each wrapped call becomes a span
(name, parent span, start, end, raised, op id) kept in a list; a few hot
leaf functions only count their calls, and their time falls to the span
that called them.  A layer's self time is the duration of its spans minus
the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time

# The layers, in report order.  `series` is split in two because the
# scalar-series half and the matrix-recurrence half are optimised apart.
LAYERS = ("graphs", "paths", "measures", "subgroups", "series.scalar",
          "series.matrix", "deltoid", "suites", "cli")
MODULES = ("graphs", "paths", "measures", "subgroups", "series", "deltoid",
           "suites", "cli")

# Functions and classes of nimspec.series that belong to series.matrix;
# everything else in that module is series.scalar.
SERIES_MATRIX = {
    "mat_identity", "mat_zero", "mat_mul", "mat_add", "mat_transpose",
    "mat_scale", "MatrixSeries", "su2_involution", "hilbert_su2",
    "su2_numerator", "hilbert_su3", "su3_numerator", "cy3_hilbert",
    "abelian_mckay", "generalized_t",
}

# Hot leaves: counted, not timed, so that tracing stays cheap.
COUNTED = {"deltoid.phi", "series.mat_mul", "series.TruncatedSeries.__mul__",
           "paths.multinomial"}

# Arithmetic dunders that are wrapped although their names are private.
DUNDERS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")

# Functions whose inclusive time is reported as `<name>.s`.
TIMED = {
    "graphs.eigendata.s": "graphs.eigendata",
    "paths.moment_table.s": "paths.moment_table",
    "measures.moment_t2.s": "measures.moment_t2",
    "subgroups.generate_group.s": "subgroups.generate_group",
    "subgroups.class_data.s": "subgroups.class_data",
    "series.compose.s": "series.TruncatedSeries.compose",
    "series.g_composition_route.s": "series.g_composition_route",
}

# Functions whose call count is reported as `<name>.calls`.
CALLS = {
    "graphs.by_id.calls": "graphs.by_id",
    "paths.moment_path_count.calls": "paths.moment_path_count",
    "measures.canonical_measure.calls": "measures.canonical_measure",
    "series.compose.calls": "series.TruncatedSeries.compose",
    "series.inverse.calls": "series.TruncatedSeries.inverse",
    "series.mat_mul.calls": "series.mat_mul",
    "deltoid.invert_phi.calls": "deltoid.invert_phi",
    "deltoid.jacobian.calls": "deltoid.jacobian",
    "deltoid.phi.calls": "deltoid.phi",
}

# Work counters, accumulated from call arguments and results.
COUNTERS = ("paths.walk_steps", "measures.atoms_summed", "subgroups.elements",
            "series.mat_mul.entry_ops", "series.hilbert.degree_steps",
            "suites.cases", "cli.bytes_out")


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.raised"] = "count"
    for name in CALLS:
        out[name] = "count"
    for name in TIMED:
        out[name] = "s"
    for name in COUNTERS:
        out[name] = "count"
    out["graphs.by_id.repeat_share"] = "ratio"
    out["paths.walk_steps_per_entry"] = "steps"
    out["trace.spans"] = "count"
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def _layer_of(module: str, qualname: str) -> str:
    if module != "series":
        return module
    head = qualname.split(".", 1)[0]
    return "series.matrix" if head in SERIES_MATRIX else "series.scalar"


def _walk_steps(args, kwargs):
    m = args[1] if len(args) > 1 else kwargs["m"]
    n = args[2] if len(args) > 2 else kwargs.get("n", 0)
    return m + n


def _first(args, kwargs, key):
    return args[0] if args else kwargs[key]


class Tracer:
    """Spans and counters for one traced pass; install() patches the
    nimspec modules in place and uninstall() restores them."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []             # (parent, name, t0, t1, raised, op, outermost)
        self.stack = [-1]
        self.counts = {}            # counted-only functions: name -> [calls, raised]
        self.work = dict.fromkeys(COUNTERS, 0)
        self.by_id_seen = set()
        self.by_id_repeats = 0
        self._depth = {}
        self._patched = []          # (owner, attribute, original value)
        self._layer = {}            # qualified name -> layer
        self._observers = {
            "graphs.by_id": self._see_by_id,
            "paths.moment_path_count":
                lambda a, k, r: self._add("paths.walk_steps", _walk_steps(a, k)),
            "measures.moment_t":
                lambda a, k, r: self._add("measures.atoms_summed",
                                          len(_first(a, k, "mu").atoms)),
            "measures.moment_t2":
                lambda a, k, r: self._add("measures.atoms_summed",
                                          len(_first(a, k, "mu").atoms)),
            "subgroups.generate_group":
                lambda a, k, r: self._add("subgroups.elements", len(r.elements)),
            "series.mat_mul":
                lambda a, k, r: self._add("series.mat_mul.entry_ops",
                                          len(a[0]) * len(a[1]) * len(a[1][0])),
            "series.hilbert_su2": self._see_hilbert,
            "series.hilbert_su3": self._see_hilbert,
            "series.cy3_hilbert": self._see_hilbert,
            "suites.run_suite": self._see_suite,
        }

    # -- observers ----------------------------------------------------------

    def _add(self, key, n):
        self.work[key] += n

    def _see_by_id(self, args, kwargs, result):
        gid = _first(args, kwargs, "graph_id")
        if gid in self.by_id_seen:
            self.by_id_repeats += 1
        self.by_id_seen.add(gid)

    def _see_hilbert(self, args, kwargs, result):
        self.work["series.hilbert.degree_steps"] += result.order

    def _see_suite(self, args, kwargs, result):
        if _first(args, kwargs, "name") != "all":     # 'all' recurses per suite
            self.work["suites.cases"] += len(result.cases)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, depth = self.spans, self.stack, self._depth
        observe = self._observers.get(name)
        clock = time.perf_counter
        depth[name] = 0

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            outermost = depth[name] == 0
            depth[name] += 1
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                spans[sid] = (parent, name, t0, t1, raised, self.op, outermost)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _counter(self, fn, name):
        cell = self.counts.setdefault(name, [0, 0])
        observe = self._observers.get(name)

        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            cell[0] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                cell[1] += 1
                raise
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return counted

    def _wrap(self, fn, name, module):
        self._layer[name] = _layer_of(module, name.split(".", 1)[1])
        if name in COUNTED:
            return self._counter(fn, name)
        return self._span(fn, name)

    def install(self):
        """Wrap the public callables of every layer module and rebind every
        nimspec module global (and class attribute) that refers to one."""
        wrapped = {}                # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"nimspec.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not inspect.isfunction(meth):
                            continue
                        if mname.startswith("_") and mname not in DUNDERS:
                            continue
                        key = id(meth)
                        if key not in wrapped:
                            qual = "__mul__" if mname == "__rmul__" else mname
                            wrapped[key] = (meth, self._wrap(meth, f"{short}.{attr}.{qual}", short))
                        self._patch(obj, mname, wrapped[key][1])
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}", short))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nimspec" or mod_name.startswith("nimspec.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        self.active = True

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of this pass (without trace.overhead_s)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, t0, t1, _, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            out[f"{layer}.raised"] = 0
        calls = {}
        inclusive = {}
        for i, (_, name, t0, t1, raised, _, outermost) in enumerate(spans):
            layer = self._layer[name]
            out[f"{layer}.self_s"] += (t1 - t0) - child[i]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.raised"] += raised
            calls[name] = calls.get(name, 0) + 1
            if outermost:
                inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
        for name, (n, raised) in self.counts.items():
            layer = self._layer[name]
            out[f"{layer}.calls"] += n
            out[f"{layer}.raised"] += raised
            calls[name] = n
        for metric, name in CALLS.items():
            out[metric] = calls.get(name, 0)
        for metric, name in TIMED.items():
            out[metric] = inclusive.get(name, 0.0)
        out.update(self.work)
        n_by_id = calls.get("graphs.by_id", 0)
        out["graphs.by_id.repeat_share"] = self.by_id_repeats / n_by_id if n_by_id else 0.0
        n_entries = calls.get("paths.moment_path_count", 0)
        out["paths.walk_steps_per_entry"] = (
            self.work["paths.walk_steps"] / n_entries if n_entries else 0.0)
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = len(spans)
        return out
