"""Spans around calls into each cwspheres module, and the per-layer
metrics computed from them.

`Tracer.install` walks the package: every public function of every
module, and every public method of its public classes, is wrapped where
it is defined and rebound under every module-level name that refers to
it (so `flows.haar_unitary` and `cli.phase_bound_check` are traced
too).  The scipy callables that `geodesy` imports are wrapped in the
`geodesy` namespace only.  A span records its name, start, end and
parent; spans stay in memory until the run ends.  Self time is a span's
duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

# The module whose scipy imports are traced too.
SCIPY_CALLER = "geodesy"


def _public_functions(module):
    """(name, owner, attribute, member) for each public function defined in
    `module` and each public method of the public classes defined there."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (staticmethod, classmethod))):
                    yield f"{name}.{attr}", obj, attr, member


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = set()
        self.nnz = {}
        self._stack = [-1]
        self._patches = []

    def _wrap(self, name, fn, record_nnz=False):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, raised, nnz = self._stack, self.raised, self.nnz

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                end[idx] = time.perf_counter()
                start[idx] = t0
                stack.pop()
            if record_nnz and hasattr(result, "nnz"):
                nnz[idx] = int(result.nnz)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap every public function of every module of `package`."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        wrapped = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, owner, attr, member in _public_functions(module):
                if owner is module:
                    wrapped[id(member)] = self._wrap(f"{short}.{name}", member)
                else:
                    kind = type(member) if not inspect.isfunction(member) else None
                    fn = self._wrap(f"{short}.{name}", member.__func__ if kind else member)
                    self._patch(owner, attr, kind(fn) if kind else fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(module, attr, wrapped[id(value)])
                elif (module.__name__.endswith("." + SCIPY_CALLER) and callable(value)
                      and not inspect.ismodule(value)
                      and str(getattr(value, "__module__", "")).startswith("scipy")):
                    self._patch(module, attr,
                                self._wrap(f"scipy.{attr}", value, record_nnz=True))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

MODULES = ("matrixcore", "randers", "cosets", "killing", "flows", "geodesy", "cli")
_QUERY_PREFIX = "geodesy.distance"


class _Spans:
    """Array view of a tracer's spans with group queries."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.nid = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.dur = (np.frombuffer(tracer.end, dtype=float)
                    - np.frombuffer(tracer.start, dtype=float))
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.raised = np.zeros(len(self.dur), dtype=bool)
        self.raised[list(tracer.raised)] = True
        self.nnz = np.zeros(len(self.dur), dtype=np.int64)
        self.nnz[list(tracer.nnz)] = list(tracer.nnz.values())

    def mask(self, test):
        ids = [i for i, name in enumerate(self.names) if test(name)]
        return np.isin(self.nid, ids)

    def below(self, mask):
        """Spans with a proper ancestor in `mask` (parents precede children)."""
        p = np.maximum(self.parent, 0)
        root = self.parent < 0
        out = np.zeros_like(mask)
        while True:
            nxt = ~root & (mask[p] | out[p])
            if np.array_equal(nxt, out):
                return out
            out = nxt

    def outer(self, mask):
        """Spans in `mask` not nested in another span of `mask`."""
        return mask & ~self.below(mask)


def layer_metrics(tracer, passes, trials_per_pass):
    """Per-layer metrics of the traced passes as name -> (value, unit);
    counts and times are per pass."""
    s = _Spans(tracer)
    per = 1.0 / passes
    out = {}

    def group(prefix, calls=None, seconds=None):
        m = s.outer(s.mask(lambda n: n.startswith(prefix)))
        if calls:
            out[calls] = (int(m.sum()) * per, "count")
        if seconds:
            out[seconds] = (float(s.dur[m].sum()) * per, "s")
        return m

    def module_self(module):
        m = s.mask(lambda n: n.startswith(module + "."))
        return float(s.self_time[m].sum()) * per

    split = group("matrixcore.RngStream.split", "matrixcore.rng_split_calls",
                  "matrixcore.rng_split_s")
    out["matrixcore.rng_split_per_trial"] = (
        int(split.sum()) * per / trials_per_pass if trials_per_pass else 0.0, "count")
    group("matrixcore.haar_", "matrixcore.haar_calls", "matrixcore.haar_s")
    group("matrixcore.unitary_phases", "matrixcore.phases_calls", "matrixcore.phases_s")
    group("matrixcore.expm_skew", seconds="matrixcore.expm_s")
    group("matrixcore.conjugate", seconds="matrixcore.conjugate_s")
    group("randers.randers_norm", "randers.norm_calls", "randers.norm_s")
    group("cosets.orbit_projection_sample", "cosets.orbit_sample_calls",
          "cosets.orbit_sample_s")
    group("cosets.project_to_m", "cosets.project_calls")
    group("killing.orbit_length_report", seconds="killing.orbit_report_s")
    out["killing.self_s"] = (module_self("killing"), "s")
    bound = group("flows.phase_bound_check", "flows.phase_bound_calls",
                  "flows.phase_bound_s")
    out["flows.phase_bound_self_s"] = (float(s.self_time[bound].sum()) * per, "s")
    group("flows.commutator_eig1_persistence", seconds="flows.commutator_s")
    group("flows.geodesic_nonintersection_probe", seconds="flows.nonintersection_s")
    group("flows.endpoint_focus_check", seconds="flows.endpoint_s")
    group("flows.apply_flow", "flows.apply_flow_calls")

    group("geodesy.build_graph", seconds="geodesy.build_s")
    query = group(_QUERY_PREFIX, "geodesy.query_calls", "geodesy.query_s")
    query_ms = s.dur[query] * 1e3
    for q in (50, 90):
        out[f"geodesy.query_p{q}_ms"] = (
            float(np.percentile(query_ms, q)) if len(query_ms) else 0.0, "ms")
    queries = int(query.sum())
    in_query = s.below(query)
    scipy_in_query = in_query & s.mask(lambda n: n.startswith("scipy."))
    kdtree = group("scipy.cKDTree", "geodesy.kdtree_builds", "geodesy.kdtree_s")
    out["geodesy.kdtree_per_query"] = (
        int(kdtree.sum()) / queries if queries else 0.0, "count")
    group("scipy.dijkstra", "geodesy.dijkstra_calls", "geodesy.dijkstra_s")
    arcs = int(s.nnz[in_query & s.mask(lambda n: n == "scipy.csr_matrix")].sum())
    out["geodesy.corridor_arcs"] = (arcs * per, "count")
    out["geodesy.corridor_arcs_per_query"] = (arcs / queries if queries else 0.0, "count")
    out["geodesy.query_self_s"] = (
        float(s.dur[query].sum() - s.dur[scipy_in_query].sum()) * per, "s")
    out["cli.self_s"] = (module_self("cli"), "s")

    for module in MODULES:
        mine = s.mask(lambda n: n.startswith(module + "."))
        parent_raised = np.zeros_like(mine)
        has_parent = s.parent >= 0
        p = s.parent[has_parent]
        parent_raised[has_parent] = s.raised[p] & mine[p]
        out[f"{module}.errors"] = (
            int((mine & s.raised & ~parent_raised).sum()) * per, "count")
    out["trace.spans"] = (len(s.dur) * per, "count")
    return out


def span_table(tracer, passes, top=15):
    """Lines of the `top` span names by self time, per pass."""
    s = _Spans(tracer)
    rows = []
    for i, name in enumerate(s.names):
        m = s.nid == i
        rows.append((float(s.self_time[m].sum()) / passes, float(s.dur[m].sum()) / passes,
                     int(m.sum()) / passes, name))
    rows.sort(reverse=True)
    lines = [f"{'span':48s} {'calls/pass':>12s} {'total_s':>10s} {'self_s':>10s}"]
    lines += [f"{name:48s} {calls:12.1f} {total:10.4f} {self_t:10.4f}"
              for self_t, total, calls, name in rows[:top]]
    return lines
