"""Outside-in spans around the public functions of each mctwist layer.

A :class:`Tracer` replaces every binding of each target function in every
loaded ``mctwist.*`` module with a wrapper, so calls made inside the
package are seen too.  Each call records a span (name, id, parent id, job
id, start, end) plus counters taken at the same boundary.  Spans stay in
memory until the run ends.  :meth:`Tracer.uninstall` puts the original
objects back and reports whether every binding is the original again.

Counter bookkeeping runs after a span's end, and the wrapper's own time
before and after the call is charged to no span: a parent's self time is
its duration minus the whole footprint of its children.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# metric prefix -> the quantities the traced run reports under it.  A
# ``<layer>.<function>`` prefix names a function that is wrapped: ``calls``
# and ``self_s`` come from its spans, the rest from :func:`_counters`.  The
# bare ``exactlinalg``, ``cli`` and ``trace`` prefixes are computed by the
# runner from the whole run.
QUANTITIES = {
    "exactlinalg.smith_normal_form": "calls self_s cells max_bits",
    "exactlinalg.rref": "calls self_s cells",
    "exactlinalg.solve_linear": "calls self_s",
    "exactlinalg.kernel_basis": "calls self_s",
    "exactlinalg.cohomology": "calls self_s dim",
    "exactlinalg": "snf_per_cohomology",
    "simplicial.from_ordered_complex": "self_s",
    "simplicial.cochain_algebra": "calls self_s cells",
    "simplicial.rep_to_mc": "self_s",
    "simplicial.solve_invertibility": "calls self_s",
    "dgcore.check_dga": "calls self_s triples failures",
    "dgcore.endomorphism_dga": "calls self_s basis",
    "mc.search_homotopy_gauge":
        "calls self_s equivalent distinguished unknown samples decided_ratio",
    "mc.twist_invariants": "calls self_s",
    "mc.closed_degree_zero": "self_s",
    "mc.algebra_inverse": "calls self_s none",
    "mc.verify_homotopy_gauge": "calls self_s",
    "mc.twist_module": "self_s",
    "mc.twist_algebra": "self_s",
    "mc.hom_twist": "self_s",
    "perturbation.minimal_model": "calls self_s",
    "perturbation.hodge_data": "calls self_s",
    "perturbation.truncate_twisted": "calls self_s",
    "interval.build_interval_algebra": "calls self_s",
    "holonomy.solve_transport": "calls self_s steps",
    "holonomy.gauge_from_homotopy": "calls self_s",
    "io.load_json_file": "self_s bytes",
    "io.dga_from_json": "self_s",
    "io.dumps": "self_s bytes",
    "cli.main": "self_s",
    "cli": "stdout_changed",
    "trace": "wall_s overhead_ratio",
}

# layer -> functions wrapped in that module
TARGETS = {}
for _name in QUANTITIES:
    if "." in _name:
        _layer, _function = _name.split(".")
        TARGETS.setdefault(_layer, []).append(_function)


def _max_bits(matrices) -> int:
    best = 0
    for m in matrices:
        for _, v in m.nonzero_items():
            b = abs(v).bit_length()
            if b > best:
                best = b
    return best


def _counters(name, args, result) -> dict:
    """Work counts read at the call boundary from arguments and result."""
    if name == "exactlinalg.smith_normal_form":
        m = args[0]
        return {"cells": m.rows * m.cols, "max_bits": _max_bits(result)}
    if name == "exactlinalg.rref":
        return {"cells": args[0].rows * args[0].cols}
    if name == "exactlinalg.cohomology":
        spec = args[0]
        return {"dim": sum(spec.dims.values()), "z": int(spec.ring.kind == "Z")}
    if name == "simplicial.cochain_algebra":
        return {"cells": result.gm.dim}
    if name == "dgcore.check_dga":
        return {"triples": args[0].gm.dim ** 3, "failures": len(result["failures"])}
    if name == "dgcore.endomorphism_dga":
        return {"basis": result.gm.dim}
    if name == "mc.search_homotopy_gauge":
        return {result.kind: 1, "samples": result.report.get("samples", 0)}
    if name == "mc.algebra_inverse":
        return {"none": int(result is None)}
    if name == "holonomy.solve_transport":
        return {"steps": result[1]["steps"]}
    if name == "io.load_json_file":
        return {"bytes": os.path.getsize(args[0])}
    if name == "io.dumps":
        return {"bytes": len(result.encode())}
    return {}


def _mctwist_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "mctwist" or n.startswith("mctwist.")) and m is not None]


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, job, name, start, end, footprint, counters]
        self.stack = []
        self.job = None
        self.patched = []        # (module, attribute, original)
        self.wrappers = {}       # id -> wrapper, kept alive so ids stay unique

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span = [len(tracer.spans), tracer.stack[-1][0] if tracer.stack else None,
                    tracer.job, name, 0.0, 0.0, 0.0, None]
            tracer.spans.append(span)
            tracer.stack.append(span)
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer.stack.pop()
                span[6] = span[5] - entered     # the footprint, if fn raised
            span[7] = _counters(name, args, result)
            span[6] = time.perf_counter() - entered
            return result

        wrapper.__wrapped__ = fn
        self.wrappers[id(wrapper)] = wrapper
        return wrapper

    def install(self):
        """Wrap every binding of every target in the loaded mctwist modules."""
        for layer in TARGETS:
            importlib.import_module("mctwist." + layer)
        modules = _mctwist_modules()
        for layer, names in TARGETS.items():
            home = sys.modules["mctwist." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap("%s.%s" % (layer, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, original))

    def uninstall(self) -> bool:
        """Restore every binding; True when each is the original object again
        and no wrapper is left in any mctwist module."""
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)
        restored = all(getattr(mod, attr) is original for mod, attr, original in self.patched)
        leftover = any(id(value) in self.wrappers for mod in _mctwist_modules()
                       for value in vars(mod).values())
        return restored and not leftover

    def bindings(self) -> list:
        return sorted("%s.%s" % (mod.__name__, attr) for mod, attr, _ in self.patched)


def self_times(spans) -> dict:
    """Span id -> duration minus the footprint of its direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[6]
    return own


def aggregate(spans) -> dict:
    """Per-function totals: calls, self_s and summed or maximal counters."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    out = {}
    for s in spans:
        agg = out.setdefault(s[3], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own[s[0]]
        for k, v in (s[7] or {}).items():
            agg[k] = max(agg.get(k, 0), v) if k == "max_bits" else agg.get(k, 0) + v
    # Smith forms run inside a Z cohomology, per Z cohomology call
    under = 0
    for s in spans:
        if s[3] != "exactlinalg.smith_normal_form":
            continue
        p = s[1]
        while p is not None and by_id[p][3] != "exactlinalg.cohomology":
            p = by_id[p][1]
        if p is not None and (by_id[p][7] or {}).get("z"):
            under += 1
    out["snf_under_z_cohomology"] = under
    return out
