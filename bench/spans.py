"""Span recorder for the traced run.

Each public function listed in LAYERS is replaced, in every toricsys
module that binds it (``geometry.classify`` and ``invariants.classify``
alike), by a wrapper that records a span: name, start, end, parent span,
the item it ran in, and one number describing the call.  Nothing under
``src/`` changes.  Spans stay in memory; ``write`` saves them as CSV when
the run ends.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

# (span name, module, public functions recorded under that name)
LAYERS = (
    ("geometry.build", "geometry",
     ("from_vertices", "ellipsoid", "polydisk", "ball", "fc_domain", "smooth_corners")),
    ("geometry.classify", "geometry", ("classify",)),
    ("invariants.area", "invariants", ("area",)),
    ("invariants.ruelle_quadrature", "invariants", ("ruelle_quadrature",)),
    ("invariants.report", "invariants", ("report",)),
    ("invariants.gromov_width", "invariants", ("gromov_width_monotone",)),
    ("reeb.t_min", "reeb", ("t_min",)),
    ("reeb.orbits_at_vertex", "reeb", ("orbits_at_vertex",)),
    ("surgery.strangulate", "surgery", ("strangulate",)),
    ("surgery.strain", "surgery", ("strain",)),
    ("surgery.flatten_near_intercept", "surgery", ("flatten_near_intercept",)),
    ("experiments.run_sweep", "experiments", ("run_sweep",)),
    ("profile_io.roundtrip", "profile_io", ("dumps", "loads")),
    ("cli.main", "cli", ("main",)),
)

ITEM = "bench.item"


def _t_min_name(args, kwargs) -> str:
    method = kwargs.get("method", args[1] if len(args) > 1 else "fast")
    return "reeb.t_min_oracle" if method == "oracle" else "reeb.t_min_fast"


# Span names that depend on the call, and the number each span records.
NAMERS = {"reeb.t_min": _t_min_name}
ATTR_IN = {"invariants.report": lambda args, kwargs: args[0].n_segments}
ATTR_OUT = {"reeb.orbits_at_vertex": len}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("q")
        self.end = array("q")
        self.attr = array("d")
        self.stack: list[int] = []
        self.on = True
        self.current_item = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, attr: float = 0.0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.attr.append(attr)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.item, self.start, self.end, self.attr):
            del arr[:]
        self.stack.clear()

    def wrap(self, layer: str, f):
        rec = self
        fixed = self.name_id(layer)
        namer = NAMERS.get(layer)
        attr_in = ATTR_IN.get(layer)
        attr_out = ATTR_OUT.get(layer)

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return f(*args, **kwargs)
            nid = rec.name_id(namer(args, kwargs)) if namer else fixed
            i = rec.open(nid, attr_in(args, kwargs) if attr_in else 0.0)
            try:
                result = f(*args, **kwargs)
            finally:
                rec.close(i)
            if attr_out:
                rec.attr[i] = attr_out(result)
            return result

        return wrapper

    def install(self, package) -> list[str]:
        """Wrap every function in LAYERS under each name a toricsys module
        binds it to; return the functions that could not be found."""
        modules = [package] + [
            m for name, m in sorted(sys.modules.items()) if name.startswith(package.__name__ + ".")
        ]
        missing = []
        for layer, modname, funcs in LAYERS:
            module = getattr(package, modname, None)
            for fname in funcs:
                f = getattr(module, fname, None)
                if not callable(f):
                    missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(layer, f)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is f:
                            setattr(m, key, wrapper)
        return missing

    # -- after the run -------------------------------------------------

    def self_times(self) -> list[int]:
        n = len(self.start)
        selft = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                selft[p] -= self.end[i] - self.start[i]
        return selft

    def summary(self, items: list, scales: list) -> dict:
        """Totals per span name, and the samples behind the growth
        exponents.  ``items`` gives (kind, eps) of each timed item and
        ``scales`` the factor that brings its times to reference speed."""
        selft = self.self_times()
        by_name: dict[str, dict] = {}
        incl: dict[tuple[int, str], float] = {}
        report_id = self._ids.get("invariants.report")
        n_fit = Fit()
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            scale = scales[self.item[i]]
            agg = by_name.setdefault(name, {"self_ns": 0.0, "calls": 0, "attr": 0.0})
            agg["self_ns"] += selft[i] * scale
            agg["calls"] += 1
            agg["attr"] += self.attr[i]
            dur = (self.end[i] - self.start[i]) * scale
            key = (self.item[i], name)
            incl[key] = incl.get(key, 0) + dur
            if self.name[i] == report_id and self.attr[i] > 0:
                n_fit.add(self.attr[i], dur / 1e6)
        fits = {"invariants.report.n_exponent": n_fit}
        for metric, kind, name in (
            ("reeb.t_min_fast.eps_exponent", "sweep.strangulate.diagonal", "reeb.t_min_fast"),
            ("reeb.orbits_at_vertex.eps_exponent", "sweep.strain", "reeb.orbits_at_vertex"),
        ):
            fit = fits[metric] = Fit()
            for index, (item_kind, eps) in enumerate(items):
                ms = incl.get((index, name), 0) / 1e6
                if item_kind == kind and ms > 0:
                    fit.add(1 / eps, ms)
        return {"names": by_name, "fits": {k: v.state() for k, v in fits.items()}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,parent,item,name,start_ns,end_ns,attr\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.item[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.attr[i]:g}\n"
                )


class Fit:
    """Least-squares slope of log(y) against log(x), kept as sums so that
    the workers' samples can be pooled."""

    def __init__(self):
        self.n, self.sx, self.sy, self.sxx, self.sxy = 0, 0.0, 0.0, 0.0, 0.0

    def add(self, x: float, y: float) -> None:
        lx, ly = math.log(x), math.log(y)
        self.n += 1
        self.sx += lx
        self.sy += ly
        self.sxx += lx * lx
        self.sxy += lx * ly

    def state(self) -> tuple:
        return (self.n, self.sx, self.sy, self.sxx, self.sxy)

    def merge(self, state) -> None:
        for name, value in zip(("n", "sx", "sy", "sxx", "sxy"), state):
            setattr(self, name, getattr(self, name) + value)

    def slope(self) -> float:
        """0 when fewer than two distinct x were seen."""
        den = self.n * self.sxx - self.sx * self.sx
        if self.n < 2 or den <= 1e-12 * max(1.0, self.sxx * self.n):
            return 0.0
        return (self.n * self.sxy - self.sx * self.sy) / den
