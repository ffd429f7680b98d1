"""Spans around strangeci's public functions, installed from outside the package.

The tracer replaces the attribute each caller looks up (a module-level name
such as ``geometry.rank`` or ``census.singular_search``, or a method on
``HomogeneousPolynomial`` / ``MatrixOverField``) with a wrapper that records a
span, and puts the originals back on ``uninstall``.  Nothing under ``src/``
is edited.  Spans are kept in flat arrays in memory (name, start, end,
parent span, operation id, one number per span, NaN when the call raised)
and written out once, at the end of the run.

``layer_metrics`` turns the spans of the traced pass into the per-layer
metrics declared in BENCHMARK.json.
"""

from __future__ import annotations

import math
import sys
import time
from array import array

import numpy as np

CLOCK = time.perf_counter

# (module, attribute, span name) for module-level functions.  Every
# strangeci module that imported the same object gets the wrapper too.
FUNCTIONS = [
    ("gf", "make_field", "gf.make_field"),
    ("exactla", "rref", "exactla.rref"),
    ("exactla", "rank", "exactla.rank"),
    ("exactla", "in_span", "exactla.in_span"),
    ("exactla", "rank_and_kernel", "exactla.rank_and_kernel"),
    ("geometry", "singular_search", "geometry.singular_search"),
    ("geometry", "gauss_map", "geometry.gauss_map"),
    ("geometry", "tangent_space", "geometry.tangent_space"),
    ("strangeness", "is_strange_for", "strangeness.is_strange_for"),
    ("strangeness", "strange_locus", "strangeness.strange_locus"),
    ("strangeness", "is_cone_with_vertex", "strangeness.is_cone_with_vertex"),
    ("strangeness", "graded_membership", "strangeness.graded_membership"),
    ("census", "verify_singularity_theorem", "census.verify_singularity_theorem"),
]

# (module, class, attribute, span name) for methods.
METHODS = [
    ("hompoly", "HomogeneousPolynomial", "__init__", "hompoly.construct"),
    ("hompoly", "HomogeneousPolynomial", "linear_change", "hompoly.linear_change"),
    ("hompoly", "HomogeneousPolynomial", "multiply_monomial", "hompoly.multiply_monomial"),
    ("hompoly", "HomogeneousPolynomial", "partial_derivative", "hompoly.partial_derivative"),
    ("hompoly", "HomogeneousPolynomial", "evaluate", "hompoly.evaluate"),
    ("exactla", "MatrixOverField", "__init__", "exactla.MatrixOverField"),
]

BLOCK = "geometry.block"  # one numpy block of candidate points inside singular_search


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _span_value(name, module):
    """(before, value) hooks that attach one number to a span, or (None, None).

    make_field: 1 when the call missed the cache (a cold construction).
    rref: rows x columns of the eliminated matrix.
    rank: 1 when the rank is below the row count (a Jacobian test hit).
    verify_singularity_theorem: the number of samples in the summary.
    """
    if name == "gf.make_field":
        fn = getattr(module, "make_field")
        return (lambda: fn.cache_info().misses), (
            lambda a, k, r, misses: float(fn.cache_info().misses > misses)
        )
    if name == "exactla.rref":
        return None, lambda a, k, r, _: float(
            len(_arg(a, k, 1, "rows")) * _arg(a, k, 2, "ncols")
        )
    if name == "exactla.rank":
        return None, lambda a, k, r, _: float(r < _arg(a, k, 0, "M").nrows)
    if name == "census.verify_singularity_theorem":
        return None, lambda a, k, r, _: float(r["summary"]["total"])
    return None, None


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self.op_id = -1  # -1 while setting up, then the operation index
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span store ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t: float) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(t)
        self.end.append(math.nan)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.value.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t: float, value: float = 0.0) -> None:
        """End span idx and any child still open (one abandoned by an exception)."""
        stack = self._stack
        if idx not in stack:
            return
        while True:
            top = stack.pop()
            if math.isnan(self.end[top]):
                self.end[top] = t
            if top == idx:
                self.value[idx] = value
                return

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, value=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            token = before() if before is not None else None
            idx = tracer._open(nid, CLOCK())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, CLOCK(), math.nan)
                raise
            tracer._close(idx, CLOCK(), value(args, kwargs, result, token) if value else 0.0)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_blocks(self, fn):
        """Span per yielded block, from the request for it to the request for the next.

        The span value is the block's point count once the search has moved
        on to the next block; a block abandoned when the budget runs out keeps 0.
        """
        nid = self._id(BLOCK)
        tracer = self

        def blocks(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                t = CLOCK()
                try:
                    coords = next(inner)
                except StopIteration:
                    return
                idx = tracer._open(nid, t)
                yield coords
                tracer._close(idx, CLOCK(), float(len(coords)))

        return blocks

    def install(self) -> None:
        import importlib

        mods = {m: importlib.import_module(f"strangeci.{m}") for m in
                ("gf", "hompoly", "exactla", "geometry", "strangeness", "census")}
        pkg = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "strangeci" or n.startswith("strangeci."))]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(mods[modname], attr)
            before, value = _span_value(name, mods[modname])
            self._replace_everywhere(pkg, orig, self._wrap(name, orig, before, value))
        geometry = mods["geometry"]
        self._patch(geometry, "_point_blocks", self._wrap_blocks(geometry._point_blocks))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(mods[modname], clsname)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def _replace_everywhere(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write every span: one npz with the arrays above and the name table."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


# -- per-layer metrics ----------------------------------------------------

CALL_TIMED = [
    "hompoly.linear_change", "hompoly.multiply_monomial", "hompoly.construct",
    "hompoly.partial_derivative", "hompoly.evaluate",
    "exactla.rref", "exactla.in_span", "exactla.rank_and_kernel", "exactla.rank",
    "exactla.MatrixOverField",
    "geometry.singular_search", "geometry.gauss_map", "geometry.tangent_space",
    "strangeness.is_strange_for", "strangeness.strange_locus",
    "strangeness.is_cone_with_vertex", "strangeness.graded_membership",
]


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as {name: (value, unit)}.

    gf.make_field.* counts every call in the traced process, set-up
    included, because fields are built cold only during set-up.  Every
    other metric covers the traced pass only (spans with op id >= 0).
    """
    a = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    n_spans = len(a["start"])
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_dur = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n_spans)
    self_dur = dur - child_dur
    in_pass = a["op"] >= 0
    parent_name = np.full(n_spans, -1)
    parent_name[has_parent] = a["name"][a["parent"][has_parent]]

    def is_(name):
        return a["name"] == ids.get(name, -2)

    out: dict[str, tuple[float, str]] = {}

    mf = is_("gf.make_field")
    cold = mf & (a["value"] > 0)
    out["gf.make_field.cold_s"] = (float(dur[cold].sum()), "s")
    out["gf.make_field.cold_calls"] = (int(cold.sum()), "count")
    out["gf.make_field.calls"] = (int(mf.sum()), "count")

    for name in CALL_TIMED:
        sel = is_(name) & in_pass
        out[f"{name}.calls"] = (int(sel.sum()), "count")
        out[f"{name}.s"] = (float(dur[sel].sum()), "s")

    rref = is_("exactla.rref") & in_pass
    out["exactla.rref.max_cells"] = (int(np.nanmax(a["value"][rref], initial=0)), "count")

    # singular-search stages, from the block spans and their children
    block = is_(BLOCK) & in_pass
    evaluated = block & (a["value"] > 0)
    points = float(a["value"][evaluated].sum())
    first_matrix = a["end"].copy()  # survivor stage starts at the first Jacobian matrix
    mof = is_("exactla.MatrixOverField") & (parent_name == ids.get(BLOCK, -2))
    np.minimum.at(first_matrix, a["parent"][mof], a["start"][mof])
    filter_s = float((first_matrix - a["start"])[evaluated].sum())
    survivor_s = float((a["end"] - first_matrix)[evaluated].sum())
    tests = is_("exactla.rank") & (parent_name == ids.get(BLOCK, -2)) & in_pass
    survivors = int(tests.sum())
    hits = float(np.nansum(a["value"][tests]))
    out["geometry.singular_search.points"] = (int(points), "count")
    out["geometry.survivors"] = (survivors, "count")
    out["geometry.survivor_frac"] = (survivors / points if points else 0.0, "frac")
    out["geometry.hit_frac"] = (hits / survivors if survivors else 0.0, "frac")
    out["geometry.survivor_stage.s"] = (survivor_s, "s")
    out["geometry.filter.points_per_s"] = (points / filter_s if filter_s > 0 else 0.0, "1/s")

    strange = np.zeros(n_spans, dtype=bool)
    for name in ("is_strange_for", "strange_locus", "is_cone_with_vertex", "graded_membership"):
        strange |= is_(f"strangeness.{name}")
    out["strangeness.self_s"] = (float(self_dur[strange & in_pass].sum()), "s")

    # census: a sample calls strange_locus once, then singular_search once
    # per pass; a search that directly follows another search is an escalation
    cen = is_("census.verify_singularity_theorem") & in_pass
    out["census.samples"] = (int(np.nansum(a["value"][cen])), "count")
    out["census.self_s"] = (float(self_dur[cen].sum()), "s")
    cen_id, ss_id, sl_id = (ids.get(n, -2) for n in (
        "census.verify_singularity_theorem", "geometry.singular_search", "strangeness.strange_locus"))
    kids = np.flatnonzero(in_pass & (parent_name == cen_id) & ((a["name"] == ss_id) | (a["name"] == sl_id)))
    escalations = 0
    escalation_s = 0.0
    exhausted = 0
    prev_parent, prev_name = -1, -1
    for i in kids:
        par, nm = a["parent"][i], a["name"][i]
        if nm == ss_id:
            if par == prev_parent and prev_name == ss_id:
                escalations += 1
                escalation_s += dur[i]
            exhausted += int(np.isnan(a["value"][i]))  # only BudgetExceededError is caught
        prev_parent, prev_name = par, nm
    out["census.escalations"] = (escalations, "count")
    out["census.escalation.s"] = (float(escalation_s), "s")
    out["census.budget_exhausted"] = (exhausted, "count")

    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
