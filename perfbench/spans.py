"""Span recorder for the traced run of the benchmark.

Tracing is installed from outside the program: every public function of a
``posetdet`` module is replaced, in every ``posetdet`` namespace that binds
it, by a wrapper that records a span (name, start, end, parent).  A few
class methods are patched on their class.  Nothing under ``src/`` changes,
and leaving the ``Tracing`` context puts every original back.

Parts of the program that get no spans:

* ``cli`` functions other than ``main``: the runners are reached through
  the ``RUNNERS`` table, which keeps the unwrapped originals, so their
  glue stays in ``cli.main``'s self time.
* ``ring``: its module functions run once per matrix entry and its
  ``Poly`` operations once per elimination step, so spans there would
  cost more than the work they time.  The ring layer is measured by call
  counts of ``Poly.__mul__`` and ``Poly.exact_div`` and by the
  microbenchmarks in ``run.py``.
* generator functions: ``iter_paths`` is counted per yielded path instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "identities", "matrix", "ring", "poset", "lgv", "chromatic", "randgen", "arith")
TRACED_CLI = ("main",)

# (layer, class, attribute, span name); None as span name counts calls only.
METHODS = (
    ("poset", "Poset", "from_covers", "poset.from_covers"),
    ("poset", "Poset", "induced", "poset.induced"),
    ("poset", "Poset", "meet", "poset.meet"),
    ("identities", "IdentityReport", "line", "identities.line"),
    ("identities", "IdentityReport", "machine_line", "identities.machine_line"),
    ("matrix", "SquareMatrix", "__matmul__", "matrix.matmul"),
    ("ring", "Poly", "__mul__", None),
    ("ring", "Poly", "exact_div", None),
)

# Per-layer self-time metrics that sum several spans.
GROUPS = {
    "identities.build": (
        "identities.incidence_matrix",
        "identities.incidence_product_matrix",
        "identities.weighted_product_matrix",
        "identities.ramanujan_matrix",
        "identities.kth_root_matrix",
        "identities.meet_matrix",
        "identities.meet_closed_matrix",
        "identities.gcd_matrix",
    ),
    "identities.predict": (
        "identities.incidence_product_det",
        "identities.weighted_product_det",
        "identities.ramanujan_matrix_det",
        "identities.kth_root_matrix_det",
        "identities.meet_matrix_det",
        "identities.meet_closed_det",
        "identities.totient_product",
    ),
    "identities.report_format": ("identities.line", "identities.machine_line"),
    "poset.construct": (
        "poset.from_covers",
        "poset.divisor_poset",
        "poset.poset_from_dict",
        "poset.induced",
    ),
    "chromatic.build": (
        "chromatic.chromatic_join_matrix",
        "chromatic.all_partitions",
        "chromatic.noncrossing_partitions",
        "chromatic.is_noncrossing",
        "chromatic.join_partitions",
    ),
    "chromatic.formula": ("chromatic.verify_chromatic_join_det", "chromatic.beraha"),
}

# Single spans reported by their own self time.
SPANS = (
    "cli.main",
    "matrix.det_bareiss",
    "matrix.leading_principal_minors",
    "matrix.matmul",
    "poset.mobius_function",
    "poset.meet",
    "lgv.nonintersecting_families",
    "lgv.path_weight_sum",
    "lgv.path_weight",
    "lgv.stembridge_matrix",
    "lgv.three_layer_digraph",
)
MODULE_TOTALS = ("identities", "matrix", "poset", "lgv", "chromatic", "randgen", "arith")

# acceptance ratio name -> (accepted span, attempted span counted under it)
ACCEPT_RATIOS = {
    "randgen.semilattice_accept_ratio": ("randgen.random_meet_semilattice", "poset.from_covers"),
    "randgen.digraph_accept_ratio": ("randgen.random_hypothesis_digraph", "lgv.nonintersecting_families"),
}

COUNTS = (
    "matrix.det_bareiss.calls",
    "matrix.det_bareiss.n3",
    "ring.Poly.mul.calls",
    "ring.Poly.exact_div.calls",
    "poset.construct.calls",
    "lgv.paths_enumerated",
    "lgv.families_found",
)


class Recorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        i = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(i)
        return i

    def leave(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Spans nest strictly (one thread, every span closed in ``finally``),
        so the children of a span cover disjoint parts of it.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


def _span(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(i)

    return wrapper


def _counted(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.counts[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _counted_yields(rec: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            rec.counts[counter] += 1
            yield item

    return wrapper


def _det_bareiss(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(m):
        rec.counts["matrix.det_bareiss.calls"] += 1
        rec.counts["matrix.det_bareiss.n3"] += m.n**3
        return fn(m)

    return _span(rec, "matrix.det_bareiss", wrapper)


def _families(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        rec.counts["lgv.families_found"] += len(out)
        return out

    return _span(rec, "lgv.nonintersecting_families", wrapper)


def _wrap_function(rec: Recorder, layer: str, name: str, fn):
    if (layer, name) == ("matrix", "det_bareiss"):
        return _det_bareiss(rec, fn)
    if (layer, name) == ("lgv", "nonintersecting_families"):
        return _families(rec, fn)
    if (layer, name) == ("lgv", "iter_paths"):
        return _counted_yields(rec, "lgv.paths_enumerated", fn)
    if inspect.isgeneratorfunction(fn):
        # A span would close before the generator runs; its work stays in
        # the caller's self time.
        return None
    return _span(rec, f"{layer}.{name}", fn)


class Tracing:
    """Context manager that installs the wrappers and restores the originals.

    ``missing`` lists the names this module reports on that the program no
    longer has; their metrics read zero.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracing:
        package = importlib.import_module("posetdet")
        modules = {layer: importlib.import_module(f"posetdet.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        names = set()
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or layer == "ring"
                    or (layer == "cli" and attr not in TRACED_CLI)
                ):
                    continue
                wrapped = _wrap_function(self.rec, layer, attr, fn)
                if wrapped is None:
                    continue
                names.add(f"{layer}.{attr}")
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._set(ns, attr, wrapped)
        for layer, cls_name, attr, span_name in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{layer}.{cls_name}.{attr}")
                continue
            fn = original.__func__ if isinstance(original, classmethod) else original
            if span_name is None:
                counter = f"{layer}.{cls_name}.{attr.strip('_')}.calls"
                wrapped = _counted(self.rec, counter, fn)
            else:
                wrapped = _span(self.rec, span_name, fn)
                names.add(span_name)
            if isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            self._set(cls, attr, wrapped)
        listed = {n for group in GROUPS.values() for n in group} | set(SPANS)
        listed |= {n for pair in ACCEPT_RATIOS.values() for n in pair}
        self.missing += sorted(listed - names)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced pass."""
    own = rec.self_times()
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), t in zip(rec.spans, own):
        by_name[name] = by_name.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
    out: dict[str, float] = {}
    for span in SPANS:
        out[f"{span}.self_s"] = by_name.get(span, 0.0)
    for group, members in GROUPS.items():
        out[f"{group}.self_s"] = sum(by_name.get(n, 0.0) for n in members)
    for layer in MODULE_TOTALS:
        prefix = layer + "."
        out[f"{layer}.self_s"] = sum(t for n, t in by_name.items() if n.startswith(prefix))
    rec.counts["poset.construct.calls"] = sum(calls.get(n, 0) for n in GROUPS["poset.construct"])
    out.update(rec.counts)
    for metric, (accepted, attempted) in ACCEPT_RATIOS.items():
        tries = sum(
            1
            for i, span in enumerate(rec.spans)
            if span[0] == attempted and rec.has_ancestor(i, accepted)
        )
        out[metric] = calls.get(accepted, 0) / tries if tries else 0.0
    return out
