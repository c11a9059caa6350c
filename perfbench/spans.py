"""Span tracing for the benchmark's traced run, from outside the program.

``Tracer`` wraps every public function of the lieindex layers at every
module namespace that binds it (``center`` is bound in ``lieindex``,
``lieindex.algebra`` and ``lieindex.index``, and a call through any of them
is seen), records one span per call, and puts every original back when the
``with`` block ends.  The program's source is not touched, and the untraced
run never imports this module.

A span is the tuple ``(id, name, start, end, parent, op, value)``:
``parent`` is the id of the enclosing span (the op's root span for a call
made directly by the benchmark, -1 for a root), ``op`` the op it belongs
to, and ``value`` a small result kept for the ratios below, or None.  Spans
are appended when they end, so children come before their parent, and stay
in memory until the run ends.  They are tuples of atoms so that the cyclic
garbage collector stops tracking them; a growing list of lists made every
full collection in the program slower and added seconds to a catalogue op.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "free_nilpotent",
    "algebra",
    "index",
    "linalg",
    "polynomials",
    "graphs",
    "filiform",
    "serialize",
    "verify",
)

# Public methods traced besides module-level functions: (layer, class,
# method) -> metric stem.
METHODS = {("algebra", "Subspace", "from_vectors"): "subspace_from_vectors"}

ROOT = "op"

# Results kept on the span, for the ratios and counts in ``summarize``.
_VALUES = {
    "linalg.rank_mod_p": lambda args, r: r,
    "linalg.rank": lambda args, r: r,
    "polynomials.bareiss_rank": lambda args, r: r,
    "index.index": lambda args, r: r.generic_rank,
    # The best rank over the samples: dim minus the minimum returned.
    "index.index_by_sampling": lambda args, r: args[0].dim - r,
}


def _span_name(name: str, args) -> str:
    # One span name per catalogue group, so the catalogue splits by group.
    if name == "verify.cases_for_criterion":
        return f"verify.criterion_{args[0]:02d}"
    return name


def public_functions(package) -> dict:
    """{original callable: span name} for every public function of the layers."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package.__name__}.{layer}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(inspect.unwrap(obj)):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                found[obj] = f"{layer}.{attr}"
    return found


def bindings(package) -> list:
    """Every (namespace, attribute, original) a tracer would replace."""
    originals = public_functions(package)
    out = []
    for modname, module in list(sys.modules.items()):
        if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
            continue
        for attr, obj in list(vars(module).items()):
            try:
                if obj in originals:
                    out.append((module, attr, obj))
            except TypeError:  # unhashable module attribute
                continue
    for (layer, cls, meth) in METHODS:
        owner = getattr(importlib.import_module(f"{package.__name__}.{layer}"), cls)
        out.append((owner, meth, owner.__dict__[meth]))
    return out


class Tracer:
    """Records spans of calls into the lieindex layers while active."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._saved: list = []

    # -------------------------------------------------------- installing

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        value_of = _VALUES.get(name)
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            value = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, _span_name(name, args), start, end, parent, self._op, value))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        names = public_functions(self.package)
        wrappers = {}
        for owner, attr, original in bindings(self.package):
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                layer = owner.__module__.rsplit(".", 1)[1]
                stem = METHODS[(layer, owner.__name__, attr)]
                setattr(owner, attr, classmethod(self._wrap(f"{layer}.{stem}", original.__func__)))
                continue
            if original not in wrappers:
                wrappers[original] = self._wrap(names[original], original)
            setattr(owner, attr, wrappers[original])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -------------------------------------------------------- recording

    @contextmanager
    def op(self, op_id: int):
        """Context for one op: its root span parents every call made in it."""
        span_id = self._next_id
        self._next_id += 1
        self._op = op_id
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, ROOT, start, end, -1, op_id, None))
            self._op = -1


def summarize(spans: list, errors: dict) -> dict:
    """Totals over a run: self and inclusive seconds and calls per span name,
    the ratios, the pivot count and the op count.

    Self time is a span's duration minus the time its child spans cover;
    the calls are nested and single-threaded, so children never overlap.
    Calls made outside an op, such as the untimed witness check, are left
    out.
    """
    spans = [span for span in spans if span[5] >= 0]
    by_id = {span[0]: span for span in spans}
    covered = dict.fromkeys(by_id, 0.0)
    for span_id, name, t0, t1, parent, op, value in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    table: dict[str, dict] = {}
    ops = 0
    for span_id, name, t0, t1, parent, op, value in spans:
        ops += name == ROOT
        row = table.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        row["self_s"] += t1 - t0 - covered[span_id]
        row["incl_s"] += t1 - t0
        row["calls"] += 1

    def nearest(span_id: int, name: str):
        parent = by_id[span_id][4]
        while parent >= 0 and by_id[parent][1] != name:
            parent = by_id[parent][4]
        return by_id.get(parent)

    trials = trials_at_max = samples = sampling_hits = pivots = 0
    for span_id, name, t0, t1, parent, op, value in spans:
        if name == "linalg.rank_mod_p":
            top = nearest(span_id, "index.index")
            if top is not None and top[6] is not None:
                trials += 1
                trials_at_max += value == top[6]
        elif name == "linalg.rank" and parent >= 0:
            caller = by_id[parent]
            if caller[1] == "index.index_by_sampling" and caller[6] is not None:
                samples += 1
                sampling_hits += value == caller[6]
        elif name == "polynomials.bareiss_rank" and value is not None:
            pivots += value
    return {
        "ops": ops,
        "table": table,
        "errors": dict(errors),
        "trials": trials,
        "trials_at_max": trials_at_max,
        "samples": samples,
        "sampling_hits": sampling_hits,
        "bareiss_pivots": pivots,
    }
