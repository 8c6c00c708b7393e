"""Span tracing of the ``sponges`` modules from outside the program.

`Tracer.installed()` wraps the public functions and constructors listed in
TRACED.  Each name is rebound in its defining module and in every
``sponges`` module that imported it (so ``complexes.smith_diagonal`` is the
wrapper too), and restored on exit.  Each call records a span: id, parent
span id, name, start and end (perf_counter nanoseconds) and the pass id.
Spans stay in memory until the caller writes them out.

A span's self time is its duration minus the time its child spans cover.
Work the tracer does for its own counters runs in spans named
``trace.observe``, so it is charged to ``trace`` and not to the layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, qualified name) of every traced function or constructor.
TRACED = (
    ("cli", "cli_dispatch"),
    ("cli", "parse_sponge"),
    ("exactalg", "IntegerMatrix.__init__"),
    ("exactalg", "smith_diagonal"),
    ("exactalg", "smith_normal_form"),
    ("complexes", "IntegerChainComplex.__init__"),
    ("complexes", "homology"),
    ("complexes", "cohomology"),
    ("complexes", "RationalHomologyBasis.__init__"),
    ("complexes", "induced_map_on_homology"),
    ("cosheaf", "build_cosheaf"),
    ("cosheaf", "cosheaf_homology"),
    ("cosheaf", "dihomology_check"),
    ("poset", "check_cohen_macaulay"),
    ("poset", "SimplicialComplex.__init__"),
    ("poset", "SimplicialComplex.link"),
    ("poset", "SimplicialComplex.chain_complex"),
    ("poset", "order_complex"),
    ("poset", "GradedPoset.elements_of_rank"),
    ("sponge", "validate_sponge"),
    ("sponge", "cellular_complex"),
    ("sponge", "check_acyclic"),
    ("generators", "enumerate_connected_cubic"),
    ("generators", "graph_sponge"),
    ("search", "scan"),
    ("search", "scan_fvector_space"),
    ("search", "classify_sponge"),
    ("enumerative", "hvector_of"),
    ("enumerative", "b_from_euler"),
)

MODULES = ("cli", "generators", "search", "enumerative", "cosheaf", "sponge",
           "poset", "complexes", "exactalg", "trace")

OBSERVE = "trace.observe"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.replace('__init__', 'init')}"


SPAN_NAMES = tuple(span_name(m, q) for m, q in TRACED)


class Tracer:
    """Records spans of the traced names while installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int, int]] = []
        self.pass_id = 0
        self._stack: list[int] = []
        # Per pass: exactalg nonzeros, cells, diagonal entries and unit
        # entries seen by Smith calls, and cubic classes enumerated.
        self.counters: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def _wrap(self, name: str, fn, observe=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = len(spans) + len(stack)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.pass_id))
            if observe is not None:
                self._observe(parent, observe, args, result)
            return result

        return traced

    def _observe(self, parent, observe, args, result) -> None:
        start = time.perf_counter_ns()
        observe(self.counters[self.pass_id], args, result)
        end = time.perf_counter_ns()
        self.spans.append((len(self.spans) + len(self._stack), parent, OBSERVE,
                           start, end, self.pass_id))

    @contextmanager
    def installed(self):
        """Wrap every TRACED name for the duration of the block."""
        for module, _ in TRACED:
            importlib.import_module(f"sponges.{module}")
        mods = [m for name, m in sys.modules.items()
                if name == "sponges" or name.startswith("sponges.")]
        undo = []
        try:
            for module, qualname in TRACED:
                defining = sys.modules[f"sponges.{module}"]
                name = span_name(module, qualname)
                observe = _OBSERVERS.get(name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(defining, cls_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(name, original, observe))
                    undo.append((owner, attr, original))
                    continue
                original = getattr(defining, qualname)
                wrapper = self._wrap(name, original, observe)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _observe_smith(counters, args, result) -> None:
    m = args[0]
    diagonal = getattr(result, "diagonal", result)
    counters["snf_cells"] += m.rows * m.cols
    counters["snf_nnz"] += sum(1 for _ in m.nonzero_items())
    counters["snf_diagonal"] += len(diagonal)
    counters["snf_units"] += sum(1 for d in diagonal if d == 1)


def _observe_cubic(counters, args, result) -> None:
    counters["cubic_classes"] += len(result)


_OBSERVERS = {
    "exactalg.smith_diagonal": _observe_smith,
    "exactalg.smith_normal_form": _observe_smith,
    "generators.enumerate_connected_cubic": _observe_cubic,
}


# ---------------------------------------------------------------------------
# reduction


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def reduce_spans(spans, wall_ns: int) -> dict:
    """Per-name calls and self time, per-module self time, and time outside.

    ``spans`` are (id, parent, name, start, end, pass) tuples of one pass;
    ``wall_ns`` is that pass's wall time.  All times are integer nanoseconds,
    so sum(module self) + outside == wall_ns exactly whenever the spans nest
    inside the pass.
    """
    children: dict[int | None, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    module_ns: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, _ in spans:
        own = (end - start) - _covered(children.get(sid, []))
        calls[name] += 1
        self_ns[name] += own
        module_ns[name.split(".", 1)[0]] += own
    return {
        "calls": dict(calls),
        "self_ns": dict(self_ns),
        "module_self_ns": dict(module_ns),
        "outside_ns": wall_ns - _covered(children.get(None, [])),
    }


def count_under(spans, name: str, ancestor: str) -> tuple[int, int]:
    """Calls of ``name`` that run inside an ``ancestor`` span, and their self time."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    calls = self_ns = 0
    for sid, parent, span, start, end, _ in spans:
        if span != name:
            continue
        while parent is not None and by_id[parent][2] != ancestor:
            parent = by_id[parent][1]
        if parent is not None:
            calls += 1
            self_ns += (end - start) - _covered(children.get(sid, []))
    return calls, self_ns
