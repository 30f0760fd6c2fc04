"""In-memory span tracing of hsvar, installed from outside the package.

A :class:`Tracer` replaces selected hsvar functions by wrappers that record
one span per call: name, start, end, parent span, and whether the call
raised.  A function is replaced under every name it is reachable by inside
the package (``hsvar.solvers.project`` and ``hsvar.nehari.project`` alike),
so calls across module boundaries and calls within a module are both seen.
Methods are replaced on their class.  Nothing in ``src/`` is edited, and
:meth:`Tracer.uninstall` restores every original object.

Spans stay in per-thread lists until :meth:`Tracer.take` collects them;
:func:`aggregate` turns them into call counts, inclusive time and self time
(duration minus the time covered by direct child spans of the same thread).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, span name).  Span names are "<layer>.<function>",
# the layer being the hsvar module that defines the function.
TARGETS = (
    ("grid", "build_grid", "grid.build_grid"),
    ("closed_forms", "exact_solution", "closed_forms.exact_solution"),
    ("closed_forms", "critical_level", "closed_forms.critical_level"),
    ("closed_forms", "separability_check", "closed_forms.separability_check"),
    ("energy", "_terms", "energy._terms"),
    ("energy", "pair_norm_sq", "energy.pair_norm_sq"),
    ("energy", "energy_positive", "energy.energy_positive"),
    ("energy", "energy", "energy.energy"),
    ("energy", "gradient_coefficients", "energy.gradient_coefficients"),
    ("energy", "nehari_residual", "energy.nehari_residual"),
    ("nehari", "project", "nehari.project"),
    ("nehari", "project_decoupled", "nehari.project_decoupled"),
    ("operators", "LambdaOperator.__init__", "operators.LambdaOperator.factor"),
    ("operators", "LambdaOperator.solve", "operators.LambdaOperator.solve"),
    ("operators", "PairMetric.direction", "operators.PairMetric.direction"),
    ("solvers", "ground_state", "solvers.ground_state"),
    ("solvers", "_descend", "solvers._descend"),
    ("solvers", "escalate_nu", "solvers.escalate_nu"),
    ("solvers", "mountain_pass", "solvers.mountain_pass"),
    ("solvers", "_redistribute", "solvers._redistribute"),
    ("solvers", "_pair_grad_norm", "solvers._pair_grad_norm"),
    ("solvers", "semitrivial_probe", "solvers.semitrivial_probe"),
    ("solvers", "classification_flip", "solvers.classification_flip"),
    ("regimes", "classify", "regimes.classify"),
    ("regimes", "algebraic_inf", "regimes.algebraic_inf"),
    ("cli", "run_command", "cli.run_command"),
)

LAYERS = ("grid", "closed_forms", "energy", "nehari", "operators", "solvers",
          "regimes", "cli")


class _ThreadRecord:
    __slots__ = ("generation", "spans", "stack")

    def __init__(self, generation: int):
        self.generation = generation
        self.spans = []
        self.stack = []


class Tracer:
    """Wraps hsvar functions and records their spans in memory."""

    def __init__(self, package):
        self.package = package
        self.names = []            # span name by id
        self.missing = []          # targets absent from this hsvar version
        self._patches = []         # (owner, attribute, original, wrapper)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._records = []         # (thread name, _ThreadRecord)
        self._plan = self._resolve()

    def _resolve(self):
        """Find each target and every package attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package.__name__
                                         or n.startswith(self.package.__name__ + "."))]
        plan = []
        for mod_name, path, span_name in TARGETS:
            module = sys.modules.get(f"{self.package.__name__}.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(span_name)
                continue
            span_id = len(self.names)
            self.names.append(span_name)
            if owner_name:
                sites = [(owner, attr)]
            else:
                sites = [(m, a) for m in modules for a, v in vars(m).items()
                         if v is original]
            plan.append((span_id, original, sites))
        return plan

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None or rec.generation != self._generation:
            rec = _ThreadRecord(self._generation)
            self._local.rec = rec
            with self._lock:
                self._records.append((threading.current_thread().name, rec))
        return rec

    def _wrap(self, span_id: int, fn):
        clock = time.perf_counter_ns
        record = self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = record()
            stack = rec.stack
            span = [span_id, clock(), 0, stack[-1] if stack else -1, False]
            rec.spans.append(span)
            stack.append(len(rec.spans) - 1)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        if self._patches:
            return
        for span_id, original, sites in self._plan:
            wrapper = self._wrap(span_id, original)
            for owner, attr in sites:
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list:
        """Return the spans recorded so far as (thread, spans) and start afresh."""
        with self._lock:
            out = [(name, rec.spans) for name, rec in self._records]
            self._records = []
            self._generation += 1
        return out


@dataclass
class Stats:
    calls: int = 0
    raised: int = 0
    incl_ns: int = 0
    self_ns: int = 0


@dataclass
class Aggregate:
    by_name: dict = field(default_factory=dict)       # span name -> Stats
    by_edge: dict = field(default_factory=dict)       # (parent, child) -> calls

    def get(self, name: str) -> Stats:
        return self.by_name.get(name, Stats())


def aggregate(names: list, threads: list) -> Aggregate:
    """Counts, inclusive and self time per span name; calls per parent edge."""
    agg = Aggregate()
    for _, spans in threads:
        child_ns = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for i, (sid, start, end, parent, raised) in enumerate(spans):
            name = names[sid]
            st = agg.by_name.setdefault(name, Stats())
            st.calls += 1
            st.raised += raised
            st.incl_ns += end - start
            st.self_ns += end - start - child_ns[i]
            edge = (names[spans[parent][0]] if parent >= 0 else None, name)
            agg.by_edge[edge] = agg.by_edge.get(edge, 0) + 1
    return agg


def write_spans(path, names: list, phases: dict) -> None:
    """Write spans as JSON: per phase, per thread, [name id, start ns, end ns,
    parent index, raised]."""
    doc = {"names": names,
           "phases": {phase: [{"thread": t, "spans": spans} for t, spans in threads]
                      for phase, threads in phases.items()}}
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
