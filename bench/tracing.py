"""Outside-in tracing of the gumbeltail layers.

Nothing under ``src/`` knows about this module. ``install`` replaces the
callables each layer looks up as a module attribute at call time with timed
wrappers, and swaps in traced ``RngSpec``/``TailModel`` subclasses where the
package constructs those objects by global name; ``uninstall`` puts every
original back. The replaced attributes are:

* cli: ``build_parser``, ``open`` (shadows the builtin, counts input bytes),
  ``get_model``, ``norming``, ``lambda_ratio``, ``select_k``,
  ``SortedSample``, ``de_haan_resnick``, ``hill``, ``classify``;
* engine: ``run_replicates``, ``RngSpec``, ``norming``, ``select_k``,
  ``ks_distance``, ``summarize``, ``write_replicates_csv``,
  ``reproduce_table``;
* models: ``TailModel`` (traced ``quantile`` field and ``sf`` method),
  ``rho_numeric``, ``mean_excess_R``, ``normal_sf``;
* normal: ``normal_ppf``;
* estimators / select: ``select_k``, ``de_haan_resnick``.

Spans nest on one stack. A span's self time is its duration minus the
durations of its direct children; inclusive time is summed only over the
outermost span of a name, so recursion through wrapped models (the log
transform calls its base quantile) is not counted twice. Every figure is
kept per cell, the label of the operation being run, so that cells can be
left out of the totals and shares can be read per cell.
"""

from __future__ import annotations

import dataclasses
import os
from collections import defaultdict
from time import perf_counter_ns

_MISSING = object()


class _Stat:
    __slots__ = ("calls", "outer_calls", "incl_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0
        self.incl_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span and counter store, keyed by (cell, name)."""

    def __init__(self):
        self.cell = None
        self._stack = []  # [name, child_ns] frames
        self.stats = defaultdict(_Stat)
        self.counts = defaultdict(int)

    def count(self, name: str, value: int) -> None:
        self.counts[(self.cell, name)] += value

    def wrap(self, name: str, fn):
        """fn with a span named name around every call."""
        stack = self._stack
        stats = self.stats

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                st = stats[(self.cell, name)]
                st.calls += 1
                st.self_ns += dt - frame[1]
                if not any(f[0] == name for f in stack):
                    st.outer_calls += 1
                    st.incl_ns += dt
                if stack:
                    stack[-1][1] += dt

        traced.traced_name = name
        return traced

    # -- aggregation over a set of cells

    def total(self, name: str, cells) -> _Stat:
        out = _Stat()
        for (cell, key), st in self.stats.items():
            if key == name and cell in cells:
                out.calls += st.calls
                out.outer_calls += st.outer_calls
                out.incl_ns += st.incl_ns
                out.self_ns += st.self_ns
        return out

    def counted(self, name: str, cells) -> int:
        return sum(v for (cell, key), v in self.counts.items() if key == name and cell in cells)

    def snapshot(self, cells) -> dict:
        """Every span and counter summed over cells, as plain numbers."""
        names = {key for (cell, key) in self.stats if cell in cells}
        spans = {}
        for name in sorted(names):
            st = self.total(name, cells)
            spans[name] = {"calls": st.calls, "outer_calls": st.outer_calls,
                           "incl_ns": st.incl_ns, "self_ns": st.self_ns}
        counters = {key for (cell, key) in self.counts if cell in cells}
        return {"spans": spans,
                "counts": {name: self.counted(name, cells) for name in sorted(counters)}}


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the uniforms it is asked for."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def integers(self, low, high=None, size=None, *args, **kwargs):
        self._tracer.count("engine.uniforms_drawn", int(size) if size is not None else 1)
        return self._gen.integers(low, high, size, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _traced_rng_spec(tracer: Tracer, base):
    seed_span = tracer.wrap("engine.seed", base.generator)

    @dataclasses.dataclass(frozen=True)
    class TracedRngSpec(base):
        def generator(self):
            return _CountingGenerator(seed_span(self), tracer)

    return TracedRngSpec


def _traced_tail_model(tracer: Tracer, base):
    @dataclasses.dataclass(frozen=True)
    class TracedTailModel(base):
        def __post_init__(self):
            # dataclasses.replace passes an already traced quantile back in
            if getattr(self.quantile, "traced_name", None) is None:
                object.__setattr__(self, "quantile", tracer.wrap("models.quantile", self.quantile))

        sf = tracer.wrap("models.sf", base.sf)

    return TracedTailModel


def _traced_sorted_sample(tracer: Tracer, base):
    from_values = tracer.wrap("estimators.SortedSample.from_values", base.from_values.__func__)

    class TracedSortedSample(base):
        @classmethod
        def from_values(cls, raw):
            return from_values(cls, raw)

    return TracedSortedSample


def _traced_open(tracer: Tracer):
    def traced_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        if "r" in mode:
            tracer.count("cli.input_bytes", os.fstat(fh.fileno()).st_size)
        return fh

    return traced_open


def _traced_run_replicates(tracer: Tracer, fn):
    span = tracer.wrap("engine.run_replicates", fn)

    def run_replicates(model, n, policy, m, *args, **kwargs):
        tracer.count("engine.replicates", int(m))
        return span(model, n, policy, m, *args, **kwargs)

    return run_replicates


def install(tracer: Tracer) -> list:
    """Patch every traced attribute; returns what uninstall needs."""
    from gumbeltail import cli, engine, estimators, models, normal, select

    def span(name):
        fn = getattr({"cli": cli, "engine": engine, "models": models, "normal": normal,
                      "estimators": estimators, "select": select}[name.split(".")[0]],
                     name.split(".")[1])
        return tracer.wrap(name, fn)

    select_k = span("estimators.select_k")
    norming = span("models.norming")
    de_haan_resnick = span("estimators.de_haan_resnick")
    plan = [
        (cli, "build_parser", span("cli.build_parser")),
        (cli, "open", _traced_open(tracer)),
        (cli, "get_model", span("models.get_model")),
        (cli, "norming", norming),
        (cli, "lambda_ratio", span("models.lambda_ratio")),
        (cli, "select_k", select_k),
        (cli, "SortedSample", _traced_sorted_sample(tracer, cli.SortedSample)),
        (cli, "de_haan_resnick", de_haan_resnick),
        (cli, "hill", span("estimators.hill")),
        (cli, "classify", span("select.classify")),
        (engine, "run_replicates", _traced_run_replicates(tracer, engine.run_replicates)),
        (engine, "RngSpec", _traced_rng_spec(tracer, engine.RngSpec)),
        (engine, "norming", norming),
        (engine, "select_k", select_k),
        (engine, "ks_distance", span("engine.ks_distance")),
        (engine, "summarize", span("engine.summarize")),
        (engine, "write_replicates_csv", span("engine.write_replicates_csv")),
        (engine, "reproduce_table", span("engine.reproduce_table")),
        (models, "TailModel", _traced_tail_model(tracer, models.TailModel)),
        (models, "rho_numeric", span("models.rho_numeric")),
        (models, "mean_excess_R", span("models.mean_excess_R")),
        (models, "normal_sf", tracer.wrap("normal.normal_sf", models.normal_sf)),
        (normal, "normal_ppf", span("normal.normal_ppf")),
        (estimators, "select_k", select_k),
        (estimators, "de_haan_resnick", de_haan_resnick),
        (select, "select_k", select_k),
    ]
    saved = []
    for module, attr, replacement in plan:
        saved.append((module, attr, module.__dict__.get(attr, _MISSING)))
        setattr(module, attr, replacement)
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        if original is _MISSING:
            delattr(module, attr)
        else:
            setattr(module, attr, original)
