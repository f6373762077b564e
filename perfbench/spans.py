"""Per-layer spans and counts, recorded from the benchmark's own files.

:func:`install` wraps the public functions of each layer of the
program — named after the modules they live in — in spans, and taps
the program's own counters. Nothing in ``src/`` changes: functions are
replaced by wrappers at every place a loaded ``repro`` module binds
them, and counter attributes are replaced by class-level descriptors
that add each increment to the trace.

A span records its name, start, end and the span that caused it. Spans
are kept in memory and written out when the traced run ends
(:meth:`Tracer.dump`). A layer's *self time* is its span's duration
minus the time its child spans cover; with one thread the children are
strictly nested, so that is the duration minus the sum of the direct
children's durations.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Span names whose self time the traced run reports (metric = name + "_s").
SPAN_NAMES = (
    "cli.main",
    "experiments.figure",
    "datasets.sizes",
    "sweep.run",
    "sweep.key",
    "sweep.cache_get",
    "sweep.cache_put",
    "sim.context",
    "core.permutation",
    "sim.prepare",
    "core.placement",
    "sim.plan",
    "sim.tile",
    "sim.classes_of",
    "perfmodel.resolve_fetch",
    "sim.noise",
    "sim.rng",
    "sim.execute",
    "sim.kernels",
    "sim.lockstep",
)

#: Spans whose call count is reported too (metric = name + "_calls").
CALL_COUNTED = ("sweep.cache_get", "sweep.cache_put", "sim.classes_of")

#: Exact counts recorded per workload (metric = "count." + name).
COUNT_NAMES = (
    "cells_simulated",
    "cells_unsupported",
    "cache_hits",
    "cache_misses",
    "simulators",
    "contexts",
    "perm_builds",
    "gen_derived",
    "gen_cloned",
    "plan_hits",
    "plan_misses",
    "samples_simulated",
)


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: (name, start, end, parent id or -1, id), in completion order.
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: Open spans: [name, start, own index, time covered by children].
        self._stack: list[list] = []
        self._next = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), self._next, 0.0])
        self._next += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, index, covered = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((name, start, end, parent[2] if parent is not None else -1, index))
        self.self_s[name] += duration - covered
        self.calls[name] += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(self, fn, name: str):
        """``fn`` inside a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def metrics(self) -> dict[str, float]:
        """Self times, call counts and exact counts, by metric name."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = self.self_s.get(name, 0.0)
        for name in CALL_COUNTED:
            out[f"{name}_calls"] = self.calls.get(name, 0)
        out["sweep.cache_put_bytes"] = self.counts.get("cache_put_bytes", 0)
        for name in COUNT_NAMES:
            out[f"count.{name}"] = self.counts.get(name, 0)
        return out

    def dump(self, path: Path) -> None:
        """Write every span (name, start, end, parent, id) and the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p, "id": i}
                for n, s, e, p, i in sorted(self.spans, key=lambda x: x[4])
            ],
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))


class _CounterTap:
    """Class-level descriptor forwarding increments of a counter attribute.

    The instance keeps its value in ``__dict__`` as before; every
    assignment adds the increase to the tracer's ``count``.
    """

    def __init__(self, tracer: Tracer, attr: str, count: str) -> None:
        self.tracer, self.attr, self.count = tracer, attr, count

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.attr, 0)

    def __set__(self, obj, value) -> None:
        old = obj.__dict__.get(self.attr, 0)
        if value > old:
            self.tracer.count(self.count, value - old)
        obj.__dict__[self.attr] = value


def _rebind(original, replacement) -> int:
    """Point every loaded ``repro`` module's binding of ``original`` at ``replacement``."""
    n = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    if n == 0:
        raise RuntimeError(f"no repro module binds {original!r}")
    return n


def _wrap_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def load_program() -> None:
    """Import every module whose functions :func:`install` wraps."""
    import repro.api  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.core.plan  # noqa: F401
    import repro.experiments.artifacts  # noqa: F401
    import repro.experiments.paper  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.sweep.cli  # noqa: F401
    import repro.sweep.runner  # noqa: F401


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions and tap its counters."""
    load_program()
    import repro.cli
    import repro.core.plan as core_plan
    import repro.experiments.paper as paper
    import repro.perfmodel as perfmodel
    import repro.sim.backends as sim_backends
    import repro.sim.engine as engine
    import repro.sim.lockstep as lockstep
    import repro.sim.noise as noise
    import repro.sweep.cache as cache
    from repro.core.shuffle import EpochShuffler
    from repro.datasets.model import DatasetModel
    from repro.rng import GeneratorStateCache
    from repro.sim.context import ScenarioContext
    from repro.sim.plancache import PlanCache
    from repro.sim.policies.base import Policy, WorkerLookup
    from repro.sweep.backends import InMemoryBackend, LocalDirBackend
    from repro.sweep.events import CellFinished, CellUnsupported, ProgressBus
    from repro.sweep.runner import SweepRunner

    # Module-level functions, wherever they are bound.
    for fn, name in (
        (repro.cli.main, "cli.main"),
        (cache.cell_key, "sweep.key"),
        (cache.cell_key_from_dict, "sweep.key"),
        (cache.code_fingerprint, "sweep.key"),
        (core_plan.frequency_placement_sparse, "core.placement"),
        (perfmodel.resolve_fetch, "perfmodel.resolve_fetch"),
        (noise.apply_noise_matrix, "sim.noise"),
        (lockstep.lockstep_epoch, "sim.lockstep"),
    ):
        _rebind(fn, tracer.wrap(fn, name))

    # Figures: each FigureSpec.build, around its sweep. The public
    # FigureSpec name is rebound to a factory whose specs wrap ``build``.
    figure_spec = paper.FigureSpec

    def traced_spec(*args, **kwargs):
        spec = figure_spec(*args, **kwargs)
        return dataclasses.replace(spec, build=tracer.wrap(spec.build, "experiments.figure"))

    _rebind(figure_spec, traced_spec)

    # Kernel bundles: every callable field of a resolved bundle.
    original_resolve = sim_backends.resolve_kernel_backend
    wrapped_bundles: dict[int, tuple] = {}

    def traced_resolve(spec):
        bundle = original_resolve(spec)
        if any(bundle is traced for _, traced in wrapped_bundles.values()):
            return bundle
        if id(bundle) not in wrapped_bundles:
            fields = {
                f.name: tracer.wrap(getattr(bundle, f.name), "sim.kernels")
                for f in dataclasses.fields(bundle)
                if callable(getattr(bundle, f.name))
            }
            wrapped_bundles[id(bundle)] = (bundle, dataclasses.replace(bundle, **fields))
        return wrapped_bundles[id(bundle)][1]

    _rebind(original_resolve, traced_resolve)

    # Methods.
    for cls, attr, name in (
        (DatasetModel, "sizes_mb", "datasets.sizes"),
        (SweepRunner, "run", "sweep.run"),
        (cache.ResultCache, "get", "sweep.cache_get"),
        (cache.ResultCache, "put", "sweep.cache_put"),
        (EpochShuffler, "permutation", "core.permutation"),
        (engine.Simulator, "plan_epoch", "sim.plan"),
        (engine.EpochPlan, "tile", "sim.tile"),
        (WorkerLookup, "classes_of", "sim.classes_of"),
        (PlanCache, "noise_generators", "sim.rng"),
    ):
        _wrap_method(tracer, cls, attr, name)
    for cls in (Policy, *_subclasses(Policy)):
        if "prepare" in cls.__dict__:
            _wrap_method(tracer, cls, "prepare", "sim.prepare")

    context_init = ScenarioContext.__init__

    def traced_context_init(self, *args, **kwargs):
        tracer.count("contexts")
        return context_init(self, *args, **kwargs)

    ScenarioContext.__init__ = tracer.wrap(traced_context_init, "sim.context")

    simulator_init = engine.Simulator.__init__

    def counted_simulator_init(self, *args, **kwargs):
        tracer.count("simulators")
        return simulator_init(self, *args, **kwargs)

    engine.Simulator.__init__ = functools.wraps(simulator_init)(counted_simulator_init)

    execute = engine.Simulator.execute_epoch

    def counted_execute(self, policy, prep, plan):
        tracer.count("samples_simulated", int(plan.ids.size))
        return execute(self, policy, prep, plan)

    engine.Simulator.execute_epoch = tracer.wrap(
        functools.wraps(execute)(counted_execute), "sim.execute"
    )

    run = SweepRunner.run

    def counted_run(self, *args, **kwargs):
        outcome = run(self, *args, **kwargs)
        tracer.count("cache_hits", outcome.stats.hits)
        tracer.count("cache_misses", outcome.stats.misses)
        return outcome

    SweepRunner.run = functools.wraps(run)(counted_run)

    emit = ProgressBus.emit

    def counted_emit(self, event):
        if isinstance(event, CellFinished):
            tracer.count("cells_simulated")
        elif isinstance(event, CellUnsupported):
            tracer.count("cells_unsupported")
        return emit(self, event)

    ProgressBus.emit = functools.wraps(emit)(counted_emit)

    for backend in (LocalDirBackend, InMemoryBackend):
        write = backend.write

        def counted_write(self, key, text, *args, _write=write, **kwargs):
            tracer.count("cache_put_bytes", len(text.encode("utf-8")))
            return _write(self, key, text, *args, **kwargs)

        backend.write = functools.wraps(write)(counted_write)

    for cls, attr, count in (
        (ScenarioContext, "perm_builds", "perm_builds"),
        (GeneratorStateCache, "derived", "gen_derived"),
        (GeneratorStateCache, "cloned", "gen_cloned"),
        (PlanCache, "hits", "plan_hits"),
        (PlanCache, "misses", "plan_misses"),
    ):
        setattr(cls, attr, _CounterTap(tracer, attr, count))
