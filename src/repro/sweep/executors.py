"""Pluggable sweep execution: the :class:`Executor` protocol.

:class:`~repro.sweep.runner.SweepRunner` does not hard-wire *how*
cache misses get simulated — it hands the pending cells to an executor
and records whatever comes back. Every executor simulates through one
function, :func:`_simulate`: given a scenario's
:class:`~repro.sim.engine.Simulator` and a list of ``(index, policy)``
cells, it runs them through the engine's epoch-major
:meth:`~repro.sim.engine.Simulator.run_many_outcomes`, re-runs a
crashed batch one cell at a time, and returns the finished cells plus
the failure, if any. Three executors differ only in where that
function runs and what each call gets:

``serial`` (:class:`SerialExecutor`)
    In-process — easiest to debug/profile. Runs one scenario batch at
    a time on a ``Simulator`` built from the batch's live config,
    keeping only the *current* scenario's streams alive.

``process`` (:class:`ProcessExecutor`)
    One cell per :class:`~concurrent.futures.ProcessPoolExecutor`
    task. Every cell pays a fresh ``Simulator``, but it is the only
    executor that spreads one scenario's cells over several workers.

``batched`` (:class:`BatchedExecutor`) — **the default when
``n_jobs > 1``**
    Sends each worker one whole scenario batch. The worker rebuilds
    one ``Simulator`` and runs all of that scenario's cells.

``serial`` and ``batched`` share one grouping rule,
:func:`_scenario_batches`: cells are batched by their scenario
fingerprint (the canonical serialized config, seed included — the seed
fixes the whole access pattern), so one ``Simulator`` runs all of a
scenario's policies on one set of access streams. Seed replicas of a
scenario are separate batches.

All three produce **bitwise-identical** results: the simulator is
deterministic in the config's seed, and every sharing the engine does
is bitwise neutral. Executors emit typed :mod:`~repro.sweep.events`
progress events (cell started / finished / unsupported) through the
``emit`` callback — always from the sweeping process, never from
workers — and *yield* results as they land, so the runner can memoize
each cell the moment it completes (an interrupted sweep keeps its
finished cells).

Failure contract: a :class:`~repro.errors.PolicyError` is data (an
"unsupported" cell result); any other exception aborts the sweep.
Executors cancel undispatched work, keep draining/yielding the results
that did complete, then raise the first error — so a restart only
re-simulates what truly never ran.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol, Sequence, runtime_checkable

from ..errors import ConfigurationError, PolicyError
from ..sim import Policy, SimulationConfig, Simulator
from .events import CellFinished, CellStarted, CellUnsupported, SweepEvent
from .grid import SweepCell

__all__ = [
    "EXECUTORS",
    "BatchedExecutor",
    "CellResult",
    "CellTask",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "resolve_executor",
]

#: Executor spec names accepted by :func:`resolve_executor` / the CLI.
EXECUTORS = ("serial", "process", "batched")

#: The event sink executors publish progress through.
Emit = Callable[[SweepEvent], None]


@dataclass(frozen=True)
class CellTask:
    """One pending simulation handed to an executor.

    ``config_dict`` is the cell's serialized config, filled by the
    runner (memoized per config object): executors group cells into
    scenarios by it, and out-of-process executors rebuild the config
    from it worker-side.
    """

    index: int
    cell: SweepCell
    config_dict: dict[str, Any]


@dataclass(frozen=True)
class CellResult:
    """One completed simulation, in the wire format the cache stores.

    Either ``result_dict`` (a serialized
    :class:`~repro.sim.result.SimulationResult`) or ``error`` (the
    recorded :class:`~repro.errors.PolicyError` message) is set —
    mirroring :class:`~repro.sweep.cache.CachedOutcome`.
    """

    index: int
    result_dict: dict[str, Any] | None
    error: str | None
    elapsed_s: float = 0.0

    @property
    def supported(self) -> bool:
        """Whether the policy ran on this scenario."""
        return self.result_dict is not None


@runtime_checkable
class Executor(Protocol):
    """How a batch of pending cells gets simulated.

    Implementations yield a :class:`CellResult` per task, in completion
    order, emitting progress events along the way; ``name`` labels the
    strategy in stats and manifests.
    """

    name: str

    def execute(
        self, tasks: Sequence[CellTask], emit: Emit
    ) -> Iterator[CellResult]:
        """Simulate ``tasks``, yielding one result each as it completes."""
        ...


#: One simulated cell in wire form: ``(index, result_dict, error, elapsed)``.
Done = tuple[int, dict[str, Any] | None, str | None, float]


def _simulate(
    sim: Simulator, items: Sequence[tuple[int, Policy]]
) -> tuple[list[Done], Exception | None]:
    """Simulate ``(index, policy)`` cells on one scenario's Simulator.

    The executors' one cell-simulation path. The cells run together
    through the engine's epoch-major
    :meth:`~repro.sim.engine.Simulator.run_many_outcomes`, which shares
    the scenario's permutations, size gathers and noise states across
    policies — bitwise identical to fresh per-cell runs. Every cell
    reports the batch's mean per-cell wall time. Results are serialized
    dicts, the representation the cache stores.

    Returns ``(done, failure)``: on an unexpected error the cells that
    finished *before* it are returned alongside the exception, so the
    caller can memoize them before re-raising. A batch that crashes
    re-runs its cells one at a time — determinism makes the re-run
    bitwise free — so a crash loses only the crashing cell's work.
    """
    done: list[Done] = []
    start = time.perf_counter()
    try:
        outcomes = sim.run_many_outcomes([policy for _, policy in items])
    except Exception as exc:  # noqa: BLE001 - recover per cell, then report
        if len(items) > 1:
            for item in items:
                cell_done, failure = _simulate(sim, [item])
                done.extend(cell_done)
                if failure is not None:
                    return done, failure
        return done, exc
    elapsed = (time.perf_counter() - start) / len(items)
    for (index, _), outcome in zip(items, outcomes):
        if isinstance(outcome, PolicyError):
            done.append((index, None, str(outcome), elapsed))
        else:
            done.append((index, outcome.to_dict(), None, elapsed))
    return done, None


def _simulate_payload(
    payload: tuple[dict[str, Any], list[tuple[int, Policy]]],
) -> tuple[list[Done], Exception | None]:
    """The pool entry: rebuild the config, then :func:`_simulate` (picklable)."""
    config_dict, items = payload
    return _simulate(Simulator(SimulationConfig.from_dict(config_dict)), items)


def _scenario_batches(tasks: Sequence[CellTask]) -> list[list[CellTask]]:
    """Batches of tasks sharing one scenario, in first-seen order.

    The key is the canonical JSON of the whole config dict, seed
    included: equal-but-distinct config objects share one batch, while
    seed replicas of one scenario are separate batches. The JSON is
    built once per config *object* (kept alive by its cell, so ids
    cannot be recycled mid-loop).
    """
    group_keys: dict[int, str] = {}  # id(cell.config) -> canonical JSON
    batches: dict[str, list[CellTask]] = {}
    for task in tasks:
        config_id = id(task.cell.config)
        group_key = group_keys.get(config_id)
        if group_key is None:
            group_key = group_keys[config_id] = json.dumps(
                task.config_dict, sort_keys=True, separators=(",", ":")
            )
        batches.setdefault(group_key, []).append(task)
    return list(batches.values())


def _cell_result(done: Done, task: CellTask, emit: Emit) -> CellResult:
    """One finished cell as a CellResult, its completion event emitted."""
    index, result_dict, error, elapsed = done
    result = CellResult(
        index=index, result_dict=result_dict, error=error, elapsed_s=elapsed
    )
    if result.supported:
        emit(CellFinished(tag=task.cell.tag, index=index, elapsed_s=elapsed))
    else:
        emit(CellUnsupported(tag=task.cell.tag, index=index, error=error or ""))
    return result


class SerialExecutor:
    """In-process execution with per-scenario Simulator reuse.

    Every scenario batch (:func:`_scenario_batches` — e.g. Fig 8's
    nine policies on one scenario) shares one Simulator and runs
    together through :func:`_simulate`, so the scenario's permutations,
    size gathers and noise RNG states are materialized once per epoch
    for the whole batch. The batch's first live ``cell.config`` is
    simulated directly (never round-tripped through its dict), so
    memoized per-instance state such as the dataset's size table
    carries over — the seeds of a grid share one table.
    """

    name = "serial"

    def execute(self, tasks: Sequence[CellTask], emit: Emit) -> Iterator[CellResult]:
        """Simulate scenario by scenario, yielding results as they finish."""
        # Only the *current* batch's Simulator is alive: retaining every
        # scenario's streams would balloon peak memory on many-config
        # sweeps.
        for batch in _scenario_batches(tasks):
            sim = Simulator(batch[0].cell.config)
            for task in batch:
                emit(CellStarted(tag=task.cell.tag, index=task.index))
            done, failure = _simulate(sim, [(t.index, t.cell.policy) for t in batch])
            by_index = {task.index: task for task in batch}
            for cell in done:
                yield _cell_result(cell, by_index[cell[0]], emit)
            if failure is not None:
                raise failure


class _PoolExecutorBase:
    """Shared pool plumbing: one :func:`_simulate` task per batch."""

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ConfigurationError("executor max_workers must be >= 1")
        self.max_workers = int(max_workers)

    @staticmethod
    def group(tasks: Sequence[CellTask]) -> list[list[CellTask]]:
        """How ``tasks`` split into pool tasks (each one Simulator)."""
        raise NotImplementedError

    def execute(self, tasks: Sequence[CellTask], emit: Emit) -> Iterator[CellResult]:
        """Fan one pool task out per batch; yield per cell as they land."""
        if len(tasks) == 1:
            # A lone cell (Session.run, a warm sweep's single miss) is
            # not worth a worker process; the serial path shares its
            # semantics and results.
            yield from SerialExecutor().execute(tasks, emit)
            return
        batches = self.group(tasks)
        workers = max(1, min(self.max_workers, len(batches)))
        by_index = {task.index: task for task in tasks}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures: dict = {}
            for batch in batches:
                payload = (
                    batch[0].config_dict,
                    [(t.index, t.cell.policy) for t in batch],
                )
                futures[pool.submit(_simulate_payload, payload)] = batch
                for task in batch:
                    emit(CellStarted(tag=task.cell.tag, index=task.index))

            def handle(payload) -> Iterator[CellResult]:
                done, failure = payload
                for cell in done:
                    yield _cell_result(cell, by_index[cell[0]], emit)
                if failure is not None:
                    raise failure

            yield from self._drain(futures, handle)

    def _drain(self, futures: dict, handle) -> Iterator[CellResult]:
        """Yield results as futures land; cancel the rest on first failure.

        ``handle(future.result())`` turns one future's payload into
        CellResults (or raises what the worker shipped). Memoization
        happens caller-side per yielded result, so cells completed
        before an unexpected failure survive a restart.
        """
        first_error: BaseException | None = None
        for future in as_completed(futures):
            try:
                payload = future.result()
            except BaseException as exc:  # noqa: BLE001 - deferred re-raise below
                if first_error is None:
                    first_error = exc
                    for other in futures:
                        other.cancel()
                continue
            try:
                yield from handle(payload)
            except GeneratorExit:
                # The consumer closed us mid-drain (it raised between
                # results); cancel what we can and let close() proceed.
                for other in futures:
                    other.cancel()
                raise
            except BaseException as exc:  # noqa: BLE001 - worker-shipped failure
                if first_error is None:
                    first_error = exc
                    for other in futures:
                        other.cancel()
        if first_error is not None:
            raise first_error


class ProcessExecutor(_PoolExecutorBase):
    """One cell per pool task: spreads even one scenario over workers."""

    name = "process"

    @staticmethod
    def group(tasks: Sequence[CellTask]) -> list[list[CellTask]]:
        """Every cell on its own."""
        return [[task] for task in tasks]


class BatchedExecutor(_PoolExecutorBase):
    """Scenario-batched dispatch: one Simulator per scenario per worker.

    Each :func:`_scenario_batches` batch is one pool task: the worker
    rebuilds the scenario's ``Simulator`` once and runs every policy
    cell in the batch through :func:`_simulate`.
    """

    name = "batched"
    group = staticmethod(_scenario_batches)


def resolve_executor(spec: "str | Executor | None", n_jobs: int) -> Executor:
    """Normalize an executor naming to a live instance.

    ``None`` picks the default for the worker count: ``serial`` when
    ``n_jobs == 1`` (in-process, debuggable, stream-reusing), else
    ``batched`` (the parallel path that keeps the stream reuse).
    Strings name the built-ins; anything implementing the protocol
    passes through — the seam a distributed executor plugs into.
    """
    if spec is None:
        spec = "serial" if n_jobs == 1 else "batched"
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor()
        if spec == "process":
            return ProcessExecutor(n_jobs)
        if spec == "batched":
            return BatchedExecutor(n_jobs)
        raise ConfigurationError(
            f"unknown executor {spec!r}; known: {', '.join(EXECUTORS)}"
        )
    if isinstance(spec, Executor):
        return spec
    raise ConfigurationError(
        f"cannot interpret {type(spec).__name__!r} as a sweep executor"
    )
