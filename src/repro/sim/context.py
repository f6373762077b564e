"""Scenario context shared between the engine and the policies.

A :class:`ScenarioContext` wraps one :class:`SimulationConfig` with the
derived objects every policy needs — the clairvoyant access stream, the
materialized sample sizes, per-worker frequency counts — plus caching so
that a nine-policy comparison does not regenerate multi-million-entry
permutations nine times over.

The canonical cached form of an epoch is its *worker-major matrix*
(:meth:`ScenarioContext.epoch_matrix`): an ``(N, L)`` array whose row
``w`` is worker ``w``'s in-order stream for the epoch. The engine's
kernels operate on this matrix directly; the historical ``(T, N, B)``
batch view and per-worker rows are zero-copy views of it.
"""

from __future__ import annotations

import os

import numpy as np

from ..core import AccessStream
from ..errors import ConfigurationError
from ..rng import generator
from .config import SimulationConfig

__all__ = ["ScenarioContext"]

#: Cache epoch permutations only below this total element count
#: (E * F); beyond it they are regenerated on demand to bound memory.
#: Overridable per process via ``REPRO_PERM_CACHE_MAX_ELEMENTS`` (read
#: at :class:`ScenarioContext` construction), so tests and CI can force
#: the cache-disabled streaming path on small scenarios instead of
#: needing N=1024 fixtures.
_PERM_CACHE_MAX_ELEMENTS = 80_000_000

_PERM_CACHE_ENV = "REPRO_PERM_CACHE_MAX_ELEMENTS"


def _perm_cache_max_elements() -> int:
    """The active permutation-cache cap (env override or the default)."""
    raw = os.environ.get(_PERM_CACHE_ENV)
    if raw is None:
        return _PERM_CACHE_MAX_ELEMENTS
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{_PERM_CACHE_ENV} must be an integer element count, got {raw!r}"
        ) from None


class ScenarioContext:
    """Derived state for one simulation scenario.

    Parameters
    ----------
    config:
        The simulation configuration (dataset, system, B, E, seed).
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.stream = AccessStream(config.stream_config)
        self.sizes_mb = config.dataset.sizes_mb()
        self.system = config.system
        #: epoch -> ((T, N, B) batch view, (N, L) worker-major matrix);
        #: both share one buffer, so caching costs one copy per epoch.
        self._epoch_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._cache_enabled = (
            config.num_epochs * config.dataset.num_samples
            <= _perm_cache_max_elements()
        )
        #: Rolling one-epoch slot (:meth:`hold_epoch`) for cache-disabled
        #: scenarios: ``(epoch, views)``, with ``views`` filled on the
        #: first request, or ``None``.
        self._held: tuple[int, tuple[np.ndarray, np.ndarray] | None] | None = None
        #: Epoch permutations actually generated (cache hits and the
        #: held slot don't count) — the sharing proof for epoch-major
        #: ``run_many`` at paper scale, where this must stay at E, not
        #: E x policies.
        self.perm_builds = 0
        self._freq_cache: list[tuple[np.ndarray, np.ndarray]] | None = None

    # -- stream access -----------------------------------------------------

    @property
    def num_workers(self) -> int:
        """``N`` — workers in this scenario."""
        return self.system.num_workers

    @property
    def cache_enabled(self) -> bool:
        """Whether full-epoch permutations may be cached (E*F capped).

        Scenario-level caches (here and in the engine's
        :class:`~repro.sim.plancache.PlanCache`) consult this flag so
        paper-scale scenarios above ``_PERM_CACHE_MAX_ELEMENTS`` never
        pin multi-hundred-MB matrices across epochs.
        """
        return self._cache_enabled

    @property
    def samples_per_worker_per_epoch(self) -> int:
        """``L = T * B`` — per-worker stream length each epoch."""
        return self.config.stream_config.samples_per_worker_per_epoch

    def _epoch_views(self, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """``((T, N, B) batches, (N, L) matrix)`` for ``epoch`` (cached)."""
        cached = self._epoch_cache.get(epoch)
        if cached is not None:
            return cached
        held = self._held is not None and self._held[0] == epoch
        if held and self._held[1] is not None:
            return self._held[1]
        self.perm_builds += 1
        batches = self.stream.epoch_batches(epoch)
        t, n, b = batches.shape
        # Materialize the worker-major matrix once (the engine's layout);
        # re-derive the batch view from its buffer so the cache holds a
        # single copy of the permutation. Read-only: rows/views of the
        # shared cached permutation are handed to policies, and an
        # in-place mutation must raise rather than corrupt every later
        # run on this context.
        owner = np.ascontiguousarray(batches.transpose(1, 0, 2))
        owner.setflags(write=False)
        matrix = owner.reshape(n, t * b)
        views = (matrix.reshape(n, t, b).transpose(1, 0, 2), matrix)
        if self._cache_enabled:
            self._epoch_cache[epoch] = views
        elif held:
            self._held = (epoch, views)
        return views

    def hold_epoch(self, epoch: int) -> None:
        """Pin ``epoch``'s permutation in a rolling single-epoch slot.

        The epoch-major loop (:meth:`~repro.sim.engine.Simulator.run_many_outcomes`)
        calls this at the top of each epoch so every policy's
        :meth:`epoch_matrix` request is served from one materialization
        even when :attr:`cache_enabled` is off — permutations are built
        once per epoch, not once per (policy, epoch). The hold is lazy:
        it records the epoch and drops the previous slot, and the first
        request builds the permutation, so an epoch no policy reads is
        never built. Peak memory stays at ~one epoch's matrices at
        paper scale. A no-op when :attr:`cache_enabled` is on.
        """
        if self._cache_enabled:
            return
        if self._held is None or self._held[0] != epoch:
            self._held = (epoch, None)

    def release_held_epoch(self) -> None:
        """Drop the rolling slot (the epoch-major loop's cleanup)."""
        self._held = None

    @property
    def held_epoch(self) -> int | None:
        """The epoch currently pinned by :meth:`hold_epoch`, if any."""
        return None if self._held is None else self._held[0]

    def epoch_batches(self, epoch: int) -> np.ndarray:
        """``(T, N, B)`` batch view of ``epoch`` (cached when small)."""
        return self._epoch_views(epoch)[0]

    def epoch_matrix(self, epoch: int) -> np.ndarray:
        """``(N, L)`` worker-major ids for ``epoch`` (cached when small).

        Row ``w`` is worker ``w``'s in-order sample ids — the layout the
        engine's array kernels (:mod:`repro.sim.kernels`) consume. One
        materialization replaces the ``N`` per-worker reshape copies the
        scalar engine made per epoch.
        """
        return self._epoch_views(epoch)[1]

    def sizes_matrix(self, epoch: int) -> np.ndarray:
        """``(N, L)`` per-sample sizes (MB) aligned with ``epoch_matrix``.

        Gathered on demand (one fancy-index over the id matrix) rather
        than cached: the float matrix is as large as the id matrix and
        each engine epoch consumes it exactly once.
        """
        return self.sizes_mb[self.epoch_matrix(epoch)]

    def worker_epoch_ids(self, worker: int, epoch: int) -> np.ndarray:
        """Worker ``worker``'s in-order sample ids for ``epoch``.

        A read-only view of the epoch matrix (historically this was a
        fresh copy); callers that want to reorder ids in place should
        copy first — writing to the view raises.
        """
        return self.epoch_matrix(epoch)[worker]

    # -- frequency analysis -------------------------------------------------

    def worker_frequencies_sparse(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-worker ``(accessed_ids, counts)`` over all ``E`` epochs.

        The sparse form keeps memory at O(samples actually accessed per
        worker) instead of O(N * F), which matters at Sec 7 scales
        (N=1024). Built from the epoch matrices — one horizontal stack
        plus one ``np.unique`` per worker row — and cached on the
        context.
        """
        if self._freq_cache is not None:
            return self._freq_cache
        epochs = self.config.num_epochs
        n = self.num_workers
        length = self.samples_per_worker_per_epoch
        first = self.epoch_matrix(0)
        all_ids = np.empty((n, epochs * length), dtype=first.dtype)
        all_ids[:, :length] = first
        for epoch in range(1, epochs):
            all_ids[:, epoch * length : (epoch + 1) * length] = self.epoch_matrix(epoch)
        result = [
            np.unique(all_ids[worker], return_counts=True) for worker in range(n)
        ]
        self._freq_cache = result
        return result

    # -- stream length helpers ----------------------------------------------

    def tiled_epoch_stream(
        self, ids: np.ndarray, worker: int, epoch: int, tag: str
    ) -> np.ndarray:
        """Shuffle ``ids`` deterministically and tile/truncate to ``L``.

        Used by access-order-changing baselines (sharding, DeepIO
        opportunistic): the worker still performs ``T*B`` accesses per
        epoch, drawn (with wraparound) from its private set.
        """
        if ids.size == 0:
            raise ConfigurationError(
                f"worker {worker} has no samples to iterate ({tag})"
            )
        rng = generator(self.config.seed, "policy", tag, worker, epoch)
        shuffled = rng.permutation(ids)
        length = self.samples_per_worker_per_epoch
        if shuffled.size >= length:
            return shuffled[:length]
        reps = -(-length // shuffled.size)
        return np.tile(shuffled, reps)[:length]
