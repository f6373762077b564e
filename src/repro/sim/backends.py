"""The kernel bundle the engine's execute phase calls through.

The execute phase of :class:`~repro.sim.engine.Simulator` spends its
time in a handful of pure array kernels (:mod:`repro.sim.kernels`). The
engine reaches them through a :class:`KernelBackend` bundle rather than
by direct import, so a caller can substitute wrapped kernels: build a
derived bundle with :func:`dataclasses.replace` and assign it to
``sim.kernels`` (``tools/profile_cell.py`` interposes its per-phase
timing shims this way). Wrapped kernels must keep the bitwise output of
the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels

__all__ = ["KernelBackend", "resolve_kernel_backend"]


@dataclass(frozen=True)
class KernelBackend:
    """The engine's hot kernels, one callable per :mod:`repro.sim.kernels` namesake."""

    warmup_remote_classes: Callable[..., np.ndarray]
    batch_totals: Callable[..., np.ndarray]
    source_totals: Callable[..., np.ndarray]
    accumulate_rows: Callable[..., np.ndarray]
    add_pfs_latency: Callable[..., np.ndarray]
    interference_factors: Callable[..., np.ndarray]


_NUMPY = KernelBackend(
    warmup_remote_classes=kernels.warmup_remote_classes,
    batch_totals=kernels.batch_totals,
    source_totals=kernels.source_totals,
    accumulate_rows=kernels.accumulate_rows,
    add_pfs_latency=kernels.add_pfs_latency,
    interference_factors=kernels.interference_factors,
)


def resolve_kernel_backend(spec: None) -> KernelBackend:
    """The bundle a new simulator starts with (``spec`` must be ``None``)."""
    return _NUMPY
